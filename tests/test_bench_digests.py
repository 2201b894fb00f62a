"""The benchmark's seed-1 answers: one pass of each perfbench workload,
run as its own process from the repository root, is correct and has the
pinned output digest, so a change of answers shows in the suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "campaign": "ed9fa437dfec643c9f41d05259590103c7cbc7d5551eba415fc3d74e1f0f944e",
    "member": "d7fcb99f37044f7c267fbb90bbd9eb3d2d4889fcdf213281465b82d042d9836a",
    "fanwalk": "2dd4c891666312fb67f8334418e92da018b5ef8571b29e429c538abd277e70ec",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_1_pass_digest(workload):
    # --seconds 0 runs exactly one pass
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    stamp = json.loads(lines[0].removeprefix("stamp "))
    assert json.loads(lines[-1])["correct"] is True
    assert stamp["passes"] == 1
    assert stamp["digest_pass0"] == DIGESTS[workload]
