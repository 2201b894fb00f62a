"""Span tracer for the benchmark's traced run.

The tracer wraps a fixed list of tropgen's public functions.  tropgen
modules import names with ``from .x import y``, so a function can be bound
in several module namespaces (and in the package ``__init__``); the tracer
replaces every binding it finds and restores each one on ``uninstall``.
Calls inside a module go through its global lookup, so patching
``groebner.normal_form`` also catches the calls from ``buchberger``.

A span is (name, parent, start, end).  Spans live in flat in-memory arrays
while the run is going and are written out once at the end.  A span's
self time is its duration minus the time covered by its direct children;
single-threaded nesting means children never overlap, so that is the sum
of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# "<module>.<function>" or "<module>.<Class>.<method>", relative to tropgen.
TRACED = (
    "poly.parse_ideal_file",
    "generic.generic_membership_map",
    "generic.transform_ideal",
    "weights.MembershipMap.query",
    "weights.in_tropical_variety",
    "weights.groebner_cone",
    "weights.weight_gb",
    "weights.enumerate_groebner_fan",
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.contains_monomial",
    "fans.relative_interior_contains",
    "fans.make_cone",
    "fans.cone_dim",
    "halfspaces.find_point",
    "linalg.rref",
    "linalg.nullspace",
)

# Its None results are counted: facet probes that found no point.
FIND_POINT = "halfspaces.find_point"

UNIT_PREFIX = "unit:"


def tropgen_modules():
    """The loaded tropgen package and its submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "tropgen" or name.startswith("tropgen."))]


def resolve(name):
    """(owner, attribute) holding the defining binding of a TRACED name."""
    parts = name.split(".")
    owner = sys.modules["tropgen." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def binding_sites(original):
    """Every (owner, attribute) in tropgen bound to `original`: module
    globals, plus class attributes for methods."""
    sites = []
    for mod in tropgen_modules():
        for attr, value in vars(mod).items():
            if value is original:
                sites.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if cvalue is original:
                        sites.append((value, cattr))
    return sites


class Tracer:
    """Records spans for the TRACED functions and for benchmark units."""

    def __init__(self):
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.find_point_none = 0
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for fid, name in enumerate(TRACED):
            owner, attr = resolve(name)
            original = vars(owner)[attr]
            wrapper = self._wrap(fid, original, name == FIND_POINT)
            for site_owner, site_attr in binding_sites(original):
                setattr(site_owner, site_attr, wrapper)
                self._patched.append((site_owner, site_attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fid, fn, count_none):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count_none and result is None:
                self.find_point_none += 1
            return result

        return wrapper

    # -- benchmark spans ---------------------------------------------------

    @contextmanager
    def unit(self, label):
        """Record a benchmark unit (one timed call) as a span."""
        name = UNIT_PREFIX + label
        if name not in self.names:
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(self.names.index(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.span_end[idx] = time.perf_counter()

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """Per-function calls and self seconds, derived counts, and the
        same counts per benchmark unit label."""
        n = len(self.span_name)
        fid_of = {name: fid for fid, name in enumerate(self.names)}
        query, cone = fid_of["weights.MembershipMap.query"], fid_of["weights.groebner_cone"]
        is_unit = [name.startswith(UNIT_PREFIX) for name in self.names]
        child_time = [0.0] * n
        miss = bytearray(n)  # query span with a direct groebner_cone child
        unit_of = array("i", [-1]) * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
                unit_of[i] = unit_of[p]
                if names[i] == cone and names[p] == query:
                    miss[p] = 1
            if is_unit[names[i]]:
                unit_of[i] = i

        calls = Counter()
        self_s = Counter()
        by_unit = {}
        for i in range(n):
            fid = names[i]
            if is_unit[fid]:
                continue
            calls[fid] += 1
            self_s[fid] += ends[i] - starts[i] - child_time[i]
            u = unit_of[i]
            if u >= 0:
                label = self.names[names[u]][len(UNIT_PREFIX):]
                counts = by_unit.setdefault(label, Counter())
                counts[TRACED[fid]] += 1
                if miss[i]:
                    counts["weights.MembershipMap.misses"] += 1
        return {
            "calls": {name: calls[fid] for fid, name in enumerate(TRACED)},
            "self_s": {name: self_s[fid] for fid, name in enumerate(TRACED)},
            "misses": sum(miss),
            "find_point_none": self.find_point_none,
            "by_unit": {label: dict(sorted(c.items()))
                        for label, c in by_unit.items()},
        }

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "byteorder": sys.byteorder,
            "arrays": [["name", "i", self.span_name.itemsize],
                       ["parent", "i", self.span_parent.itemsize],
                       ["start", "d", 8], ["end", "d", 8]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
