"""Fixtures shared by the test modules."""

import pytest

from tropgen.linalg import QQ
from tropgen.poly import Polynomial


@pytest.fixture(scope="module")
def sympy_basis():
    """basis(n, generators, order): the reduced basis sympy.groebner
    finds, as a set of polynomials monic under order."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import MonomialOrder

    class Order(MonomialOrder):
        """A term order for sympy, whose leading monomial maximizes the
        key: the largest degree, then the least weight under each weight
        vector in turn, then the fewest xn, x(n-1), ... (reverse lex),
        written out here rather than read from TermOrder.key."""

        def __init__(self, order):
            self.order = order

        def __call__(self, monomial):
            return (sum(monomial),
                    tuple(-sum(a * b for a, b in zip(w, monomial))
                          for w in self.order.weights),
                    tuple(-x for x in reversed(monomial)))

        # sympy caches polynomial rings by their order, and MonomialOrder
        # compares by class only
        def __eq__(self, other):
            return isinstance(other, Order) and other.order == self.order

        def __hash__(self):
            return hash(self.order)

    def basis(n, generators, order):
        xs = sympy.symbols(f"x1:{n + 1}")
        polys = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator,
                                                         c.denominator)
                                       for e, c in g.terms}, xs)
                 for g in generators]
        G = sympy.groebner(polys, *xs, order=Order(order))
        found = set()
        for g in G.polys:
            coeffs = {e: QQ(int(c.p), int(c.q)) for e, c in g.terms()}
            head = coeffs[min(coeffs, key=order.key)]
            found.add(Polynomial.from_dict(
                n, {e: c / head for e, c in coeffs.items()}))
        return found

    return basis
