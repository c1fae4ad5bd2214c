"""Symmetry groups of a quandle and the predicates built on them.

inner_group is generated by the rows; displacement_group by all row pairs
s_x . s_y.  Each predicate reads the cheapest structure that decides it:
connectivity the orbit of the rows, flatness commuting generators, and
homogeneity one automorphism search per point that orbit misses.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Quandle
from .isomorphism import _search
from .perms import PermutationGroup, closure, compose, identity_perm, is_abelian, orbit


@lru_cache(maxsize=None)
def inner_group(X: Quandle) -> PermutationGroup:
    """Group generated by the symmetries s_x (the rows of the table)."""
    return closure(X.table)


def _displacement_generators(X: Quandle) -> list:
    """The n products s_x . s_0, which generate every s_x . s_y:
    s_x . s_y = (s_x . s_0)(s_0 . s_0)^-1 (s_{s_0(y)} . s_0)."""
    s0 = X.table[0]
    return [compose(rx, s0) for rx in X.table]


@lru_cache(maxsize=None)
def displacement_group(X: Quandle) -> PermutationGroup:
    """Group generated by all compositions s_x . s_y, closed with no cap from
    `_displacement_generators`; `classify` closes the same generators capped at n."""
    return closure(_displacement_generators(X))


def is_connected(X: Quandle) -> bool:
    """True iff the inner group acts transitively: the rows reach every point from 0."""
    return len(orbit(X.table, 0)) == X.n


def is_flat(X: Quandle) -> bool:
    """True iff the displacement group is commutative."""
    return is_abelian(displacement_group(X))


def is_involutive(X: Quandle) -> bool:
    """True iff every symmetry squares to the identity."""
    ident = identity_perm(X.n)
    return all(compose(row, row) == ident for row in X.table)


def is_homogeneous(X: Quandle) -> bool:
    """True iff the automorphism group acts transitively.

    The rows are automorphisms, so connected quandles pass at once.  Else the
    orbit of 0 grows by one search per point not yet reached; Aut is never built.
    """
    found = list(X.table)
    reached = orbit(found, 0)
    for target in range(X.n):
        if target not in reached:
            f = _search(X, X, find_all=False, image_of_0=target)
            if not f:
                return False
            found += f
            reached = orbit(found, 0)
    return True


def analyze(X: Quandle) -> dict:
    """Full predicate report, in the shape used by the CLI; Inn is never closed."""
    dis = displacement_group(X)
    return {
        "n": X.n,
        "connected": is_connected(X),
        "flat": is_flat(X),
        "involutive": is_involutive(X),
        "homogeneous": is_homogeneous(X),
        # Inn = Dis u s_0 Dis: each s_x = (s_x . s_0) s_0^-1, and s_0^2 is in Dis.
        "inn_order": len(dis) * (1 if X.table[0] in dis else 2),
        "dis_order": len(dis),
    }
