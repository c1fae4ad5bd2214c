"""Symmetry groups of a quandle and the predicates built on them.

inner_group is generated by the rows; displacement_group by all row pairs
s_x . s_y.  Each predicate reads the cheapest structure that decides it:
connectivity the orbit of the rows, flatness a few commuting generators of
Dis, kept by a walk over the points whose orbit of 0 grows by the block rule
(`_flat_dis_generators`), and homogeneity automorphisms from 0, each to the
largest point not yet reached, since one found reaches the inner orbit of
every point on its cycle of 0.  `analyze` reads |Dis| and |Inn| of a flat
connected quandle off the same walk, which proves Dis regular, and for
other inputs closes Dis into an unsorted set (`perms._close`) whose size,
kept generators and membership of s_0 give the rest.  On a connected
quandle it reads involutivity off s_0 alone and homogeneity off
connectivity, and it closes Inn for no input.
Nothing is cached between calls.
"""

from __future__ import annotations

from operator import itemgetter

from .core import Quandle
from .isomorphism import _isomorphisms
from .perms import (
    PermutationGroup, _close, _commute, _flat_dis_generators, closure, compose, identity_perm,
    orbit
)


def inner_group(X: Quandle) -> PermutationGroup:
    """Group generated by the symmetries s_x (the rows of the table)."""
    return closure(X.table)


def _displacement_generators(X: Quandle) -> list:
    """The n products s_x . s_0, which generate every s_x . s_y:
    s_x . s_y = (s_x . s_0)(s_0 . s_0)^-1 (s_{s_0(y)} . s_0)."""
    if X.n < 2:  # itemgetter of one index returns a bare item, not a tuple
        return list(X.table)
    return list(map(itemgetter(*X.table[0]), X.table))


def displacement_group(X: Quandle) -> PermutationGroup:
    """Group generated by all compositions s_x . s_y, closed from `_displacement_generators`."""
    return closure(_displacement_generators(X))


def is_connected(X: Quandle) -> bool:
    """True iff the inner group acts transitively: the rows reach every point from 0."""
    return len(orbit(X.table, 0)) == X.n


def is_flat(X: Quandle) -> bool:
    """True iff the displacement group is commutative: by the walk of
    `_flat_dis_generators` if X is connected, else by its n generators
    s_x . s_0 commuting pairwise."""
    if is_connected(X):
        return _flat_dis_generators(X) is not None
    return _commute(set(_displacement_generators(X)))


def is_involutive(X: Quandle) -> bool:
    """True iff every symmetry squares to the identity."""
    if X.n < 2:  # the one row of order 1 is (0,)
        return True
    ident = identity_perm(X.n)
    return all(itemgetter(*row)(row) == ident for row in X.table)


def is_homogeneous(X: Quandle) -> bool:
    """True iff the automorphism group acts transitively.

    The rows are automorphisms, so Aut covers an inner orbit once it reaches
    one of its points.  One search, set up once, looks for an automorphism f
    from 0 to the largest point not yet reached; if there is none, X is not
    homogeneous.  Each point f^k(0) on the cycle of 0 under f is an Aut-image
    of 0, so its inner orbit is reached too.  The answer is that of one search
    per missed inner orbit, but on T_n the first f, 0 -> n-1 and x -> x-1
    after, reaches every point: one search decides what took n-1.  Aut is
    never built.
    """
    rows = X.table
    reached = orbit(rows, 0)
    if len(reached) == X.n:
        return True
    isomorphisms = _isomorphisms(X)
    for y in reversed(range(X.n)):
        if y not in reached:
            f = next(isomorphisms((y,)), None)
            if f is None:
                return False
            z = f[0]
            while z:  # the cycle of 0 under f
                if z not in reached:
                    reached |= orbit(rows, z)
                z = f[z]
    return True


def analyze(X: Quandle) -> dict:
    """Full predicate report, in the shape used by the CLI; each answer is
    read off the cheapest structure that decides it, and Inn is never closed.

    If X is flat and connected, the walk of `is_flat` proves Dis regular, so
    |Dis| = n, and s_0, which fixes 0, is in Dis only if n = 1.  Otherwise
    Dis is closed by `perms._close`, unsorted: its size is |Dis|, its kept
    generators commute exactly when Dis does, and Inn = Dis u s_0 Dis, since
    each s_x = (s_x . s_0) s_0^-1 and s_0^2 is in Dis.  A connected X is
    homogeneous, since Inn is transitive, and involutive exactly when s_0
    is: the rows of one inner orbit are conjugate in Inn, s_{g(0)} =
    g s_0 g^-1, so they all have the order of s_0."""
    n, s0 = X.n, X.table[0]
    connected = is_connected(X)
    if connected and _flat_dis_generators(X) is not None:
        flat, dis_order, inn_order = True, n, 2 * n if n > 1 else 1
    else:
        kept, dis = _close(_displacement_generators(X))
        flat, dis_order = _commute(kept), len(dis)
        inn_order = dis_order * (1 if s0 in dis else 2)
    if connected:
        involutive, homogeneous = compose(s0, s0) == identity_perm(n), True
    else:
        involutive, homogeneous = is_involutive(X), is_homogeneous(X)
    return {
        "n": n,
        "connected": connected,
        "flat": flat,
        "involutive": involutive,
        "homogeneous": homogeneous,
        "inn_order": inn_order,
        "dis_order": dis_order,
    }
