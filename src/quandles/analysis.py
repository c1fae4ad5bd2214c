"""Symmetry groups of a quandle and the predicates built on them.

inner_group is generated by the rows; displacement_group by all row pairs
s_x . s_y.  Each predicate reads the cheapest structure that decides it:
connectivity the orbit of the rows, flatness commuting generators, and
homogeneity automorphisms from 0, each to the largest point not yet reached,
since one found reaches the inner orbit of every point on its cycle of 0.
Nothing is cached between calls.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .core import Quandle
from .isomorphism import _isomorphisms
from .perms import (
    PermutationGroup, _commute, closure, compose, identity_perm, is_abelian, is_perm, orbit
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


def _flat_connected_dis(X: Quandle) -> list | None:
    """Dis of a connected X listed by where it sends 0, if it is commutative;
    else None.

    That Dis is transitive, and a transitive abelian group is regular, so each
    element is named by its image of 0 and a dict keyed by it lists the group
    H closed so far.  Only the generators it needs are composed: s_0 . s_0
    first, then s_x . s_0 for each point x that H does not yet send 0 to,
    until H sends 0 everywhere.  A generator listed under its image of 0 is in
    H; any other must commute with the generators kept, and adds the cosets
    H.g^i until g^i is listed.  A coset H.p holds p itself, and h.p for the
    other h of H from one getter of p; one getter of g per generator gives the
    next representative p.g.

    Why H is all of Dis: if s_0 . s_0 is not the identity, it fixes 0, so Dis
    is not regular.  Otherwise, once H.0 = X, X is connected, so every row is
    conjugate to s_0 and is an involution.  Let S be 0 and the points x
    composed: each point of H.0 lies in the subquandle that S generates, so S
    generates X and the s_a (a in S) generate Inn.  N = <s_a . s_0 : a in S>
    is H, and it is normal in Inn, since s_0 (s_a . s_0) s_0 = (s_a . s_0)^-1
    and s_a = (s_a . s_0) s_0.  Every s_a, hence every s_x, is s_0 modulo N,
    so every s_x . s_y lies in N.

    Two different elements that agree at 0 show that Dis is not regular, so it
    is not commutative unless X is not a quandle: all the generators are
    compared to tell.  An abelian Dis that is not regular, which no quandle
    has, gives an empty list.
    """
    n, s0 = X.n, X.table[0]
    dis, kept = {0: identity_perm(n)}, []
    for x in range(n):
        if len(dis) == n:
            break
        if x and x in dis:  # s_0 . s_0 is composed though H sends 0 to 0
            continue
        g = compose(X.table[x], s0)
        if dis.get(g[0]) == g:
            continue
        if not is_perm(g, n):
            raise ValueError(f"not a permutation of degree {n}: {g}")
        if any(compose(g, k) != compose(k, g) for k in kept):
            return None
        kept.append(g)
        rest = list(dis.values())[1:]  # H without the identity
        p, times_g = g, itemgetter(*g)
        while dis.get(p[0]) != p:
            for q in chain((p,), map(itemgetter(*p), rest) if rest else ()):  # h -> h . p
                if q[0] in dis:
                    return [] if _commute(set(_displacement_generators(X))) else None
                dis[q[0]] = q
            p = times_g(p)  # p . g, a power of g
    return [dis[x] for x in range(n)] if len(dis) == n else []


def is_connected(X: Quandle) -> bool:
    """True iff the inner group acts transitively: the rows reach every point from 0."""
    return len(orbit(X.table, 0)) == X.n


def is_flat(X: Quandle) -> bool:
    """True iff the displacement group is commutative: listed by the images of
    0 from only the generators it needs if X is connected, else by its n
    generators s_x . s_0 commuting pairwise."""
    if is_connected(X):
        return _flat_connected_dis(X) is not None
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
    isomorphisms = _isomorphisms(X, X)
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
    """Full predicate report, in the shape used by the CLI; Inn is never closed."""
    dis = displacement_group(X)
    return {
        "n": X.n,
        "connected": is_connected(X),
        "flat": is_abelian(dis),
        "involutive": is_involutive(X),
        "homogeneous": is_homogeneous(X),
        # Inn = Dis u s_0 Dis: each s_x = (s_x . s_0) s_0^-1, and s_0^2 is in Dis.
        "inn_order": len(dis) * (1 if X.table[0] in dis else 2),
        "dis_order": len(dis),
    }
