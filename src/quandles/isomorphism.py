"""Quandle homomorphisms, isomorphism search, and automorphism groups.

The search is plain backtracking over partial bijections, assigning points in
index order with candidates in ascending order, so results are deterministic.
Forward checking uses the homomorphism equation on every pair whose image is
already pinned down.  Before searching, elements are bucketed by cheap
isomorphism invariants; a mismatch anywhere settles the question without
search.  Invariants only ever prune, never decide a positive.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Quandle, _preserves
from .perms import (
    PermutationGroup,
    compose,
    cycle_lengths,
    identity_perm,
    orbit,
    perm_order,
)


def is_homomorphism(f, X: Quandle, Y: Quandle) -> bool:
    """True iff f(s_x(y)) = s_f(x)(f(y)) for all x, y."""
    f = tuple(f)
    if len(f) != X.n:
        raise ValueError(f"map has length {len(f)}, expected {X.n}")
    for v in f:
        if not 0 <= v < Y.n:
            raise ValueError(f"map value {v} out of range 0..{Y.n - 1}")
    return _preserves(f, X.table, Y.table)


@lru_cache(maxsize=None)
def _point_profiles(X: Quandle) -> tuple:
    """Per-point invariant vector: (row cycle type, fixer count, inner orbit size).

    Any isomorphism must match points with equal vectors.
    """
    n = X.n
    rows = X.table
    fixers = [0] * n
    for y in range(n):
        ry = rows[y]
        for x in range(n):
            if ry[x] == x:
                fixers[x] += 1
    orbit_size = [0] * n
    for x in range(n):
        if orbit_size[x] == 0:
            orb = orbit(rows, x)
            for p in orb:
                orbit_size[p] = len(orb)
    return tuple(
        (cycle_lengths(rows[x]), fixers[x], orbit_size[x]) for x in range(n)
    )


@lru_cache(maxsize=None)
def _displacement_order_multiset(X: Quandle) -> tuple[int, ...]:
    """Sorted orders of all row compositions s_x . s_y.

    An isomorphism conjugates the compositions of X onto those of Y, so this
    multiset is invariant.  It separates, e.g., products of dihedral quandles
    whose translation subgroups have different abelian types.
    """
    rows = X.table
    return tuple(sorted(perm_order(compose(rx, ry)) for rx in rows for ry in rows))


def _search(
    X: Quandle, Y: Quandle, find_all: bool, image_of_0: int | None = None
) -> list[tuple[int, ...]]:
    """Isomorphisms X -> Y: the first one, or all with `find_all`.

    `image_of_0`, when given, restricts the search to maps sending 0 there.
    """
    n = X.n
    px = _point_profiles(X)
    py = _point_profiles(Y)
    if sorted(px) != sorted(py):
        return []
    if _displacement_order_multiset(X) != _displacement_order_multiset(Y):
        return []
    candidates = [[y for y in range(n) if py[y] == px[x]] for x in range(n)]
    if image_of_0 is not None:
        candidates[0] = [y for y in candidates[0] if y == image_of_0]
    # Pairs (a, b) with both points assigned strictly before their table value:
    # once position t is being assigned, these pin its image.
    preimage = [[] for _ in range(n)]
    xt, yt = X.table, Y.table
    for a in range(n):
        row = xt[a]
        for b in range(n):
            t = row[b]
            if a < t and b < t:
                preimage[t].append((a, b))
    f = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def assign(k: int) -> bool:
        if k == n:
            found.append(tuple(f))
            return not find_all
        for c in candidates[k]:
            if used[c]:
                continue
            ok = True
            for a, b in preimage[k]:
                if yt[f[a]][f[b]] != c:
                    ok = False
                    break
            if ok:
                f[k] = c
                for a in range(k + 1):
                    fa = f[a]
                    t = xt[a][k]
                    if t <= k and yt[fa][c] != f[t]:
                        ok = False
                        break
                    t = xt[k][a]
                    if t <= k and yt[c][fa] != f[t]:
                        ok = False
                        break
            if ok:
                used[c] = True
                if assign(k + 1):
                    return True
                used[c] = False
            f[k] = -1
        return False

    assign(0)
    return found


def find_isomorphism(X: Quandle, Y: Quandle):
    """A bijection witnessing X isomorphic to Y, or None.

    Deterministic: candidates are tried in ascending index order, so X against
    itself always yields the identity.
    """
    if X.n != Y.n:
        return None
    if X.table == Y.table:
        return identity_perm(X.n)
    found = _search(X, Y, find_all=False)
    return found[0] if found else None


def automorphism_group(X: Quandle) -> PermutationGroup:
    """All self-isomorphisms of X.  Contains every row of the table."""
    autos = sorted(_search(X, X, find_all=True))
    return PermutationGroup(X.n, autos, autos)
