"""Quandle homomorphisms, isomorphism search, and automorphism groups.

One lazy search yields the isomorphisms X -> Y one by one, and each caller
takes what it needs.  It backtracks over partial bijections in generation order
on an explicit stack, not by recursion: every point but a few starts is s_a(b)
of two earlier ones, so only the starts branch, over candidates in ascending
order, and results are deterministic.  A per-point profile and the cells of
the starts' rows prune; neither decides a positive.  `_preserves` certifies
each complete map.  On quandles it never fails: if f preserves the rows a and
b, it preserves the row s_{s_a(b)} = s_a s_b s_a^-1, so a bijection that
preserves the rows of the starts preserves every row.  The search is complete
on quandles.  On other tables it may miss an isomorphism (the profile takes
the rows for automorphisms), but every map it yields is one."""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .core import Quandle, _preserves
from .perms import (
    PermutationGroup, compose, cycle_lengths, identity_perm, inverse, orbit, perm_order
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


def _point_profiles(X: Quandle) -> list:
    """Per-point invariant: (inner orbit size, cycle type of s_y, number of x
    with s_x(y) = y, sorted orders of s_x . s_y over all x).

    Isomorphisms match points with equal profiles.  A row g is an automorphism:
    s_g(y) = g s_y g^-1, s_g(x)(g(y)) = g(s_x(y)) and s_g(x) . s_g(y) =
    g (s_x . s_y) g^-1, so a profile is constant on an inner orbit and is
    computed once per orbit.  With g = s_y this says s_{s_y(x)} . s_y =
    s_y (s_x . s_y) s_y^-1, so the order of s_x . s_y is computed once per
    cycle of s_y.  With g = d^k for d = s_x . s_y it says s_{d^k(x)} . s_y =
    d^k s_x d^-k s_y, which is d^(2k+1) when s_x and s_y are both involutions
    (then d^-1 = s_y s_x, so s_x d^-k s_y = d^(k+1)); without both, d^-k does
    not fold into powers of d.  So for two involutions one order, ord(d),
    gives ord(d) / gcd(2k+1, ord(d)) for every point d^k(x) of the cycle of x
    under d.  s_x is tested only when s_y is an involution and d moves x, so
    an identity row or a fixed x costs one comparison.  Each y makes one
    getter for d, and equal rows s_x give equal d, so ord(d) is memoized per y
    by the row s_x, which the table holds: the memo adds no tuples.
    """
    rows = X.table
    ident = identity_perm(X.n)
    profiles = [None] * X.n
    for y, ry in enumerate(rows):
        if profiles[y] is None:
            cycles = cycle_lengths(ry)
            after_y = itemgetter(*ry) if X.n > 1 else tuple  # (0,) is the only row of order 1
            involutive = after_y(ry) == ident  # an involution is a bijection, on any table
            orders, seen, memo = [], [False] * X.n, {}
            for x, rx in enumerate(rows):
                if seen[x]:
                    continue
                d, order = after_y(rx), memo.get(rx)
                if order is None:
                    order = memo[rx] = 1 if d == ident else perm_order(d)
                z = x
                while not seen[z]:
                    seen[z] = True
                    orders.append(order)
                    z = ry[z]
                if involutive and d[x] != x and compose(rx, rx) == ident:
                    z, e = d[x], 3  # z = d^k(x) and e = 2k+1
                    while z != x:
                        o, w = order // gcd(e, order), z
                        while not seen[w]:
                            seen[w] = True
                            orders.append(o)
                            w = ry[w]
                        z, e = d[z], e + 2
            orb = orbit(rows, y)
            profile = (
                len(orb),
                cycles,
                sum(r[y] == y for r in rows),
                tuple(sorted(orders)),
            )
            for z in orb:
                profiles[z] = profile
    return profiles


def _generation_order(X: Quandle) -> tuple[list[int], list]:
    """The points of X from 0: after each point p, the unseen s_p(q) and
    s_q(p) for q up to p; once the points so far are closed, the smallest
    point not yet reached starts the next run.  Those starts generate X.
    Also returns, per point, the (a, b) that placed it as s_a(b), None for a start.
    Stops once all n points are placed: later pairs would place nothing."""
    rows = X.table
    order, pins = [0], [None] * X.n
    seen = [True] + [False] * (X.n - 1)
    for k, p in enumerate(order):  # grows while it is read
        for q in order[: k + 1]:
            for a, b in ((p, q), (q, p)):
                r = rows[a][b]
                if not seen[r]:
                    seen[r] = True
                    order.append(r)
                    pins[r] = (a, b)
        if len(order) == X.n:
            break
        if k + 1 == len(order):
            start = seen.index(False)
            seen[start] = True
            order.append(start)
    return order, pins


def _isomorphisms(X: Quandle, Y: Quandle):
    """Set up once, the search for isomorphisms X -> Y: a function of the
    images to try for f(0), by default all its candidates, that returns a
    generator of the isomorphisms in search order.

    Assigns the points of X in generation order.  A start tries the points of
    Y with its profile; any other point t = s_a(b) is pinned to s_f(a)(f(b)).
    Only the starts' rows prune, each cell once its three points are assigned.
    A complete map is yielded only if `_preserves` certifies it, which never
    fails on quandles (see the module docstring).  The stack holds one
    iterator over the options of each point assigned so far.  The search is
    complete on quandles.  On other tables it may miss an isomorphism, but
    every map it yields is one."""
    n = X.n
    px = _point_profiles(X)
    py = px if Y is X else _point_profiles(Y)
    if sorted(px) != sorted(py):
        return lambda images=None: iter(())
    order, pins = _generation_order(X)
    xt, yt, level = X.table, Y.table, inverse(order)
    candidates = {x: [y for y in range(n) if py[y] == px[x]] for x in order if pins[x] is None}
    checks = [[] for _ in range(n)]
    for a in candidates:
        for b, t in enumerate(xt[a]):
            checks[max(level[a], level[b], level[t])].append((a, b, t))

    def isomorphisms(images=None):
        first = candidates[0] if images is None else [y for y in images if y in candidates[0]]
        f, used, stack = [-1] * n, [False] * n, [iter(first)]
        while stack:
            k = len(stack) - 1
            for c in stack[-1]:
                if used[c]:
                    continue
                f[order[k]] = c
                for a, b, t in checks[k]:
                    if yt[f[a]][f[b]] != f[t]:
                        break
                else:
                    break  # c passes every check at k
            else:  # no option left at k: backtrack
                stack.pop()
                if k:
                    used[f[order[k - 1]]] = False
                continue
            if k + 1 == n:
                if _preserves(f, xt, yt):
                    yield tuple(f)
                continue  # c is not marked used, so k tries its next option
            used[c] = True
            x = order[k + 1]
            pin = pins[x]
            stack.append(iter(candidates[x] if pin is None else (yt[f[pin[0]]][f[pin[1]]],)))

    return isomorphisms


def find_isomorphism(X: Quandle, Y: Quandle):
    """The first isomorphism X -> Y that the search yields, or None.

    Deterministic: candidates are tried in ascending index order, so X against
    itself always yields the identity.  The search is complete on quandles.
    On other tables it may miss an isomorphism, but every map it yields is one."""
    if X.n != Y.n:
        return None
    if X.table == Y.table:
        return identity_perm(X.n)
    return next(_isomorphisms(X, Y)(), None)


def automorphism_group(X: Quandle) -> PermutationGroup:
    """Every isomorphism X -> X that the search yields; contains every row."""
    autos = sorted(_isomorphisms(X, X)())
    return PermutationGroup(X.n, autos, autos)
