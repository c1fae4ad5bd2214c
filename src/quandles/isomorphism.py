"""Quandle homomorphisms, isomorphism search, and automorphism groups.

One lazy search yields the isomorphisms X -> Y one by one, and each caller
takes what it needs.  It backtracks over partial bijections in generation order
on an explicit stack, not by recursion: every point but a few starts is s_a(b)
of two earlier ones, so only the starts branch, over candidates in ascending
order, and results are deterministic.  A per-point profile and the cells of
the starts' rows prune, and they certify each complete map: if f preserves
the rows a and b, it preserves the row s_{s_a(b)} = s_a s_b s_a^-1, so a
bijection that preserves the rows of the starts preserves every row.  The
search is complete.

Tables that are not isomorphic are told apart before the search is set up,
as early as the profiles allow: the profiles of Y are computed against those
of X and stop where the sorted lists would first differ (see
`_point_profiles`), so every answer and witness is the one the full lists give.

The search also uses the symmetry of a quandle (see `_isomorphisms`): a
search of X against itself (`is_homogeneous`, `automorphism_group`) knows
that the identity extends, so it refutes nothing and compares only the
heads of the profiles, which keep each start off the inner orbits of other
heads; f(0) tries one image per inner orbit of Y, and `automorphism_group`
lists Aut as Inn . Aut_0 (McKay and Piperno's pruning by automorphisms
known in advance).  `find_isomorphism` must refute, so it keeps the full
profiles."""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby, islice
from math import gcd
from operator import itemgetter

from .core import Quandle, _generators, _preserves
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


def _point_profiles(X: Quandle, against: list | None = None) -> list | None:
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

    Given `against`, the profiles of another table X', returns None if the
    sorted lists differ, and stops once that is certain.  An orbit stops it
    if no profile of X' has its head, the profile less its orders, or, before
    an order computed after its first (until then every order counted is 1),
    if the order computed last already occurs more often than in every
    profile of X' with that head.  Either way the orbit's profile is one that
    X' lacks, so every answer is the one the full lists give.  A finished
    profile that X' has takes the equal tuple of X', so the final comparison
    of the sorted lists and the search's matching of points are by identity.
    """
    rows = X.table
    ident = identity_perm(X.n)
    profiles = [None] * X.n
    if against is not None:
        ranked = sorted(against)
    for y, ry in enumerate(rows):
        if profiles[y] is None:
            orb = orbit(rows, y)
            head = (len(orb), cycle_lengths(ry), sum(r[y] == y for r in rows))
            if against is not None:
                i = bisect_left(ranked, head)  # a head sorts before the profiles it starts
                if i == len(ranked) or ranked[i][:3] != head:
                    return None
            after_y = itemgetter(*ry) if X.n > 1 else tuple  # (0,) is the only row of order 1
            involutive = after_y(ry) == ident
            orders, seen, memo, last = [], [False] * X.n, {}, None
            for x, rx in enumerate(rows):
                if seen[x]:
                    continue
                d, order = after_y(rx), memo.get(rx)
                if order is None:
                    if d == ident:
                        order = 1
                    elif (
                        against is not None
                        and last is not None
                        and orders.count(last) > _most(last, ranked, i, head)
                    ):
                        return None
                    else:
                        order = last = perm_order(d)
                    memo[rx] = order
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
            profile = (*head, tuple(sorted(orders)))
            if against is not None:
                k = bisect_left(ranked, profile, i)
                if k < len(ranked) and ranked[k] == profile:
                    profile = ranked[k]  # later comparisons with it are by identity
            for z in orb:
                profiles[z] = profile
    if against is not None and sorted(profiles) != ranked:
        return None
    return profiles


def _most(order, ranked, i, head) -> int:
    """The most times `order` occurs in the orders of a profile with this head
    in the sorted list `ranked`, where they run from index i.  Equal profiles
    are adjacent, so each distinct one is counted once."""
    most = 0
    for t, _ in groupby(islice(ranked, i, None)):
        if t[:3] != head:
            break
        most = max(most, t[3].count(order))
    return most


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


def _heads(X: Quandle) -> list:
    """Per point, the head of its profile (see `_point_profiles`): inner
    orbit size, cycle type of s_y and number of x with s_x(y) = y.  Like the
    profile it is constant on an inner orbit and kept by every isomorphism."""
    rows = X.table
    heads = [None] * X.n
    for y, ry in enumerate(rows):
        if heads[y] is None:
            orb = orbit(rows, y)
            head = (len(orb), cycle_lengths(ry), sum(r[y] == y for r in rows))
            for z in orb:
                heads[z] = head
    return heads


def _isomorphisms(X: Quandle, Y: Quandle | None = None):
    """Set up once, the search for isomorphisms X -> Y, or for the
    automorphisms of X if Y is not given: a function of the images to try
    for f(0) that returns a generator of the isomorphisms in search order.
    By default f(0) tries the least candidate in each inner orbit of Y:
    Inn(Y) acts on the isomorphisms by g -> g . f, so some f sends 0 to c
    exactly when one sends it to each point of c's orbit.  A connected Y,
    which the orbit size in any head of Y tells, has one orbit, so f(0)
    tries only the least candidate, 0.

    Y's profiles are computed against X's, and the search yields nothing as
    soon as they differ (see `_point_profiles`), which is the answer the
    complete lists give.  A search of X against itself (`is_homogeneous`,
    `automorphism_group`) knows that the identity extends, so it refutes
    nothing and takes the heads alone: a candidate that the orders would
    refuse is a dead branch that the row checks close, so the maps yielded
    are the same.  The heads still prune: a start that tried every point
    would meet, on inner orbits that differ in head, dead branches that
    backtracking enumerates once per assignment of the points between.

    Assigns the points of X in generation order.  A start tries the points
    of Y with its profile or head; any other point t = s_a(b) is pinned to
    s_f(a)(f(b)).  Only the starts' rows prune, each cell once its three
    points are assigned, so a complete map preserves them and is an
    isomorphism (see the module docstring).  The stack holds one iterator
    over the options of each point assigned so far."""
    n, xt = X.n, X.table
    if Y is None:
        yt = xt
        px = py = _heads(X)
    else:
        yt, px = Y.table, _point_profiles(X)
        py = _point_profiles(Y, px)
        if py is None:
            return lambda images=None: iter(())
    order, pins = _generation_order(X)
    level = inverse(order)
    starts = [x for x in order if pins[x] is None]
    candidates = {x: [y for y in range(n) if py[y] == px[x]] for x in starts}
    checks = [[] for _ in range(n)]
    for a in candidates:
        for b, t in enumerate(xt[a]):
            checks[max(level[a], level[b], level[t])].append((a, b, t))

    def isomorphisms(images=None):
        if images is None:  # the least candidate of each inner orbit of Y
            if py[0][0] == n:
                first = candidates[0][:1]
            else:
                first = _least_per_orbit(yt, candidates[0])
        else:
            first = [y for y in images if y in candidates[0]]
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
                yield tuple(f)
                continue  # c is not marked used, so k tries its next option
            used[c] = True
            x = order[k + 1]
            pin = pins[x]
            stack.append(iter(candidates[x] if pin is None else (yt[f[pin[0]]][f[pin[1]]],)))

    return isomorphisms


def _least_per_orbit(rows, points) -> list:
    """The least of the ascending `points` in each inner orbit that holds one."""
    least, reached = [], set()
    for c in points:
        if c not in reached:
            least.append(c)
            reached |= orbit(rows, c)
    return least


def find_isomorphism(X: Quandle, Y: Quandle):
    """The first isomorphism X -> Y that the search yields, or None.

    Deterministic: candidates are tried in ascending index order, so X against
    itself always yields the identity.  f(0) tries only the least candidate
    of each inner orbit of Y, which gives the same witness: the first
    candidate that extends is the least of its orbit, since all of its orbit
    extend."""
    if X.n != Y.n:
        return None
    if X.table == Y.table:
        return identity_perm(X.n)
    return next(_isomorphisms(X, Y)(), None)


def _transversal(gens, c: int, degree: int) -> list:
    """One element g_z of <gens> with g_z(c) = z for each z in the orbit of
    c, read off a breadth-first tree: g_c is the identity and g_s(z) = s . g_z."""
    tree, points, seen = [identity_perm(degree)], [c], {c}
    for g, z in zip(tree, points):  # both grow while they are read
        for s in gens:
            if s[z] not in seen:
                seen.add(s[z])
                points.append(s[z])
                tree.append(itemgetter(*g)(s))
    return tree


def automorphism_group(X: Quandle) -> PermutationGroup:
    """The automorphisms of X, listed as Aut = Inn . Aut_0 on each inner
    orbit; contains every row.

    One search from the least candidate c of each inner orbit lists the f
    with f(0) = c (Aut_0 alone on a connected X).  Each is composed with a
    transversal of c's orbit, one inner element g_z with g_z(c) = z per
    point z: an automorphism h with h(0) in the orbit is g_z . f for z = h(0)
    and no other pair.  The transversals use the rows of the least-first
    generating set of `core._generators`, which generate Inn, since
    s_{s_a(b)} = s_a s_b s_a^-1 (see `core.validate_quandle`).
    """
    rows, n = X.table, X.n
    inner = [rows[a] for a in _generators(rows)]
    autos, trees = [], {}
    for f in _isomorphisms(X)():
        if f[0] not in trees:
            trees[f[0]] = _transversal(inner, f[0], n)
        autos += map(itemgetter(*f) if n > 1 else tuple, trees[f[0]])  # g -> g . f
    autos.sort()
    return PermutationGroup(n, autos, autos)
