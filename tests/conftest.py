"""Shared constructions for the test suite."""

import random
from itertools import combinations, permutations, product

from quandles import (
    Quandle,
    build_representatives,
    dihedral_quandle,
    direct_product,
    enumerate_quandles,
    trivial_quandle,
)
from quandles.perms import compose, cycle_lengths, inverse


def affine_quandle(n: int, t: int) -> Quandle:
    """Z_n with s_x(y) = t*y + (1-t)*x; a quandle whenever gcd(t, n) = 1."""
    return Quandle(
        [[(t * y + (1 - t) * x) % n for y in range(n)] for x in range(n)]
    )


def affine5() -> Quandle:
    """The order-5 quandle s_x(y) = -x + 2y: connected but not flat."""
    return affine_quandle(5, 2)


def transposition_quandle(m: int) -> Quandle:
    """The transpositions of S_m with s_a(b) = a b a^-1.

    Connected for m >= 2; for m >= 4 not flat, with displacement group far
    larger than the order m(m-1)/2.
    """
    elements = list(combinations(range(m), 2))
    index = {t: i for i, t in enumerate(elements)}

    def conjugate(a, b):
        swap = {a[0]: a[1], a[1]: a[0]}
        return index[tuple(sorted(swap.get(v, v) for v in b))]

    return Quandle([[conjugate(a, b) for b in elements] for a in elements])


def pinned_point_quandle() -> Quandle:
    """Dihedral quandle on {0,1,2} next to a point 3 fixed by every symmetry.

    Valid, but not homogeneous: no automorphism can move 3 into the
    dihedral part.
    """
    return Quandle([[0, 2, 1, 3], [2, 1, 0, 3], [1, 0, 2, 3], [0, 1, 2, 3]])


def disjoint_union(X: Quandle, Y: Quandle) -> Quandle:
    """X and Y side by side, the points of Y shifted by |X|; each symmetry
    fixes the other side."""
    m = X.n
    return Quandle(
        [list(rx) + list(range(m, m + Y.n)) for rx in X.table]
        + [list(range(m)) + [m + v for v in ry] for ry in Y.table]
    )


def conjugation_quandle(m: int, *cycle_types) -> Quandle:
    """The permutations of S_m with the given cycle types (sorted cycle
    lengths), with s_a(b) = a b a^-1.  A union of conjugacy classes is closed
    under conjugation, so this is a quandle."""
    elements = [p for p in permutations(range(m)) if cycle_lengths(p) in cycle_types]
    index = {p: i for i, p in enumerate(elements)}
    return Quandle(
        [[index[compose(compose(a, b), inverse(a))] for b in elements] for a in elements]
    )


def unchecked(table) -> Quandle:
    """A table of valid shape as a `Quandle` without the axiom check, through
    the private `_trusted=True` path: for tests whose subject is a table that
    breaks the axioms, which `Quandle(table)` refuses."""
    return Quandle(tuple(map(tuple, table)), _trusted=True)


def relabeled(X: Quandle, rng) -> Quandle:
    """X with its points renamed by a permutation shuffled from `rng`; X may
    break the axioms, and so then does its relabelling (see `unchecked`)."""
    relabel = list(range(X.n))
    rng.shuffle(relabel)
    table = [[0] * X.n for _ in range(X.n)]
    for x in range(X.n):
        for y in range(X.n):
            table[relabel[x]][relabel[y]] = relabel[X.table[x][y]]
    return unchecked(table)


def every_table(n: int):
    """Every n x n table with entries in 0..n-1, as a list of row tuples:
    n^(n^2) of them, so 1, 16 and 19,683 for n = 1, 2, 3.  All have a valid
    shape, and all but the labelled quandles break an axiom."""
    for cells in product(range(n), repeat=n * n):
        yield [cells[x * n : (x + 1) * n] for x in range(n)]


def brute_force_automorphisms(X: Quandle) -> list[tuple[int, ...]]:
    """All automorphisms, by scanning the n! bijections in ascending order as
    a tree of prefixes p(0), ..., p(k): a prefix is cut at a cell (x, y)
    with x, y and s_x(y) at most k where p(s_x(y)) != s_p(x)(p(y)), since
    every bijection that extends it fails there too."""
    n, t = X.n, X.table
    cells = [[] for _ in range(n)]  # by the largest point of x, y and s_x(y)
    for x, y in product(range(n), repeat=2):
        cells[max(x, y, t[x][y])].append((x, y))
    found, p = [], []

    def extend(free):
        if p and any(p[t[x][y]] != t[p[x]][p[y]] for x, y in cells[len(p) - 1]):
            return
        if not free:
            found.append(tuple(p))
        for c in sorted(free):
            p.append(c)
            extend(free - {c})
            p.pop()

    extend(set(range(n)))
    return found


def small_corpus() -> list[Quandle]:
    """Assorted small quandles exercising every predicate combination."""
    quandles = [trivial_quandle(n) for n in (1, 2, 3, 4)]
    quandles += [dihedral_quandle(n) for n in range(1, 9)]
    quandles.append(direct_product(dihedral_quandle(3), dihedral_quandle(5)))
    quandles.append(direct_product(dihedral_quandle(3), trivial_quandle(2)))
    quandles.append(affine5())
    quandles.append(pinned_point_quandle())
    return quandles


def connected_affine_quandles(p: int) -> list[Quandle]:
    """Every Aff(A, s): s_x(y) = s(y) + (1 - s)(x), for A = Z_p, Z_{p^2} or
    F_p^2 and s and 1 - s invertible.  These are all the connected quandles
    of orders p and p^2 (Etingof, Soloviev and Guralnick 2001; Grana 2004)."""
    quandles = [
        affine_quandle(n, t) for n in (p, p * p) for t in range(n) if t % p and (1 - t) % p
    ]
    points = list(product(range(p), repeat=2))  # (u, v) is the point u*p + v
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p and ((1 - a) * (1 - d) - b * c) % p:
            quandles.append(Quandle([
                [
                    (a * (y0 - x0) + b * (y1 - x1) + x0) % p * p
                    + (c * (y0 - x0) + d * (y1 - x1) + x1) % p
                    for y0, y1 in points
                ]
                for x0, x1 in points
            ]))
    return quandles


def labelled_quandles_to_order_5() -> list[Quandle]:
    """All 447 labelled quandles of order at most 5, enumerated."""
    quandles = [X for n in range(1, 6) for X in enumerate_quandles(n)]
    assert len(quandles) == 1 + 1 + 5 + 36 + 404
    return quandles


def oracle_corpus() -> list[Quandle]:
    """Inputs on which the fast paths are checked against their definitions:
    all 447 labelled quandles of order at most 5, the transposition quandles
    of S_2..S_7, the connected affine quandles of orders 3, 9, 5 and 25, and one
    seeded relabelling of each representative of odd order at most 105."""
    quandles = labelled_quandles_to_order_5()
    quandles += [transposition_quandle(m) for m in range(2, 8)]
    quandles += connected_affine_quandles(3) + connected_affine_quandles(5)
    rng = random.Random(0)
    quandles += [relabeled(rep, rng) for n in range(1, 106, 2) for rep in build_representatives(n)]
    return quandles
