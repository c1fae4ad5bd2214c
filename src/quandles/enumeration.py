"""Exhaustive enumeration of small quandles by row-wise backtracking.

Rows are assigned in index order; candidates for row x are the permutations
fixing x, tried in lexicographic order, so the stream of complete tables is
lexicographic and identical across runs.  The third axiom is used in the form

    s_{s_x(y)} = s_x . s_y . s_x^-1

which both checks assigned rows and *forces* not-yet-assigned rows: as soon
as rows x and y are placed, the row at s_x(y) is pinned to their conjugation.
Most of the search tree collapses under this forcing; the hard cap on the
order exists because the candidate space still grows like (n-1)!^n.
"""

from __future__ import annotations

from itertools import permutations

from .analysis import is_connected, is_flat
from .core import BudgetExceededError, Quandle
from .isomorphism import find_isomorphism

DEFAULT_MAX_ORDER = 6


class OrderCapError(ValueError):
    """Requested order exceeds the configured enumeration cap."""


def _row_candidates(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """For each x, all permutations fixing x, in lexicographic order: the
    permutations of the other points come in that order, and inserting x at
    index x keeps it."""
    return [
        tuple(p[:x] + (x,) + p[x:] for p in permutations([i for i in range(n) if i != x]))
        for x in range(n)
    ]


def enumerate_quandles(n: int, budget: int | None = None, max_order: int | None = None):
    """Yield every quandle table of order n exactly once, lexicographically.

    `budget` bounds the number of row assignments tried; exhausting it raises
    BudgetExceededError mid-stream.  Orders above `max_order` (default 6) are
    refused up front: the search is exponential and larger orders are the
    domain of specialized census methods.  Candidates fix x and every placed
    pair checks or forces the third axiom, so tables are not checked again.
    """
    if n < 1:
        raise ValueError("order must be positive")
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    if n > cap:
        raise OrderCapError(
            f"order {n} exceeds the enumeration cap of {cap}; "
            f"pass a larger max_order to override"
        )
    candidates = _row_candidates(n)
    rows: list = [None] * n
    forced: list = [None] * n
    nodes = 0
    rng = range(n)

    def conjugate(p, q):
        # p . q . p^-1 without materializing the inverse
        out = [0] * n
        for i in rng:
            out[p[i]] = p[q[i]]
        return tuple(out)

    def assign(k: int):
        nonlocal nodes
        if k == n:
            yield Quandle(tuple(rows), _trusted=True)
            return
        pool = (forced[k],) if forced[k] is not None else candidates[k]
        for cand in pool:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(
                    f"enumeration budget of {budget} nodes exhausted at order {n}"
                )
            rows[k] = cand
            ok = True
            recorded = []
            for a in range(k):
                for x, y in ((a, k), (k, a)):
                    w = rows[x][y]
                    conj = conjugate(rows[x], rows[y])
                    if w <= k:
                        if rows[w] != conj:
                            ok = False
                            break
                    elif forced[w] is None:
                        forced[w] = conj
                        recorded.append(w)
                    elif forced[w] != conj:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield from assign(k + 1)
            for w in recorded:
                forced[w] = None
            rows[k] = None

    yield from assign(0)


def enumerate_flat_connected_classes(
    n: int, budget: int | None = None, max_order: int | None = None
) -> list[Quandle]:
    """Isomorphism-class representatives of the flat connected quandles of order n.

    The stream is filtered by connectivity and flatness and deduplicated by
    pairwise isomorphism search; because the stream is lexicographic, each
    class is represented by its lexicographically smallest table.
    """
    reps: list[Quandle] = []
    for X in enumerate_quandles(n, budget, max_order):
        if not is_connected(X) or not is_flat(X):
            continue
        if all(find_isomorphism(X, rep) is None for rep in reps):
            reps.append(X)
    return reps
