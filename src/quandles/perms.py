"""Permutations of {0..n-1} as image tuples, plus fully enumerated groups of them.

Groups at this scale (a few thousand elements on at most a few dozen points)
are enumerated by breadth-first closure; nothing here needs strong generating
sets.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter

Perm = tuple[int, ...]


class ClosureLimitError(RuntimeError):
    """Closure grew past the configured element cap."""


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(images, degree: int) -> bool:
    """True if `images` lists every index in {0..degree-1} exactly once, as ints."""
    ints = all(type(v) is int for v in images)
    return ints and len(images) == degree and sorted(images) == list(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the permutation i -> p[q[i]]."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    if len(q) < 2:  # itemgetter of one index returns a bare item, not a tuple
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycle_lengths(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths of p, fixed points included."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _regular_orders(perms, base: int) -> list[int]:
    """Element orders of a regular group listed as perms[x], the element
    sending `base` to x, returned in the same order.  The k-th point of the
    walk of g from `base` names g^k, of order L / gcd(k, L) for the walk's
    length L: one walk per cyclic subgroup, not one per element (up to n^2)."""
    orders = [0] * len(perms)
    for x, g in enumerate(perms):
        if orders[x]:
            continue
        walk, y = [base], g[base]
        while y != base:
            walk.append(y)
            y = g[y]
        length = len(walk)
        for k, y in enumerate(walk):
            orders[y] = length // math.gcd(k, length)
    return orders


def perm_order(p: Perm) -> int:
    return math.lcm(*cycle_lengths(p))


class PermutationGroup:
    """A finite permutation group with its generating set and full element list.

    `generators` generate `elements`; from `closure` they are the kept subset
    (none for the trivial group).  `elements` is closed under composition and
    inversion, contains the identity, and is sorted lexicographically so that
    equal groups always enumerate identically.
    """

    __slots__ = ("degree", "generators", "elements", "_members")

    def __init__(self, degree: int, generators, elements):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        self.elements = tuple(tuple(e) for e in elements)
        self._members = frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={len(self.elements)})"


def closure(generators, cap: int | None = None) -> PermutationGroup:
    """Generate the group spanned by `generators` by breadth-first products.

    A generator already in the group closed so far is skipped, as in Dimino's
    method; the rest, in input order, are checked and kept as `generators`.
    Each at least doubles the group, so at most log2 of its order are kept.
    Products are taken on the right, h -> h after g, by one getter per kept g.
    A set holding the identity and closed so is the group generated, so the
    same generators are kept as with left products.
    `cap` bounds the number of elements, identity included, and defaults to
    degree!, the largest possible order; exceeding it raises ClosureLimitError.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    degree = len(gens[0])
    if cap is None:
        cap = math.factorial(degree)
    elif cap < 1:  # the identity alone exceeds it
        raise ClosureLimitError(f"closure exceeded cap of {cap} elements")
    elements = {identity_perm(degree)}
    kept: list[Perm] = []
    times: list = []  # times[i](h) = h after kept[i]
    for g in gens:
        if g in elements:  # so no kept generator has degree below 2
            continue
        if not is_perm(g, degree):
            raise ValueError(f"not a permutation of degree {degree}: {g}")
        kept.append(g)
        times.append(itemgetter(*g))
        # Every element was already multiplied by the earlier generators; only
        # g is new to them.  Elements found from here on need every generator.
        frontier = list(elements)
        step = times[-1:]
        while frontier:
            new = []
            for h in frontier:
                for by in step:
                    p = by(h)
                    if p not in elements:
                        elements.add(p)
                        if len(elements) > cap:
                            raise ClosureLimitError(
                                f"closure exceeded cap of {cap} elements"
                            )
                        new.append(p)
            frontier = new
            step = times
    return PermutationGroup(degree, kept, sorted(elements))


def orbit(generators, point: int) -> set[int]:
    """Smallest generator-stable set of points containing `point`; the
    search stops as soon as it holds every point."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return {point}
    degree = len(gens[0])
    if not 0 <= point < degree:
        raise ValueError(f"point {point} out of range for degree {degree}")
    seen = {point}
    stack = [point]
    while stack and len(seen) < degree:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def is_transitive(group: PermutationGroup) -> bool:
    return len(orbit(group.generators, 0)) == group.degree


def _commute(perms) -> bool:
    """True iff the permutations commute pairwise."""
    return all(compose(g, h) == compose(h, g) for g, h in combinations(perms, 2))


def is_abelian(group: PermutationGroup) -> bool:
    # Generators commuting pairwise is enough: they generate everything.
    return _commute(group.generators)


def stabilizer(group: PermutationGroup, point: int) -> PermutationGroup:
    """Subgroup of elements fixing `point`, with its full element set as generators."""
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} out of range for degree {group.degree}")
    fixed = tuple(p for p in group.elements if p[point] == point)
    return PermutationGroup(group.degree, fixed, fixed)


def group_to_obj(group: PermutationGroup) -> dict:
    """JSON form: permutations as image arrays, groups by their generators."""
    return {
        "degree": group.degree,
        "generators": [list(g) for g in group.generators],
    }


def group_from_obj(obj) -> PermutationGroup:
    if not isinstance(obj, dict) or "degree" not in obj or "generators" not in obj:
        raise ValueError("expected an object with 'degree' and 'generators'")
    degree, gens = obj["degree"], obj["generators"]
    if type(degree) is not int or degree < 0 or not isinstance(gens, list):
        raise ValueError("expected a non-negative int 'degree' and a list 'generators'")
    for g in gens:
        if not isinstance(g, (list, tuple)) or not is_perm(g, degree):
            raise ValueError(f"not a permutation of degree {degree}: {g!r}")
    if not gens:
        gens = [identity_perm(degree)]
    return closure(gens)
