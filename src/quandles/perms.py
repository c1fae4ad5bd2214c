"""Permutations of {0..n-1} as image tuples, plus fully enumerated groups of them.

Groups at this scale (a few thousand elements on at most a few dozen points)
are enumerated by breadth-first closure; nothing here needs strong generating
sets.  A regular abelian group is not enumerated: a few commuting generators,
kept by `_commuting_walk`, give its orbits by the block rule (`_grow`) and
its torsion counts (`_torsion`).
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter

from .core import ClosureLimitError

Perm = tuple[int, ...]


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


def _power(p: Perm, e: int) -> Perm:
    """p composed with itself e >= 1 times, by repeated squaring; p has
    degree at least 2, since itemgetter of one index returns a bare item."""
    result = None
    while True:
        if e & 1:
            result = p if result is None else itemgetter(*p)(result)
        e >>= 1
        if not e:
            return result
        p = itemgetter(*p)(p)


def _grow(reached: list, seen: set, g: Perm) -> None:
    """The block rule: extend `reached`, the orbit H.b of b = reached[0]
    under an abelian group H, to the orbit of <H, g>, for g commuting with H;
    `seen` holds the points of `reached`.

    <H, g> is the set of the h.g^i, so its orbit is the union of the blocks
    g^i(H.b) = H.g^i(b), each an orbit of H.  Let m be the least i >= 1 with
    g^i(b) in H.b.  Then g^m(H.b) = H.b, so the blocks repeat with period m;
    and for 0 <= i < j < m they are disjoint, since a common point would put
    g^(j-i)(b) in H.b.  So each new block is the image of the last, until its
    first point g^i(b) is one already reached: one lookup per point of the
    orbit, and no element of the group is listed.  While H.b = {b}, the
    blocks are the points of the cycle of b under g, walked one by one.
    """
    if len(reached) == 1:
        y = g[reached[0]]
        while y not in seen:
            seen.add(y)
            reached.append(y)
            y = g[y]
        return
    block = reached
    while True:
        block = [g[y] for y in block]
        if block[0] in seen:
            return
        seen.update(block)
        reached += block


def _commuting_orbit(gens, base: int) -> list[int]:
    """Orbit of `base` under pairwise commuting permutations, by `_grow`."""
    reached = [base]
    seen = {base}
    for g in gens:
        _grow(reached, seen, g)
    return reached


def _commuting_walk(degree: int, base: int, candidate):
    """Generators of a group by the points they send `base` to, kept only
    while they commute.

    Visits x in ascending order while the orbit of `base` under the kept
    generators misses a point.  A reached x is skipped; otherwise g =
    candidate(x) is taken, skipped if g(base) is reached, and else kept,
    once it commutes with every generator kept before it, and the orbit
    grows by `_grow`.  Returns the kept generators and that orbit, or None
    at the first kept generator that does not commute.
    """
    reached, seen, kept, getters = [base], {base}, [], []
    for x in range(degree):
        if len(reached) == degree:
            break
        if x in seen:
            continue
        g = candidate(x)
        if g[base] in seen:
            continue
        times_g = itemgetter(*g)  # degree >= 2 here: x and base are both points
        if any(by(g) != times_g(k) for k, by in zip(kept, getters)):  # g.k != k.g
            return None
        kept.append(g)
        getters.append(times_g)
        _grow(reached, seen, g)
    return kept, reached


def _torsion(gens, base: int, order: int):
    """q -> #{h : h^q = 1} in the regular abelian group H of the given order
    that the commuting `gens` generate.

    h -> h^q is an endomorphism of H, whose image is generated by the g^q.
    H acts regularly, so a subgroup's order is the size of its orbit of
    `base`, read by `_commuting_orbit`; the count is the kernel's order,
    |H| / |<g^q>.base|.  Nothing is listed but points.  The g^q are raised
    from those kept for the largest q asked before that divides q, so p,
    p^2, ... each take a p-th power.  A power fixing `base` is dropped: it
    commutes with the rest, so it fixes their orbit of `base`, as do its
    powers.  It is asked only for q sharing a prime with |H|, so H has the
    2 points `_power` needs.
    """
    powers = {1: gens}

    def count(q):
        r = 1
        for s in powers:
            if q % s == 0 and s > r:
                r = s
        e = q // r
        powers[q] = kept = [h for g in powers[r] if (h := _power(g, e))[base] != base]
        return order // len(_commuting_orbit(kept, base))

    return count


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
    """Generate the group spanned by `generators`: `_close`, with the
    elements sorted into a `PermutationGroup` whose `generators` are the
    kept ones.  `cap` bounds the number of elements, identity included, and
    defaults to degree!, the largest possible order; exceeding it raises
    ClosureLimitError."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    kept, elements = _close(gens, cap)
    return PermutationGroup(len(gens[0]), kept, sorted(elements))


def _close(gens: list, cap: int | None = None) -> tuple[list, set]:
    """The generators kept and the set of elements of the group spanned by
    the non-empty list of tuples `gens`, by breadth-first products; nothing
    is sorted, for callers that need only the order, membership or the
    kept generators.

    A generator already in the group closed so far is skipped, as in Dimino's
    method; the rest, in input order, are checked and kept.  Each at least
    doubles the group, so at most log2 of its order are kept.  Products are
    taken on the right, h -> h after g, by one getter per kept g.  A set
    holding the identity and closed so is the group generated, so the same
    generators are kept as with left products.
    """
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
    return kept, elements


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
