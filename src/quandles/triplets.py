"""Finite groups as multiplication tables, and quandle triplets (G, K, sigma).

A triplet is a finite group G, a subgroup K, and a group automorphism sigma
fixing K pointwise.  It defines a quandle on the left cosets G/K:

    s_[g]([h]) = [g * sigma(g^-1 * h)]

Every homogeneous quandle arises this way; connected quandles arise with G the
displacement group, K the stabilizer of a basepoint, and sigma conjugation by
the symmetry there.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .analysis import _displacement_generators
from .core import Quandle, _check_shape, _cyclic_table, _generators, _preserves, _product_table
from .perms import PermutationGroup, closure, compose, inverse, is_perm, orbit, perm_order

# The derivation builds the |G|^2 table of G; at 2,520 elements that takes
# about 11 s, so the default group is closed with this cap.
_GROUP_CAP = 1000


def _first_index(seq, value, accept) -> int:
    """The first i with seq[i] == value and accept(i), or -1: each candidate
    is found by a C-speed `index` scan, and a group table has one per line."""
    i = -1
    try:
        while True:
            i = seq.index(value, i + 1)
            if accept(i):
                return i
    except ValueError:
        return -1


class FiniteGroup:
    """A finite group given by its m x m multiplication table.

    The identity and inverse maps are derived on construction.  The public
    constructor first puts the table through the same shape check as a
    quandle table, and afterwards checks associativity a whole row pair at a
    time: a(bc) = (ab)c for every c says that row a after row b is row ab.
    By Light's test this is needed only for b in the generating set of
    `core._generators`, whose products give every element: the b for which
    it holds for every a are closed under products, since
    a((bb')c) = a(b(b'c)) = (ab)(b'c) = ((ab)b')c = (a(bb'))c.
    If it fails, every pair is checked, and the cells are read only to name
    the first failing (a, b, c).  Internal
    builders (cyclic, direct, from_permutations) pass `_trusted=True` and
    skip both checks, as the `Quandle` builders do: their rows must already
    be a tuple of m tuples of ints in 0..m-1 that is associative.
    """

    __slots__ = ("order", "mul", "identity", "inv")

    def __init__(self, mul, *, _trusted: bool = False):
        rows = mul if _trusted else _check_shape(mul)
        m = len(rows)
        ident = tuple(range(m))
        identity = _first_index(rows, ident, lambda e: tuple(map(itemgetter(e), rows)) == ident)
        if identity < 0:
            raise ValueError("table has no identity element")
        inv = []
        for g, row in enumerate(rows):
            inv.append(_first_index(row, identity, lambda h: rows[h][g] == identity))
            if inv[g] < 0:
                raise ValueError(f"element {g} has no inverse")
        if not _trusted and not all(
            compose(ra, rows[b]) == rows[ra[b]] for b in _generators(rows) for ra in rows
        ):
            for a, ra in enumerate(rows):
                for b, rb in enumerate(rows):
                    rab = rows[ra[b]]
                    if compose(ra, rb) != rab:
                        c = next(c for c in range(m) if rab[c] != ra[rb[c]])
                        raise ValueError(f"not associative at ({a},{b},{c})")
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "mul", rows)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inv", tuple(inv))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    def __hash__(self) -> int:
        return hash(self.mul)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        """Z_n: row i is `_cyclic_table`'s slice from i of 0, ..., n-1 run twice."""
        if n < 1:
            raise ValueError("group order must be positive")
        return cls(_cyclic_table((n,), reflect=False), _trusted=True)

    @classmethod
    def direct(cls, G: "FiniteGroup", H: "FiniteGroup") -> "FiniteGroup":
        """Product group on pairs flattened row-major: (a, b) -> a*|H| + b."""
        return cls(_product_table(G.mul, H.mul), _trusted=True)

    @classmethod
    def from_permutations(cls, perms) -> "FiniteGroup":
        """Abstract table of a permutation group, elements sorted lexicographically.

        The same element set always yields the identical table.
        """
        return _indexed_group(perms)[2]


def _indexed_group(perms):
    """(elements sorted lexicographically, the index of each, their abstract group)."""
    elements = tuple(sorted(tuple(p) for p in perms))
    if not elements:
        raise ValueError("empty table: at least one element is required")
    index = {p: i for i, p in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate permutations")
    table = []
    for p in elements:
        row = []
        for q in elements:
            r = compose(p, q)
            if r not in index:
                raise ValueError("permutation set is not closed under composition")
            row.append(index[r])
        table.append(tuple(row))
    return elements, index, FiniteGroup(tuple(table), _trusted=True)


def element_order(G: FiniteGroup, g: int) -> int:
    """The order of g: row g maps h to gh, so every cycle of the row has length ord(g)."""
    return perm_order(G.mul[g])


def is_abelian_group(G: FiniteGroup) -> bool:
    return G.mul == tuple(zip(*G.mul))


def is_subgroup(G: FiniteGroup, indices) -> bool:
    sub = set(indices)
    if not sub or not sub <= set(range(G.order)):
        return False
    if G.identity not in sub:
        return False
    return all(
        G.mul[a][b] in sub for a in sub for b in sub
    ) and all(G.inv[a] in sub for a in sub)


def is_group_automorphism(G: FiniteGroup, mapping) -> bool:
    m = tuple(mapping)
    return is_perm(m, G.order) and _preserves(m, G.mul, G.mul)


def negation_map(G: FiniteGroup) -> tuple[int, ...]:
    """g -> g^-1; an automorphism exactly when G is abelian."""
    return G.inv


def fix_set(sigma, G: FiniteGroup) -> tuple[int, ...]:
    """Indices fixed by sigma, ascending."""
    m = tuple(sigma)
    if len(m) != G.order:
        raise ValueError(f"map has length {len(m)}, expected {G.order}")
    return tuple(g for g in range(G.order) if m[g] == g)


class TripletViolation(NamedTuple):
    kind: str  # "subgroup" | "automorphism" | "fixed-subgroup"
    witness: tuple[int, ...]


def validate_triplet(G: FiniteGroup, subgroup, sigma) -> list[TripletViolation]:
    """Axiom-level verdict for (G, K, sigma); structural nonsense raises instead."""
    K = tuple(subgroup)
    sig = tuple(sigma)
    if not all(type(k) is int and 0 <= k < G.order for k in K) or len(set(K)) != len(K):
        raise ValueError("subgroup must be a set of element indices")
    if len(sig) != G.order or not all(type(v) is int and 0 <= v < G.order for v in sig):
        raise ValueError("sigma must map each element index to an element index")
    violations = []
    if not is_subgroup(G, K):
        violations.append(TripletViolation("subgroup", K))
    if not is_group_automorphism(G, sig):
        violations.append(TripletViolation("automorphism", sig))
    else:
        fixed = set(fix_set(sig, G))
        for k in K:
            if k not in fixed:
                violations.append(TripletViolation("fixed-subgroup", (k,)))
    return violations


class InvalidTripletError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        detail = ", ".join(v.kind for v in self.violations)
        super().__init__(f"not a quandle triplet: {detail}")


class _Triplet(NamedTuple):
    group: FiniteGroup
    subgroup: tuple[int, ...]
    sigma: tuple[int, ...]


class QuandleTriplet(_Triplet):
    """A validated (G, K, sigma); constructing one re-checks the axioms."""

    __slots__ = ()

    def __new__(cls, group, subgroup, sigma):
        # Validate first: sorting would raise TypeError on mixed entries.
        violations = validate_triplet(group, subgroup, sigma)
        if violations:
            raise InvalidTripletError(violations)
        return super().__new__(cls, group, tuple(sorted(subgroup)), tuple(sigma))


def abelian_negation_triplet(factors) -> QuandleTriplet:
    """(Z_q1 x ... x Z_qk, {0}, negation); with no factors, the one-element triplet."""
    factors = tuple(factors)
    if any(q < 1 for q in factors):
        raise ValueError("group order must be positive")
    G = FiniteGroup(_cyclic_table(factors, reflect=False), _trusted=True)
    return QuandleTriplet(G, (G.identity,), negation_map(G))


class CosetQuandle(NamedTuple):
    quandle: Quandle
    representatives: tuple[int, ...]


def quandle_from_triplet(triplet: QuandleTriplet) -> CosetQuandle:
    """The quandle on G/K with s_[g]([h]) = [g * sigma(g^-1 * h)].

    Cosets are labeled by their smallest member and listed in ascending order
    of that representative.  The table satisfies the axioms by construction
    and is not re-validated.
    """
    G = triplet.group
    mul, inv, sig = G.mul, G.inv, triplet.sigma
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] == -1:
            idx = len(reps)
            reps.append(g)
            for k in triplet.subgroup:
                coset_of[mul[g][k]] = idx
    table = tuple(
        tuple(coset_of[mul[g][sig[mul[inv[g]][h]]]] for h in reps) for g in reps
    )
    return CosetQuandle(Quandle(table, _trusted=True), tuple(reps))


class DerivedTriplet(NamedTuple):
    """Triplet extracted from a quandle and a group of its automorphisms.

    `elements` lists the permutations in abstract-index order; `witness`, when
    present, maps the coset quandle of `triplet` onto the original quandle by
    [g] -> g(basepoint).
    """

    triplet: QuandleTriplet
    elements: tuple[tuple[int, ...], ...]
    basepoint: int
    witness: tuple[int, ...] | None


def triplet_from_quandle(
    X: Quandle,
    basepoint: int = 0,
    group: PermutationGroup | None = None,
    *,
    with_witness: bool = True,
) -> DerivedTriplet:
    """Derive (G, G_x, conjugation-by-s_x) from a symmetry-stable group G.

    `group` defaults to the displacement group, closed with a cap of
    `_GROUP_CAP` elements; a larger one raises ClosureLimitError.  A group
    passed in is not capped.  Every generator is verified to be a quandle
    automorphism, which makes every element one, and the conjugation
    s_x g s_x^-1 is verified to land back in the group.  When the
    group acts transitively the returned witness is checked to be an
    isomorphism from the coset quandle onto X; requesting a witness from an
    intransitive group is an error.
    """
    if group is None:
        group = closure(_displacement_generators(X), cap=_GROUP_CAP)
    if group.degree != X.n:
        raise ValueError(f"group degree {group.degree} does not match |X| = {X.n}")
    if not 0 <= basepoint < X.n:
        raise ValueError(f"basepoint {basepoint} out of range")
    xt = X.table
    for p in group.generators:
        if not _preserves(p, xt, xt):
            raise ValueError(f"group element {p} is not a quandle automorphism")
    sx = xt[basepoint]
    sx_inv = inverse(sx)
    elements, index, G = _indexed_group(group.elements)
    sigma = []
    for p in elements:
        conj = compose(sx, compose(p, sx_inv))
        if conj not in index:
            raise ValueError(
                "conjugation by the basepoint symmetry does not stabilize the group"
            )
        sigma.append(index[conj])
    K = tuple(i for i, p in enumerate(elements) if p[basepoint] == basepoint)
    triplet = QuandleTriplet(G, K, tuple(sigma))
    witness = None
    if with_witness:
        if len(orbit(group.generators, basepoint)) != X.n:
            raise ValueError(
                "group does not act transitively: no isomorphism witness exists"
            )
        coset = quandle_from_triplet(triplet)
        witness = tuple(elements[g][basepoint] for g in coset.representatives)
        if len(set(witness)) != X.n or not _preserves(
            witness, coset.quandle.table, X.table
        ):  # pragma: no cover - construction bug guard
            raise RuntimeError("derived coset map failed to be an isomorphism")
    return DerivedTriplet(triplet, elements, basepoint, witness)


def triplet_product(T1: QuandleTriplet, T2: QuandleTriplet) -> QuandleTriplet:
    """Componentwise triplet on the product group, indices flattened row-major."""
    G = FiniteGroup.direct(T1.group, T2.group)
    m2 = T2.group.order
    subgroup = tuple(
        sorted(a * m2 + b for a in T1.subgroup for b in T2.subgroup)
    )
    sigma = tuple(
        T1.sigma[a] * m2 + T2.sigma[b]
        for a in range(T1.group.order)
        for b in range(m2)
    )
    return QuandleTriplet(G, subgroup, sigma)


def phi_map(triplet: QuandleTriplet) -> tuple[tuple[int, ...], bool]:
    """The endomorphism g -> g * sigma(g^-1) and whether it is surjective.

    Requires the trivial subgroup, a commutative group, and involutive sigma;
    under those hypotheses surjectivity decides connectivity of the coset
    quandle.
    """
    G = triplet.group
    if triplet.subgroup != (G.identity,):
        raise ValueError("phi requires the trivial subgroup")
    if not is_abelian_group(G):
        raise ValueError("phi requires a commutative group")
    sig = triplet.sigma
    if any(sig[sig[g]] != g for g in range(G.order)):
        raise ValueError("phi requires an involutive automorphism")
    phi = tuple(G.mul[g][sig[G.inv[g]]] for g in range(G.order))
    return phi, len(set(phi)) == G.order


# ---------------------------------------------------------------------------
# Serialization.  Full form: {"order": m, "mul": [[...]], "K": [...],
# "sigma": [...]}.  Abelian shorthand: {"cyclic_factors": [q1, ...],
# "K": "trivial", "sigma": "negation"}.
# ---------------------------------------------------------------------------


def triplet_to_obj(triplet: QuandleTriplet) -> dict:
    return {
        "order": triplet.group.order,
        "mul": [list(row) for row in triplet.group.mul],
        "K": list(triplet.subgroup),
        "sigma": list(triplet.sigma),
    }


def parse_triplet(obj) -> QuandleTriplet:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object describing a triplet")
    if "cyclic_factors" in obj:
        factors = obj["cyclic_factors"]
        if not isinstance(factors, list) or not all(type(q) is int and q >= 1 for q in factors):
            raise ValueError("'cyclic_factors' must be a list of positive integers")
        if obj.get("K", "trivial") != "trivial":
            raise ValueError("shorthand triplets only support K = \"trivial\"")
        if obj.get("sigma", "negation") != "negation":
            raise ValueError("shorthand triplets only support sigma = \"negation\"")
        return abelian_negation_triplet(factors)
    for key in ("mul", "K", "sigma"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    mul = obj["mul"]
    if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
        raise ValueError("'mul' must be a list of lists")
    for key in ("K", "sigma"):
        if not isinstance(obj[key], list):
            raise ValueError(f"{key!r} must be a list")
    G = FiniteGroup(mul)
    if "order" in obj and (type(obj["order"]) is not int or obj["order"] != G.order):
        raise ValueError(f"'order' is {obj['order']!r} but table has {G.order} rows")
    return QuandleTriplet(G, tuple(obj["K"]), tuple(obj["sigma"]))
