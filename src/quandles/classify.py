"""Decomposition of flat connected finite quandles into dihedral factors.

Such a quandle is isomorphic to a direct product of dihedral quandles whose
sizes are odd prime powers, namely the primary decomposition of its (abelian)
displacement group.  `classify_flat_connected` gets a few commuting
generators of that group from the flatness walk in `perms`, reads the
factors off its torsion counts, and certifies them by an isomorphism onto the
predicted product, read off a basis of Dis: such a quandle is the Takasaki
quandle s_x(y) = 2x - y of its Dis, so the coordinate map, which labels each
point by its coordinates in a basis with one element per factor, carries it
onto the product of the R_q, and nothing is searched.  That Dis acts
regularly, so a subgroup's order is the size of its orbit of 0, which
grows by the block rule: #{h : h^q = 1} is n over the size of the orbit
under the q-th powers of the generators, and one counting rule turns the
counts into the factors.  No element of Dis is listed.
`abelian_invariants` keeps generators from a group's rows by the same walk
and reads them by the same rule.  The product is sliced by
`core._cyclic_table`, which builds every cyclic and dihedral table.
`odd_prime_power_multisets` lists the factorizations of an order in one
recursion, and `predicted_count` and `build_representatives` read off that
list.  Nothing is cached between calls.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .core import Quandle, _cyclic_table, _preserves

if TYPE_CHECKING:
    from .triplets import FiniteGroup


class ClassificationError(Exception):
    """A required certificate (connectivity, flatness) failed."""

    def __init__(self, certificate: str, message: str):
        self.certificate = certificate
        super().__init__(f"{certificate}: {message}")


class TheoremViolationError(RuntimeError):
    """No isomorphism witness onto the dihedral product read off Dis.

    For a flat connected quandle this cannot happen with a correct
    implementation.  The message carries the offending table so the failure
    can be reproduced.
    """


class FlatDecomposition(NamedTuple):
    """Odd prime-power factors and a bijection onto the dihedral product."""

    factors: tuple[int, ...]
    witness: tuple[int, ...]


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def odd_prime_power_multisets(n: int) -> list[tuple[int, ...]]:
    """Multisets of odd prime powers with product n, factors descending.

    One walk over the odd prime powers dividing n, largest first, where each
    step takes a factor no larger than the last: the multisets come out in
    descending lexicographic order.  Even n has none, and n = 1 has exactly
    the empty multiset.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n % 2 == 0:
        return []
    powers = [p**e for p, a in _factorize(n).items() for e in range(1, a + 1)]
    powers.sort(reverse=True)
    out = []

    def extend(rest, start, prefix):
        if rest == 1:
            out.append(prefix)
            return
        for i in range(start, len(powers)):
            if rest % powers[i] == 0:
                extend(rest // powers[i], i, prefix + (powers[i],))

    extend(n, 0, ())
    return out


def predicted_count(n: int) -> int:
    """Number of isomorphism classes of flat connected quandles of order n.

    This is the product of p(a), the partitions of each exponent a of an odd
    n, read off as the length of the list of multisets.
    """
    return len(odd_prime_power_multisets(n))


def _dihedral_product(factors) -> Quandle:
    """R_k1 x ... x R_kr, sliced by `_cyclic_table`; () gives the singleton."""
    return Quandle(_cyclic_table(factors, reflect=True), _trusted=True)


def build_representatives(n: int) -> list[Quandle]:
    """One dihedral product per odd-prime-power multiset with product n,
    each built by `_dihedral_product` in the order the multisets are listed."""
    return [_dihedral_product(ms) for ms in odd_prime_power_multisets(n)]


def _primary_factors(order: int, torsion) -> tuple[int, ...]:
    """Primary decomposition of an abelian group of the given order, as
    descending prime powers, from its torsion counts torsion(q) = #{g : g^q
    = 1}.

    For each p^a exactly dividing the order, c_k = log_p torsion(p^k) is the
    sum of min(k, e) over the cyclic factors Z_{p^e}, so (c_k - c_{k-1}) -
    (c_{k+1} - c_k) of them have order p^k.  c_0 = 0, and c_k = a for k >= a,
    since the g with g^(p^a) = 1 form the Sylow p-subgroup: only the counts
    for 0 < k < a are asked for.
    """
    factors = []
    for p, a in _factorize(order).items():
        c = [0]
        for k in range(1, a):
            count, e = torsion(p**k), 0
            while e < a and p ** (e + 1) <= count:
                e += 1
            c.append(e)
        c += [a, a]
        for k in range(1, a + 1):
            factors += [p**k] * (2 * c[k] - c[k - 1] - c[k + 1])
    return tuple(sorted(factors, reverse=True))


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Primary decomposition of an abelian group, as descending prime powers.

    The rows of G.mul are the regular action of G, row g sending the
    identity to g, so `_commuting_walk` keeps a few rows that generate G and
    `_torsion` counts from them.  The kept rows commute pairwise exactly when
    G, which they generate, is abelian: the walk stops at the first pair
    that does not.
    """
    from . import perms

    walk = perms._commuting_walk(G.order, G.identity, G.mul.__getitem__)
    if walk is None:
        raise ValueError("group is not abelian")
    return _primary_factors(G.order, perms._torsion(walk[0], G.identity, G.order))


def classify_flat_connected(X: Quandle) -> FlatDecomposition:
    """Decompose a flat connected quandle into odd-prime-power dihedral factors.

    Connectivity and flatness are verified, not assumed: a disconnected or
    non-flat quandle is an error naming the failed certificate.  Both come
    from `perms._flat_dis_generators`, which keeps a few commuting
    generators of Dis by a walk over the points and succeeds exactly when X
    is connected and Dis abelian: a transitive abelian group is regular.
    Only a failed walk computes the orbit of the rows, to name the
    certificate: not-connected if it misses a point, else not-flat, the
    names that checking connectivity first gave.  The factors are the
    primary decomposition of that regular Dis, read by
    `_primary_factors` from its torsion counts: h -> h^q is an endomorphism
    of the abelian Dis with image <g^q : g kept>, so #{h : h^q = 1} = n /
    |<g^q : g kept>.0|, and that orbit grows by the block rule (`_torsion`).
    The isomorphism witness onto the dihedral product P of the factors is
    the one certificate: it is checked on all n^2 pairs, so it also
    certifies that X satisfies the axioms and that the factors are right.

    The witness is the identity if X's table is P's.  Else it is the
    coordinate map, read off a basis of Dis with one element per factor, in
    the order of the factors; nothing is searched.  Column 0 is a bijection,
    x -> s_x(0) = 2x, so g_z = s_x . s_0 with s_x(0) = z is the element of
    Dis that sends 0 to z.  For each q = p^e the basis takes the least z
    outside the span S so far such that g_z has order q, the length of the
    cycle of 0, and g_z^(q/p)(0) is outside S; S grows by the block rule
    (`perms._grow`), which walks its first generator fastest.  So the orbit
    of 0 under the basis, last element first, lists the points row-major,
    as `core._cyclic_table` labels P, and the witness, that list's inverse,
    sends 0 to 0.

    Why each step finds an element: by induction S is a direct summand of
    Dis, and its complement C = Dis/S has the factors not yet taken.  They
    come largest first within each prime, so q is the exponent of the
    p-part of C, and a generator of a factor Z_q of C qualifies.  Any b
    that qualifies meets S only in 0, since b^(q/p) spans the least nonzero
    subgroup of the cyclic p-group <b>.  So b has order q in Dis/S, and as q
    is the p-exponent there, its image spans a summand: S + <b> is again a
    direct summand of Dis.

    Why the witness is an isomorphism: s_0 inverts the abelian Dis and s_x =
    g_x s_0 g_x^-1, so s_x(y) = g_x^2 g_y^-1(0), and any isomorphism of Dis
    onto Z_q1 + ... + Z_qr carries that rule to s_x(y) = 2x - y, the rule of
    P.  X is the Takasaki quandle of Dis (M. Takasaki, Tohoku Math. J. 49
    (1943)).
    """
    from . import perms

    n, rows = X.n, X.table
    gens = perms._flat_dis_generators(X)
    if gens is None:
        from .analysis import is_connected

        if not is_connected(X):
            raise ClassificationError("not-connected", f"order-{n} quandle is disconnected")
        raise ClassificationError(
            "not-flat", f"order-{n} quandle has a non-commutative displacement group"
        )
    factors = _primary_factors(n, perms._torsion(gens, 0, n))
    P = _dihedral_product(factors)
    if rows == P.table:
        return FlatDecomposition(factors, tuple(range(n)))
    times_s0 = itemgetter(*rows[0])
    at = [0] * n  # at[z] = the x with s_x(0) = z
    for x, row in enumerate(rows):
        at[row[0]] = x
    basis, reached, seen = [], [0], {0}
    for q in factors:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        for z in range(n):
            if z in seen:
                continue
            g = times_s0(rows[at[z]])
            cycle, y = [0], g[0]
            while y and len(cycle) <= q:  # the cycle of 0, cut at q + 1 points
                cycle.append(y)
                y = g[y]
            if len(cycle) == q and cycle[q // p] not in seen:
                basis.append(g)
                perms._grow(reached, seen, g)
                break
    points = perms._commuting_orbit(basis[::-1], 0)
    witness = perms.inverse(points) if len(points) == n else None
    if witness is None or not _preserves(witness, rows, P.table):
        raise TheoremViolationError(
            f"no isomorphism onto the dihedral product {factors}: {X.table}"
        )
    return FlatDecomposition(factors, witness)
