"""Decomposition of flat connected finite quandles into dihedral factors.

Such a quandle is isomorphic to a direct product of dihedral quandles whose
sizes are odd prime powers, namely the primary decomposition of its (abelian)
displacement group.  `classify_flat_connected` gets a few commuting
generators of that group from the flatness check in `analysis`, reads the
factors off its torsion counts, and certifies them by an isomorphism onto the
predicted product.  That Dis acts regularly, so a subgroup's order is the
size of its orbit of 0, which grows by the block rule: #{h : h^q = 1} is n
over the size of the orbit under the q-th powers of the generators, and one
counting rule turns the counts into the factors.  No element of Dis is
listed.  `abelian_invariants` keeps generators from a group's rows by the
same walk and reads them by the same rule.  The product is sliced by
`core._cyclic_table`, which builds every cyclic and dihedral table.
`odd_prime_power_multisets` lists the factorizations of an order in one
recursion, and `predicted_count` and `build_representatives` read off that
list.  Nothing is cached between calls.
"""

from __future__ import annotations

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
    non-flat quandle is an error naming the failed certificate.  Flatness
    comes from `_flat_dis_generators`, which keeps a few commuting
    generators of Dis by a walk over the points: a transitive abelian group
    is regular.  The factors are the primary decomposition of that regular Dis, read by
    `_primary_factors` from its torsion counts: h -> h^q is an endomorphism
    of the abelian Dis with image <g^q : g kept>, so #{h : h^q = 1} = n /
    |<g^q : g kept>.0|, and that orbit grows by the block rule (`_torsion`).
    The isomorphism witness onto the dihedral product P of the factors is
    the one certificate: it is checked on all n^2 pairs, so it also
    certifies that X satisfies the axioms and that the factors are right.
    It is the identity if X's table is P's; else the source paper's theorem
    says that X is isomorphic to P, so the search is told so and takes the
    profile heads only (see `isomorphism._isomorphisms`): on this connected
    pair its candidates, and so its witness, are those of
    `find_isomorphism`.
    """
    from . import analysis, isomorphism, perms

    if not analysis.is_connected(X):
        raise ClassificationError("not-connected", f"order-{X.n} quandle is disconnected")
    gens = analysis._flat_dis_generators(X)
    if gens is None:
        raise ClassificationError("not-flat", f"order-{X.n} quandle has a non-commutative displacement group")
    factors = _primary_factors(X.n, perms._torsion(gens, 0, X.n))
    P = _dihedral_product(factors)
    if X.table == P.table:
        return FlatDecomposition(factors, tuple(range(X.n)))
    witness = next(isomorphism._isomorphisms(X, P, isomorphic=True)(), None)
    if witness is None or not _preserves(witness, X.table, P.table):
        raise TheoremViolationError(
            f"no isomorphism onto the dihedral product {factors}: {X.table}"
        )
    return FlatDecomposition(factors, witness)
