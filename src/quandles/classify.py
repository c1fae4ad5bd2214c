"""Decomposition of flat connected finite quandles into dihedral factors.

Such a quandle is isomorphic to a direct product of dihedral quandles whose
sizes are odd prime powers, namely the primary decomposition of its (abelian)
displacement group.  `classify_flat_connected` gets that group from the
flatness check in `analysis`, reads the factors off its element orders, and
certifies them by an isomorphism onto the predicted product.  That Dis acts
regularly, so its element sending 0 to x is named by x, and the orders come
from one walk from 0 per cyclic subgroup.  `predicted_count` and
`build_representatives` enumerate the factorizations per order.  Nothing is
cached between calls.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as iter_product
from typing import NamedTuple

from .analysis import _flat_connected_dis, is_connected
from .core import Quandle, dihedral_quandle, direct_product, trivial_quandle
from .isomorphism import find_isomorphism
from .perms import _regular_orders
from .triplets import FiniteGroup, is_abelian_group


class ClassificationError(Exception):
    """A required certificate (connectivity, flatness) failed."""

    def __init__(self, certificate: str, message: str):
        self.certificate = certificate
        super().__init__(f"{certificate}: {message}")


class TheoremViolationError(RuntimeError):
    """Dis is not regular, or no isomorphism witness onto the dihedral
    product read off it.

    For a flat connected quandle neither can happen with a correct
    implementation.  It is also how a table that breaks the axioms can fail,
    since `Quandle` checks only the shape and no isomorphism witness exists
    for it.  The message carries the offending table so the failure can be
    reproduced.
    """


class FlatDecomposition(NamedTuple):
    """Odd prime-power factors and a bijection onto the dihedral product."""

    factors: tuple[int, ...]
    witness: tuple[int, ...]


def _partition_count(k: int) -> int:
    """Number of integer partitions of k."""
    counts = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            counts[total] += counts[total - part]
    return counts[k]


def _partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k as descending tuples, in descending lex order."""
    if k == 0:
        return [()]
    out = []

    def extend(remaining, bound, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(bound, remaining), 0, -1):
            prefix.append(part)
            extend(remaining - part, part, prefix)
            prefix.pop()

    extend(k, k, [])
    return out


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

    Multisets are listed in descending lexicographic order; even n has none,
    and n = 1 has exactly the empty multiset.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [()]
    if n % 2 == 0:
        return []
    per_prime = []
    for p, a in sorted(_factorize(n).items()):
        per_prime.append([tuple(p**e for e in part) for part in _partitions(a)])
    multisets = []
    for combo in iter_product(*per_prime):
        merged = tuple(sorted((q for group in combo for q in group), reverse=True))
        multisets.append(merged)
    multisets.sort(reverse=True)
    return multisets


def predicted_count(n: int) -> int:
    """Number of isomorphism classes of flat connected quandles of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return 1
    if n % 2 == 0:
        return 0
    count = 1
    for a in _factorize(n).values():
        count *= _partition_count(a)
    return count


def _dihedral_product(factors) -> Quandle:
    """Product of dihedral quandles, folded from the first factor (T_1 x Y
    would only copy Y cell by cell); the empty product is the singleton."""
    if not factors:
        return trivial_quandle(1)
    return reduce(direct_product, map(dihedral_quandle, factors))


def build_representatives(n: int) -> list[Quandle]:
    """One dihedral product per odd-prime-power multiset with product n,
    each built by `_dihedral_product` in the order the multisets are listed."""
    return [_dihedral_product(ms) for ms in odd_prime_power_multisets(n)]


def _primary_factors(orders) -> tuple[int, ...]:
    """Primary decomposition of an abelian group, as descending prime powers,
    from the orders of all its elements.

    For each prime p, counting the elements whose order divides p^k
    determines how many cyclic factors of each p-power order occur.
    """
    m = len(orders)
    if m == 1:
        return ()
    invariants = []
    for p, a in sorted(_factorize(m).items()):
        # exponent_counts[k] = log_p #{g : g^(p^k) = e}; strictly increasing
        # until it reaches the full exponent a of the p-part.
        exponent_counts = [0]
        k = 0
        while exponent_counts[-1] < a:
            k += 1
            assert k <= a, "order statistics failed to saturate"
            pk = p**k
            c = sum(1 for o in orders if pk % o == 0)
            e = 0
            while p**e < c:
                e += 1
            assert p**e == c, "solution count is not a power of p"
            exponent_counts.append(e)
        # at_least[j] = number of cyclic factors Z_{p^i} with i >= j
        at_least = [
            exponent_counts[j] - exponent_counts[j - 1]
            for j in range(1, len(exponent_counts))
        ]
        for j, count in enumerate(at_least, start=1):
            above = at_least[j] if j < len(at_least) else 0
            invariants.extend([p**j] * (count - above))
    invariants.sort(reverse=True)
    result = tuple(invariants)
    prod = 1
    for q in result:
        prod *= q
    assert prod == m, "invariant factors do not multiply to the group order"
    return result


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Primary decomposition of an abelian group, as descending prime powers."""
    if not is_abelian_group(G):
        raise ValueError("group is not abelian")
    # Row g sends the identity to g, and the rows form the regular action.
    return _primary_factors(_regular_orders(G.mul, G.identity))


def classify_flat_connected(X: Quandle) -> FlatDecomposition:
    """Decompose a flat connected quandle into odd-prime-power dihedral factors.

    X must be a quandle; raw tables are validated by `as_quandle` or
    `load_quandle`.  Connectivity and flatness are verified, not assumed: a
    disconnected or non-flat quandle is an error naming the failed
    certificate.  Flatness comes from `_flat_connected_dis`, which closes Dis
    with a cap of n elements, the order of a flat one.  A transitive abelian
    group is regular: an O(n) guard checks that Dis has n elements and sends
    0 to n distinct points, which only a table that breaks the axioms can
    fail.  Its elements, sorted lexicographically, are then indexed by the
    image of 0, and `_regular_orders` reads their orders off one walk from 0
    per cyclic subgroup; the factors are the primary decomposition.  The
    isomorphism witness onto the dihedral product of the factors is the one
    certificate: it satisfies the homomorphism equation on all n^2 pairs, so
    it also certifies that X satisfies the axioms and that the factors are
    right.  A table that breaks the axioms raises ValueError,
    ClassificationError or TheoremViolationError and is never decomposed.
    """
    if not is_connected(X):
        raise ClassificationError("not-connected", f"order-{X.n} quandle is disconnected")
    dis = _flat_connected_dis(X)
    if dis is None:
        raise ClassificationError("not-flat", f"order-{X.n} quandle has a non-commutative displacement group")
    if len(dis) != X.n or len({g[0] for g in dis}) != X.n:
        raise TheoremViolationError(
            f"displacement group of order {len(dis)} does not act regularly: {X.table}"
        )
    factors = _primary_factors(_regular_orders(dis.elements, 0))
    witness = find_isomorphism(X, _dihedral_product(factors))
    if witness is None:
        raise TheoremViolationError(
            f"no isomorphism onto the dihedral product {factors}: {X.table}"
        )
    return FlatDecomposition(factors, witness)
