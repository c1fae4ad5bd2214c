"""Decomposition of flat connected finite quandles into dihedral factors.

Such a quandle is isomorphic to a direct product of dihedral quandles whose
sizes are odd prime powers, namely the primary decomposition of its (abelian)
displacement group.  `classify_flat_connected` certifies the hypotheses, reads
the factors off the displacement group, and produces an explicit isomorphism
onto the predicted product; `predicted_count` and `build_representatives`
enumerate the possible factorizations per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .analysis import displacement_group, is_connected, is_flat
from .core import Quandle, dihedral_quandle, direct_product, trivial_quandle
from .isomorphism import find_isomorphism
from .triplets import (
    FiniteGroup,
    element_order,
    fix_set,
    is_abelian_group,
    triplet_from_quandle,
)


class ClassificationError(Exception):
    """A required certificate (connectivity, flatness) failed."""

    def __init__(self, certificate: str, message: str):
        self.certificate = certificate
        super().__init__(f"{certificate}: {message}")


class TheoremViolationError(RuntimeError):
    """A certified flat connected quandle failed to decompose.

    For a quandle this cannot happen with a correct implementation.  It is
    also how a table that breaks the axioms can fail, since `Quandle` checks
    only the shape and no isomorphism witness exists for it.  The message
    carries the offending table so the failure can be reproduced.
    """


@dataclass(frozen=True)
class FlatDecomposition:
    """Odd prime-power factors and a bijection onto the dihedral product."""

    factors: tuple[int, ...]
    witness: tuple[int, ...]


@lru_cache(maxsize=None)
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
    """Product of dihedral quandles; the empty product is the singleton."""
    X = trivial_quandle(1)
    for q in factors:
        X = direct_product(X, dihedral_quandle(q))
    return X


def build_representatives(n: int) -> list[Quandle]:
    """One dihedral product per odd-prime-power multiset with product n."""
    return [_dihedral_product(ms) for ms in odd_prime_power_multisets(n)]


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Primary decomposition of an abelian group, as descending prime powers.

    Recovered from order statistics: for each prime p, counting the solutions
    of g^(p^k) = e determines how many cyclic factors of each p-power order
    occur.
    """
    if not is_abelian_group(G):
        raise ValueError("group is not abelian")
    m = G.order
    if m == 1:
        return ()
    orders = [element_order(G, g) for g in range(m)]
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


def classify_flat_connected(X: Quandle) -> FlatDecomposition:
    """Decompose a flat connected quandle into odd-prime-power dihedral factors.

    X must be a quandle; raw tables are validated by `as_quandle` or
    `load_quandle`.  Connectivity and flatness are verified, not assumed: a
    disconnected or non-flat quandle is an error naming the failed
    certificate.  The derived displacement-group triplet is also checked
    against the structure theory (trivial stabilizer, inversion automorphism)
    before the factors are extracted, and the final isomorphism witness must
    exist.  The witness satisfies the homomorphism equation on all n^2 pairs
    onto a dihedral product, so it also certifies that X satisfies the axioms:
    a table that breaks them raises ValueError, ClassificationError or
    TheoremViolationError and is never decomposed, though it may first close
    a displacement group of up to n! elements.
    """
    if not is_connected(X):
        raise ClassificationError("not-connected", f"order-{X.n} quandle is disconnected")
    if not is_flat(X):
        raise ClassificationError("not-flat", f"order-{X.n} quandle has a non-commutative displacement group")
    derived = triplet_from_quandle(X, 0, displacement_group(X), with_witness=False)
    triplet = derived.triplet
    G = triplet.group
    if not is_abelian_group(G):  # pragma: no cover - excluded by is_flat
        raise TheoremViolationError(f"flat quandle with non-abelian displacement group: {X.table}")
    if len(triplet.subgroup) != 1:
        raise TheoremViolationError(
            f"connected flat quandle with non-trivial basepoint stabilizer: {X.table}"
        )
    if any(triplet.sigma[g] != G.inv[g] for g in range(G.order)):
        raise TheoremViolationError(
            f"derived automorphism is not inversion: {X.table}"
        )
    if fix_set(triplet.sigma, G) != (G.identity,):
        raise TheoremViolationError(
            f"derived automorphism fixes more than the identity: {X.table}"
        )
    factors = abelian_invariants(G)
    if any(q % 2 == 0 for q in factors):
        raise TheoremViolationError(
            f"even factor in the displacement group of a flat connected quandle "
            f"(factors {factors}): {X.table}"
        )
    witness = find_isomorphism(X, _dihedral_product(factors))
    if witness is None:
        raise TheoremViolationError(
            f"no isomorphism onto the dihedral product {factors}: {X.table}"
        )
    return FlatDecomposition(factors, witness)
