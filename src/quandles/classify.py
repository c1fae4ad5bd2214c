"""Decomposition of flat connected finite quandles into dihedral factors.

Such a quandle is isomorphic to a direct product of dihedral quandles whose
sizes are odd prime powers, namely the primary decomposition of its (abelian)
displacement group.  `classify_flat_connected` gets that group from the
flatness check in `analysis`, reads the factors off its element orders, and
certifies them by an isomorphism onto the predicted product.  That Dis acts
regularly, so the flatness check lists it by where each element sends 0, from
only the generators it needs, and the orders come from one walk from 0 per
cyclic subgroup; one counting rule turns the orders into the factors.  The
product is built from its last factor, each earlier one sliced onto it.
`odd_prime_power_multisets` lists the factorizations of an order in one
recursion, and `predicted_count` and `build_representatives` read off that
list.  Nothing is cached between calls.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import add
from typing import NamedTuple

from .analysis import _flat_connected_dis, is_connected
from .core import Quandle, dihedral_quandle, trivial_quandle
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
    """Product of dihedral quandles, built from the last factor: R_k x Y is
    sliced from the rows of Y, and the empty product is the singleton.

    Row (x, y) of R_k x Y sends u*m + v to (2x - u mod k)*m + Y[y][v], with
    m = |Y|.  So it is a slice of row y read in blocks w = k-1, ..., 0 (block
    w is Y[y] shifted by w*m) and run twice, starting at block k-1 - 2x mod
    k, as `dihedral_quandle` slices one reversed run.
    """
    if not factors:
        return trivial_quandle(1)
    table = dihedral_quandle(factors[-1]).table
    for k in reversed(factors[:-1]):
        m = len(table)
        shifts = tuple(chain.from_iterable(repeat(w * m, m) for w in range(k - 1, -1, -1)))
        runs = [tuple(map(add, shifts, row * k)) * 2 for row in table]
        starts = [(k - 1 - 2 * x % k) * m for x in range(k)]
        table = tuple(run[i : i + k * m] for i in starts for run in runs)
    return Quandle(table, _trusted=True)


def build_representatives(n: int) -> list[Quandle]:
    """One dihedral product per odd-prime-power multiset with product n,
    each built by `_dihedral_product` in the order the multisets are listed."""
    return [_dihedral_product(ms) for ms in odd_prime_power_multisets(n)]


def _primary_factors(orders) -> tuple[int, ...]:
    """Primary decomposition of an abelian group, as descending prime powers,
    from the orders of all its elements.

    For each p^a exactly dividing the group order, c_k = log_p #{g : ord(g)
    divides p^k} is the sum of min(k, e) over the cyclic factors Z_{p^e}, so
    (c_k - c_{k-1}) - (c_{k+1} - c_k) of them have order p^k.  The callers
    pass the orders of an abelian group; each distinct order is counted once.
    """
    counts, factors = Counter(orders), []
    for p, a in _factorize(len(orders)).items():
        c = []
        for k in range(a + 2):
            count, e = sum(v for o, v in counts.items() if p**k % o == 0), 0
            while e < a and p ** (e + 1) <= count:
                e += 1
            c.append(e)
        for k in range(1, a + 1):
            factors += [p**k] * (2 * c[k] - c[k - 1] - c[k + 1])
    return tuple(sorted(factors, reverse=True))


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
    certificate.  Flatness comes from `_flat_connected_dis`, which lists Dis
    by the images of 0: a transitive abelian group is regular, so element x is
    the one sending 0 to x, and a Dis that is abelian but not regular, which
    only a table that breaks the axioms can have, comes back empty.
    `_regular_orders` reads the orders of the elements off one walk from 0 per
    cyclic subgroup; the factors are the primary decomposition.  The
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
    if not dis:
        raise TheoremViolationError(f"abelian displacement group does not act regularly: {X.table}")
    factors = _primary_factors(_regular_orders(dis, 0))
    witness = find_isomorphism(X, _dihedral_product(factors))
    if witness is None:
        raise TheoremViolationError(
            f"no isomorphism onto the dihedral product {factors}: {X.table}"
        )
    return FlatDecomposition(factors, witness)
