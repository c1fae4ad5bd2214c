import math
import random
from functools import reduce

import pytest

from conftest import (
    affine5,
    affine_quandle,
    connected_affine_quandles,
    every_table,
    oracle_corpus,
    relabeled,
    transposition_quandle,
    unchecked,
)
from quandles import (
    ClassificationError,
    FiniteGroup,
    InvalidQuandleError,
    Quandle,
    TheoremViolationError,
    abelian_invariants,
    build_representatives,
    classify_flat_connected,
    dihedral_quandle,
    direct_product,
    displacement_group,
    find_isomorphism,
    is_connected,
    is_flat,
    is_homomorphism,
    odd_prime_power_multisets,
    predicted_count,
    trivial_quandle,
    validate_quandle,
)
from quandles.analysis import _flat_dis_generators
from quandles.classify import _dihedral_product, _primary_factors
from quandles.isomorphism import _point_profiles
from quandles.perms import _torsion, perm_order

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_abelian_invariants_examples():
    assert abelian_invariants(FiniteGroup.cyclic(4)) == (4,)
    assert abelian_invariants(FiniteGroup(KLEIN)) == (2, 2)
    assert abelian_invariants(FiniteGroup.cyclic(1)) == ()
    assert abelian_invariants(FiniteGroup.cyclic(6)) == (3, 2)
    assert abelian_invariants(FiniteGroup.cyclic(12)) == (4, 3)
    Z2xZ4 = FiniteGroup.direct(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    assert abelian_invariants(Z2xZ4) == (4, 2)
    Z6xZ15 = FiniteGroup.direct(FiniteGroup.cyclic(6), FiniteGroup.cyclic(15))
    assert abelian_invariants(Z6xZ15) == (5, 3, 3, 2)


def test_abelian_invariants_identify_the_group():
    # Rebuilding from the invariants gives a group with the same order statistics.
    from quandles import element_order

    for factors in ([8], [2, 2, 2], [4, 2], [9, 3], [25]):
        G = FiniteGroup.cyclic(1)
        for q in factors:
            G = FiniteGroup.direct(G, FiniteGroup.cyclic(q))
        invariants = abelian_invariants(G)
        H = FiniteGroup.cyclic(1)
        for q in invariants:
            H = FiniteGroup.direct(H, FiniteGroup.cyclic(q))
        assert sorted(element_order(G, g) for g in range(G.order)) == sorted(
            element_order(H, h) for h in range(H.order)
        )


def _prime_exponents(m):
    """{p: a} for each p^a exactly dividing m, by trial division."""
    out, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _prime_power_parts(m):
    return [p**a for p, a in _prime_exponents(m).items()]


def test_abelian_invariants_of_three_cyclic_factors():
    Z = {m: FiniteGroup.cyclic(m) for m in range(1, 201)}
    for a in range(1, 201):
        for b in range(a, 201):
            if a * b * b > 200:
                break
            ZaZb = FiniteGroup.direct(Z[a], Z[b])
            for c in range(b, 200 // (a * b) + 1):
                G = FiniteGroup.direct(ZaZb, Z[c])
                expected = sorted(
                    _prime_power_parts(a) + _prime_power_parts(b) + _prime_power_parts(c),
                    reverse=True,
                )
                assert abelian_invariants(G) == tuple(expected), (a, b, c)


def _cyclic_sum_orders(factors):
    """Sorted element orders of Z_q1 x ... x Z_qr, one per tuple of coordinates."""
    orders = [1]
    for q in factors:
        orders = [math.lcm(o, q // math.gcd(k, q)) for o in orders for k in range(q)]
    return sorted(orders)


def test_factors_from_torsion_counts_match_the_element_orders_of_dis():
    # The element orders of the closed Dis, counted, give the same factors
    # through the same rule; and the abelian group with those factors has
    # the same element orders, which determine a finite abelian group.
    rng = random.Random(0)
    reps = [rep for n in range(1, 106, 2) for rep in build_representatives(n)]
    quandles = reps + [relabeled(rep, rng) for rep in reps]
    quandles += [X for X in oracle_corpus() if is_connected(X) and is_flat(X)]
    assert len(quandles) == 66 + 66 + 82
    for X in quandles:
        gens = _flat_dis_generators(X)
        factors = _primary_factors(X.n, _torsion(gens, 0, X.n))
        orders = [perm_order(h) for h in displacement_group(X)]
        from_orders = _primary_factors(len(orders), lambda q: sum(q % o == 0 for o in orders))
        assert factors == from_orders, X.table
        assert _cyclic_sum_orders(factors) == sorted(orders), X.table
        assert all(len(_prime_exponents(q)) == 1 for q in factors)


def test_abelian_invariants_reject_nonabelian():
    from quandles import closure

    S3 = FiniteGroup.from_permutations(closure([(1, 0, 2), (0, 2, 1)]).elements)
    with pytest.raises(ValueError, match="abelian"):
        abelian_invariants(S3)


def test_predicted_count():
    assert predicted_count(1) == 1
    assert predicted_count(6) == 0
    assert predicted_count(9) == 2
    assert predicted_count(45) == 2
    assert predicted_count(27) == 3
    assert predicted_count(81) == 5
    assert predicted_count(105) == 1
    assert all(predicted_count(n) == 0 for n in range(2, 30, 2))
    with pytest.raises(ValueError):
        predicted_count(0)


def _partition_numbers(k):
    """p(0..k) by Euler's pentagonal number recurrence."""
    p = [1]
    for m in range(1, k + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    total += sign * p[m - g]
            j += 1
        p.append(total)
    return p


def test_predicted_count_is_a_product_of_partition_numbers():
    p = _partition_numbers(20)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[20] == 627
    for n in range(1, 20001):
        expected = 0
        if n % 2:
            expected = math.prod(p[a] for a in _prime_exponents(n).values())
        assert predicted_count(n) == expected, n


def test_odd_prime_power_multisets_are_distinct_descending_factorizations():
    for n in range(1, 20001, 2):
        multisets = odd_prime_power_multisets(n)
        assert len(set(multisets)) == len(multisets), n
        for ms in multisets:
            assert math.prod(ms) == n and list(ms) == sorted(ms, reverse=True), (n, ms)
            assert all(q % 2 and len(_prime_exponents(q)) == 1 for q in ms), (n, ms)


def test_odd_prime_power_multisets_order():
    assert odd_prime_power_multisets(27) == [(27,), (9, 3), (3, 3, 3)]
    assert odd_prime_power_multisets(45) == [(9, 5), (5, 3, 3)]
    assert odd_prime_power_multisets(15) == [(5, 3)]
    assert odd_prime_power_multisets(2) == []
    assert odd_prime_power_multisets(1) == [()]


def test_build_representatives():
    assert build_representatives(2) == []
    singleton = build_representatives(1)
    assert len(singleton) == 1 and singleton[0] == trivial_quandle(1)
    reps27 = build_representatives(27)
    assert len(reps27) == 3
    reps15 = build_representatives(15)
    assert len(reps15) == 1
    assert find_isomorphism(reps15[0], dihedral_quandle(15)) is not None
    for n in (1, 3, 9, 15, 27):
        for rep in build_representatives(n):
            assert rep.n == n
            assert validate_quandle(rep.table) == []
            assert is_flat(rep) and is_connected(rep)


def test_dihedral_product_matches_fold_from_the_singleton():
    for n in range(1, 226, 2):
        for ms in odd_prime_power_multisets(n):
            folded = trivial_quandle(1)
            for q in ms:
                folded = direct_product(folded, dihedral_quandle(q))
            table = _dihedral_product(ms).table
            assert table == folded.table, ms
            assert type(table) is tuple and all(type(row) is tuple for row in table)


def test_dihedral_product_of_even_and_unit_factors_matches_the_fold():
    # Not multisets of odd prime powers, but the rule slices any factors >= 1.
    for factors in [(), (1,), (2,), (4, 6), (1, 3), (3, 1), (6, 4, 2), (2, 5, 1, 4)]:
        folded = trivial_quandle(1)
        for q in factors:
            folded = direct_product(folded, dihedral_quandle(q))
        assert _dihedral_product(factors).table == folded.table, factors


def test_classify_dihedral45():
    decomposition = classify_flat_connected(dihedral_quandle(45))
    assert decomposition.factors == (9, 5)
    target = direct_product(dihedral_quandle(9), dihedral_quandle(5))
    assert is_homomorphism(decomposition.witness, dihedral_quandle(45), target)


def test_classify_product_and_prime():
    X = direct_product(dihedral_quandle(3), dihedral_quandle(3))
    assert classify_flat_connected(X).factors == (3, 3)
    assert classify_flat_connected(dihedral_quandle(7)).factors == (7,)
    assert classify_flat_connected(trivial_quandle(1)).factors == ()


def test_classify_relabeled_coset_quandles():
    # Same classes as the dihedral products, but with coset labelings.
    from quandles import abelian_negation_triplet, quandle_from_triplet

    for factors in ([9], [3, 3], [5, 3]):
        X = quandle_from_triplet(abelian_negation_triplet(factors)).quandle
        assert classify_flat_connected(X).factors == tuple(
            sorted(factors, reverse=True)
        )
    # Seeded relabellings up to order 105: the witness search must not
    # depend on the labels.
    rng = random.Random(0)
    for factors in ([3, 3, 3, 3], [9, 9], [81], [7, 5, 3]):
        coset = quandle_from_triplet(abelian_negation_triplet(factors)).quandle
        X = relabeled(coset, rng)
        assert classify_flat_connected(X).factors == tuple(
            sorted(factors, reverse=True)
        )


def test_classify_rejects_disconnected():
    for X in (dihedral_quandle(4), trivial_quandle(2), dihedral_quandle(6)):
        with pytest.raises(ClassificationError) as exc:
            classify_flat_connected(X)
        assert exc.value.certificate == "not-connected"


def test_classify_rejects_non_flat():
    with pytest.raises(ClassificationError) as exc:
        classify_flat_connected(affine5())
    assert exc.value.certificate == "not-flat"
    # Connected, with a displacement group of up to 10!/2 elements: listing
    # it by the images of 0 stops at the first sign that it is not abelian.
    for m in range(4, 11):
        X = transposition_quandle(m)
        assert validate_quandle(X.table) == []
        with pytest.raises(ClassificationError) as exc:
            classify_flat_connected(X)
        assert exc.value.certificate == "not-flat"


def test_classify_never_decomposes_an_invalid_table():
    # Built without the axiom check (Quandle() refuses them all): the
    # isomorphism witness is what certifies the axioms, so every shape-valid
    # non-quandle must raise.
    invalid = 0
    for n in (2, 3):
        for table in every_table(n):
            if not validate_quandle(table):
                continue
            invalid += 1
            with pytest.raises(
                (ValueError, ClassificationError, TheoremViolationError)
            ):
                classify_flat_connected(unchecked(table))
    assert invalid == 19693
    # s_1 . s_0 is not a permutation, but it fixes 0, so the walk skips it
    # and keeps the 3-cycle s_2 . s_0: the factors read (3,), and no map
    # onto R_3 passes the search.
    table = [[0, 2, 1], [0, 1, 1], [1, 0, 2]]
    with pytest.raises(InvalidQuandleError):
        Quandle(table)
    with pytest.raises(TheoremViolationError, match="no isomorphism onto the dihedral product"):
        classify_flat_connected(unchecked(table))
    # Dis is abelian but has 2 elements, not 3: the walk's orbit of 0 stops
    # short of every point, which on a quandle means Dis is not commutative.
    table = [[1, 0, 2], [1, 0, 2], [2, 0, 1]]
    with pytest.raises(InvalidQuandleError):
        Quandle(table)
    with pytest.raises(ClassificationError, match="not-flat"):
        classify_flat_connected(unchecked(table))
    # One or two swaps within a row of a flat connected quandle, off the
    # diagonal: rows stay permutations and s_x(x) = x still holds.
    rng = random.Random(0)
    perturbed = 0
    bases = [dihedral_quandle(q).table for q in (3, 5, 7, 9)]
    bases.append(direct_product(dihedral_quandle(3), dihedral_quandle(3)).table)
    for _ in range(300):
        table = [list(row) for row in rng.choice(bases)]
        n = len(table)
        for _ in range(rng.randint(1, 2)):
            x = rng.randrange(n)
            y, z = rng.sample([v for v in range(n) if v != x], 2)
            table[x][y], table[x][z] = table[x][z], table[x][y]
        if not validate_quandle(table):
            continue
        perturbed += 1
        with pytest.raises((ValueError, ClassificationError, TheoremViolationError)):
            classify_flat_connected(unchecked(table))
    assert perturbed == 260


def test_swaps_within_a_row_of_a_relabelled_r3_to_the_fourth_are_refused():
    # While Quandle() checked only the shape, classify_flat_connected ran for
    # minutes on some of these: its search had to refute a table that is not
    # a quandle.  Now the table never becomes a Quandle.
    rng = random.Random(22)
    R = _dihedral_product((3, 3, 3, 3))
    for _ in range(20):
        table = [list(row) for row in relabeled(R, rng).table]
        x = rng.randrange(R.n)
        for _ in range(rng.randint(1, 2)):
            y, z = rng.sample([v for v in range(R.n) if v != x], 2)
            table[x][y], table[x][z] = table[x][z], table[x][y]
        violations = validate_quandle(table)
        assert violations
        with pytest.raises(InvalidQuandleError) as exc:
            Quandle(table)
        assert exc.value.violations == violations


def _folded_product(factors):
    # The dihedral product folded by direct_product, not sliced by the
    # builder that classify uses.
    return reduce(direct_product, map(dihedral_quandle, factors), dihedral_quandle(1))


def test_classify_witness_is_the_coordinate_map_onto_the_product():
    # The witness reads each point's coordinates in a basis of Dis: a
    # bijective homomorphism onto the product, 0 to 0, the identity on the
    # product itself, and the same on every call.
    rng = random.Random(22)
    for n in range(1, 106, 2):
        for P in build_representatives(n):
            for X in (P, relabeled(P, rng)):
                factors, witness = classify_flat_connected(X)
                assert sorted(witness) == list(range(n))
                assert is_homomorphism(witness, X, _folded_product(factors)), X.table
                assert witness[0] == 0
                assert classify_flat_connected(X).witness == witness
                assert X is not P or witness == tuple(range(n))


@pytest.mark.parametrize("n", [225, 243])
def test_classify_reads_a_basis_of_every_abelian_dis_of_the_order(n):
    # Every multiset of the order, 4 of 225 and 7 of 243, most of them Dis
    # that are not cyclic, in 5 seeded relabellings each: a basis step that
    # takes an element whose powers meet the span so far gives a map that
    # is not onto the product.
    multisets = odd_prime_power_multisets(n)
    assert len(multisets) == {225: 4, 243: 7}[n]
    rng = random.Random(n)
    for factors in multisets:
        P = _folded_product(factors)
        for _ in range(5):
            X = relabeled(P, rng)
            decomposition = classify_flat_connected(X)
            assert decomposition.factors == factors
            assert sorted(decomposition.witness) == list(range(n))
            assert is_homomorphism(decomposition.witness, X, P), factors


def test_classify_round_trip_small():
    for n in range(1, 46, 2):
        multisets = odd_prime_power_multisets(n)
        reps = build_representatives(n)
        assert len(reps) == predicted_count(n)
        for rep, multiset in zip(reps, multisets):
            decomposition = classify_flat_connected(rep)
            assert decomposition.factors == multiset
            assert all(q % 2 == 1 for q in decomposition.factors)


def test_representatives_pairwise_non_isomorphic_small():
    for n in (9, 27, 45):
        reps = build_representatives(n)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert find_isomorphism(reps[i], reps[j]) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_affine_census_at_orders_p_and_p_squared(p):
    quandles = connected_affine_quandles(p)
    assert all(is_connected(X) for X in quandles)
    buckets: dict = {}
    for X in quandles:
        bucket = buckets.setdefault((X.n, tuple(sorted(_point_profiles(X)))), [])
        if all(find_isomorphism(X, Y) is None for Y in bucket):
            bucket.append(X)
    classes = [X for bucket in buckets.values() for X in bucket]
    # p - 2 classes at order p and 2p^2 - 3p - 1 at order p^2 (OEIS A181771).
    assert sum(X.n == p for X in classes) == p - 2
    assert sum(X.n == p * p for X in classes) == 2 * p * p - 3 * p - 1
    flat = []
    for X in classes:
        try:
            factors, witness = classify_flat_connected(X)
        except ClassificationError as e:
            assert e.certificate == "not-flat"
            continue
        P = _folded_product(factors)
        assert sorted(witness) == list(range(X.n)) and is_homomorphism(witness, X, P)
        flat.append(factors)
    assert sorted(flat) == [(p,), (p, p), (p * p,)]
