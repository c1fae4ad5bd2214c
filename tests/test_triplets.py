import random
from itertools import product

import pytest

from conftest import affine5, transposition_quandle
from quandles import (
    FiniteGroup,
    InvalidTripletError,
    QuandleTriplet,
    TripletViolation,
    abelian_negation_triplet,
    automorphism_group,
    dihedral_quandle,
    direct_product,
    displacement_group,
    element_order,
    find_isomorphism,
    fix_set,
    is_abelian_group,
    is_connected,
    is_group_automorphism,
    is_homomorphism,
    is_involutive,
    is_subgroup,
    negation_map,
    parse_triplet,
    phi_map,
    quandle_from_triplet,
    triplet_from_quandle,
    triplet_product,
    triplet_to_obj,
    trivial_quandle,
    validate_quandle,
    validate_triplet,
)

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def s3_group() -> FiniteGroup:
    from quandles import closure

    return FiniteGroup.from_permutations(closure([(1, 0, 2), (0, 2, 1)]).elements)


def test_finite_group_construction():
    G = FiniteGroup(KLEIN)
    assert G.order == 4
    assert G.identity == 0
    assert G.inv == (0, 1, 2, 3)
    Z3 = FiniteGroup.cyclic(3)
    assert Z3.mul == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert Z3.inv == (0, 2, 1)


# A loop (Latin square with identity and inverses) that is not associative.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def brute_force_group_error(table) -> str | None:
    """What a shape-valid table lacks to be a group, cell by cell: the first
    identity, then an inverse for each element, then associativity at the
    first (a, b, c)."""
    m = range(len(table))
    units = [e for e in m if all(table[e][g] == g == table[g][e] for g in m)]
    if not units:
        return "table has no identity element"
    for g in m:
        if not any(table[g][h] == units[0] == table[h][g] for h in m):
            return f"element {g} has no inverse"
    for a, b, c in product(m, repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"not associative at ({a},{b},{c})"
    return None


def power_loop_order(G: FiniteGroup, g: int) -> int:
    order, x = 1, g
    while x != G.identity:
        order, x = order + 1, G.mul[x][g]
    return order


def test_finite_group_rejects_non_groups():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(LOOP5)
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(ValueError, match="empty"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="out of range"):
        FiniteGroup([[0, 2], [1, 0]])
    with pytest.raises(ValueError, match="not an integer"):
        FiniteGroup([[0, True], [True, 0]])


def test_finite_group_errors_match_cell_loops():
    rng = random.Random(0)
    tables = [LOOP5]
    for m in range(1, 9):
        Zm = FiniteGroup.cyclic(m).mul
        for _ in range(60):
            table = [list(row) for row in Zm]
            for _ in range(rng.randint(1, 2)):
                table[rng.randrange(m)][rng.randrange(m)] = rng.randrange(m)
            tables.append(table)
    associativity = 0
    for table in tables:
        expected = brute_force_group_error(table)
        if expected is None:
            assert FiniteGroup(table).mul == tuple(map(tuple, table))
            continue
        with pytest.raises(ValueError) as exc:
            FiniteGroup(table)
        assert str(exc.value) == expected
        associativity += expected.startswith("not associative")
    assert associativity >= 50


def test_cyclic_group_adds_mod_n():
    for n in range(1, 61):
        mul = FiniteGroup.cyclic(n).mul
        assert mul == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        assert type(mul) is tuple and all(type(row) is tuple for row in mul)


def test_abelian_negation_triplet_matches_a_direct_fold():
    cases = [(), (1,), (2,), (3,), (1, 3), (3, 1), (3, 5), (9, 3), (4, 2), (2, 2, 3)]
    for factors in cases + [(5, 3, 3), (2, 1, 6), (7, 4, 1, 3)]:
        folded = FiniteGroup.cyclic(1)
        for q in factors:
            folded = FiniteGroup.direct(folded, FiniteGroup.cyclic(q))
        T = abelian_negation_triplet(iter(factors))  # any iterable of factors
        assert T.group.mul == folded.mul, factors
        assert type(T.group.mul) is tuple and all(type(row) is tuple for row in T.group.mul)
        assert T.subgroup == (0,) and T.sigma == folded.inv
    for factors in ([0], [3, 0], [3, -2]):
        with pytest.raises(ValueError, match="^group order must be positive$"):
            abelian_negation_triplet(factors)


def test_group_input_errors():
    with pytest.raises(ValueError, match="^group order must be positive$"):
        FiniteGroup.cyclic(0)
    with pytest.raises(ValueError, match="^empty table: at least one element is required$"):
        FiniteGroup.from_permutations([])
    with pytest.raises(ValueError, match="^duplicate permutations$"):
        FiniteGroup.from_permutations([(0, 1), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="^permutation set is not closed under composition$"):
        FiniteGroup.from_permutations([(0, 1, 2), (1, 2, 0)])
    Z3 = FiniteGroup.cyclic(3)
    with pytest.raises(ValueError, match="^map has length 2, expected 3$"):
        fix_set((0, 1), Z3)
    assert is_subgroup(FiniteGroup.cyclic(6), (2, 4)) is False  # closed but no identity


def test_validate_triplet_reports_a_sigma_that_is_not_an_automorphism():
    Z5 = FiniteGroup.cyclic(5)
    swap = (0, 2, 1, 3, 4)  # 1 + 1 = 2, but swap(1) + swap(1) = 4 != swap(2)
    assert validate_triplet(Z5, (0,), swap) == [TripletViolation("automorphism", swap)]
    with pytest.raises(InvalidTripletError, match="automorphism"):
        QuandleTriplet(Z5, (0,), swap)


def test_element_order_matches_power_loop():
    Z = FiniteGroup.cyclic
    A6 = FiniteGroup.from_permutations(displacement_group(transposition_quandle(6)).elements)
    assert A6.order == 360
    groups = [Z(12), FiniteGroup.direct(Z(2), Z(4)), FiniteGroup.direct(Z(6), Z(15))]
    for G in groups + [s3_group(), A6]:
        assert [element_order(G, g) for g in range(G.order)] == [
            power_loop_order(G, g) for g in range(G.order)
        ]


def test_direct_group_product():
    G = FiniteGroup.direct(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    assert G.order == 6
    assert is_abelian_group(G)
    assert not is_abelian_group(s3_group())


def test_fix_set_examples():
    Z5 = FiniteGroup.cyclic(5)
    assert fix_set(tuple(range(5)), Z5) == (0, 1, 2, 3, 4)
    assert fix_set(negation_map(Z5), Z5) == (0,)
    Z6 = FiniteGroup.cyclic(6)
    assert fix_set(negation_map(Z6), Z6) == (0, 3)


def test_subgroup_and_automorphism_predicates():
    Z6 = FiniteGroup.cyclic(6)
    assert is_subgroup(Z6, (0, 3))
    assert not is_subgroup(Z6, (0, 1))
    assert not is_subgroup(Z6, ())
    assert is_group_automorphism(Z6, negation_map(Z6))
    assert not is_group_automorphism(Z6, (1, 2, 3, 4, 5, 0))


def test_validate_triplet():
    for n in range(1, 13):
        Zn = FiniteGroup.cyclic(n)
        assert validate_triplet(Zn, (0,), negation_map(Zn)) == []
    Z6 = FiniteGroup.cyclic(6)
    assert validate_triplet(Z6, (0, 3), negation_map(Z6)) == []
    Z5 = FiniteGroup.cyclic(5)
    violations = validate_triplet(Z5, (0, 1), negation_map(Z5))
    assert [v.kind for v in violations] == ["subgroup", "fixed-subgroup"]
    # subgroup not fixed pointwise: Z4 with negation, K = {0, 1, 2, 3}
    Z4 = FiniteGroup.cyclic(4)
    violations = validate_triplet(Z4, (0, 1, 2, 3), negation_map(Z4))
    assert {v.kind for v in violations} == {"fixed-subgroup"}
    assert {v.witness for v in violations} == {(1,), (3,)}
    with pytest.raises(ValueError):
        validate_triplet(Z5, (0, 7), negation_map(Z5))
    with pytest.raises(ValueError):
        validate_triplet(Z5, (0,), (0, 1))


def test_triplet_constructor_validates():
    Z5 = FiniteGroup.cyclic(5)
    with pytest.raises(InvalidTripletError):
        QuandleTriplet(Z5, (0, 1), negation_map(Z5))


def test_coset_quandle_is_dihedral():
    for n in range(1, 13):
        coset = quandle_from_triplet(abelian_negation_triplet([n]))
        assert coset.quandle.n == n
        assert validate_quandle(coset.quandle.table) == []
        assert find_isomorphism(coset.quandle, dihedral_quandle(n)) is not None


def test_coset_quandle_product_of_cyclics():
    coset = quandle_from_triplet(abelian_negation_triplet([3, 5]))
    assert validate_quandle(coset.quandle.table) == []
    target = direct_product(dihedral_quandle(3), dihedral_quandle(5))
    assert find_isomorphism(coset.quandle, target) is not None
    assert find_isomorphism(coset.quandle, dihedral_quandle(15)) is not None


def test_coset_quandle_with_full_subgroup_is_point():
    G = FiniteGroup.cyclic(4)
    T = QuandleTriplet(G, (0, 1, 2, 3), tuple(range(4)))
    coset = quandle_from_triplet(T)
    assert coset.quandle.table == ((0,),)
    assert coset.representatives == (0,)


def test_coset_quandles_are_homogeneous():
    triplets = [
        abelian_negation_triplet([4]),
        abelian_negation_triplet([2, 3]),
        QuandleTriplet(s3_group(), (0,), tuple(range(6))),
        # Dis(affine5) is non-abelian of order 10 with a stabilizer of order 2.
        triplet_from_quandle(affine5()).triplet,
    ]
    for T in triplets:
        X = quandle_from_triplet(T).quandle
        from quandles import is_homogeneous

        assert validate_quandle(X.table) == []
        assert is_homogeneous(X)


def test_coset_representatives_are_minimal_and_sorted():
    Z6 = FiniteGroup.cyclic(6)
    T = QuandleTriplet(Z6, (0, 3), negation_map(Z6))
    coset = quandle_from_triplet(T)
    assert coset.representatives == (0, 1, 2)
    assert validate_quandle(coset.quandle.table) == []


def test_involutive_sigma_gives_involutive_quandle():
    for factors in ([4], [6], [2, 3], [3, 3]):
        T = abelian_negation_triplet(factors)
        assert is_involutive(quandle_from_triplet(T).quandle)


def test_reflection_composition_identity_at_basepoint():
    # In Q(G, {e}, sigma) with G abelian and sigma involutive:
    # s_[g](s_[h]([e])) = s_[g h^-1]([e]).
    for factors in ([5], [6], [8], [3, 3], [2, 4]):
        T = abelian_negation_triplet(factors)
        G = T.group
        X = quandle_from_triplet(T).quandle  # cosets of {e} are the elements
        e = G.identity
        t = X.table
        for g in range(G.order):
            for h in range(G.order):
                assert t[g][t[h][e]] == t[G.mul[g][G.inv[h]]][e]


def test_derived_triplet_of_dihedral5():
    d = triplet_from_quandle(dihedral_quandle(5))
    G = d.triplet.group
    assert G.order == 5
    assert is_abelian_group(G)
    assert d.triplet.subgroup == (G.identity,)
    assert d.triplet.sigma == G.inv
    assert d.witness is not None
    coset = quandle_from_triplet(d.triplet)
    assert is_homomorphism(d.witness, coset.quandle, dihedral_quandle(5))


def test_derived_triplet_of_singleton():
    d = triplet_from_quandle(trivial_quandle(1))
    assert d.triplet.group.order == 1
    assert d.witness == (0,)


def test_derived_triplet_of_product():
    X = direct_product(dihedral_quandle(3), dihedral_quandle(3))
    d = triplet_from_quandle(X)
    G = d.triplet.group
    assert G.order == 9
    assert is_abelian_group(G)
    assert d.triplet.subgroup == (G.identity,)
    assert d.triplet.sigma == G.inv
    from quandles import abelian_invariants

    assert abelian_invariants(G) == (3, 3)


def test_derived_triplet_requires_conjugation_stability():
    from quandles import closure

    X = dihedral_quandle(3)
    subgroup = closure([X.table[0]])  # {id, s_0}: conjugating by s_1 escapes
    with pytest.raises(ValueError, match="stabilize"):
        triplet_from_quandle(X, 1, subgroup)


def test_derived_triplet_witness_requires_transitivity():
    X = dihedral_quandle(4)
    disp = displacement_group(X)
    with pytest.raises(ValueError, match="transitively"):
        triplet_from_quandle(X, 0, disp)
    d = triplet_from_quandle(X, 0, disp, with_witness=False)
    assert d.witness is None
    assert d.triplet.group.order == 2


def test_derived_triplet_caps_only_the_default_group(monkeypatch):
    from quandles import ClosureLimitError, triplets

    for m in (7, 8, 10):  # Dis is A_m: 2,520 elements and more
        with pytest.raises(ClosureLimitError):
            triplet_from_quandle(transposition_quandle(m))
    monkeypatch.setattr(triplets, "_GROUP_CAP", 4)
    X = dihedral_quandle(5)
    with pytest.raises(ClosureLimitError):
        triplet_from_quandle(X)
    assert triplet_from_quandle(X, 0, displacement_group(X)).triplet.group.order == 5


def test_derived_triplet_rejects_non_automorphism_group():
    from quandles import closure

    X = trivial_quandle(3)
    almost = closure([(1, 0, 2)])  # swaps 0,1: automorphism of the trivial quandle
    assert triplet_from_quandle(X, 2, almost, with_witness=False)
    Y = affine5()
    bad = closure([(1, 0, 2, 3, 4)])  # not a quandle automorphism of Y
    with pytest.raises(ValueError, match="automorphism"):
        triplet_from_quandle(Y, 0, bad, with_witness=False)


def test_derived_triplet_input_errors():
    from quandles import closure

    X = dihedral_quandle(5)
    with pytest.raises(ValueError, match=r"^group degree 3 does not match \|X\| = 5$"):
        triplet_from_quandle(X, 0, closure([(1, 2, 0)]))
    for basepoint in (5, -1):
        with pytest.raises(ValueError, match=f"^basepoint {basepoint} out of range$"):
            triplet_from_quandle(X, basepoint)


def test_round_trip_through_triplet():
    # Homogeneous quandle + transitive symmetry-stable group -> same quandle back.
    cases = [
        (dihedral_quandle(3), None),
        (dihedral_quandle(5), None),
        (dihedral_quandle(7), None),
        (direct_product(dihedral_quandle(3), dihedral_quandle(5)), None),
        (affine5(), None),
        (dihedral_quandle(4), automorphism_group(dihedral_quandle(4))),
        (trivial_quandle(3), automorphism_group(trivial_quandle(3))),
        (dihedral_quandle(6), automorphism_group(dihedral_quandle(6))),
    ]
    for X, group in cases:
        d = triplet_from_quandle(X, 0, group)
        coset = quandle_from_triplet(d.triplet)
        assert validate_quandle(coset.quandle.table) == []
        assert find_isomorphism(coset.quandle, X) is not None


def test_triplet_product_splits():
    T1 = abelian_negation_triplet([3])
    T2 = abelian_negation_triplet([5])
    P = triplet_product(T1, T2)
    assert P.group.order == 15
    left = quandle_from_triplet(P).quandle
    right = direct_product(
        quandle_from_triplet(T1).quandle, quandle_from_triplet(T2).quandle
    )
    assert find_isomorphism(left, right) is not None
    assert find_isomorphism(left, dihedral_quandle(15)) is not None


def test_triplet_product_with_point_triplet_is_identity():
    T = abelian_negation_triplet([5])
    point = abelian_negation_triplet([])
    P = triplet_product(T, point)
    assert find_isomorphism(
        quandle_from_triplet(P).quandle, quandle_from_triplet(T).quandle
    ) is not None


def test_triplet_product_z3_z3_is_not_dihedral9():
    P = triplet_product(abelian_negation_triplet([3]), abelian_negation_triplet([3]))
    X = quandle_from_triplet(P).quandle
    assert find_isomorphism(
        X, direct_product(dihedral_quandle(3), dihedral_quandle(3))
    ) is not None
    assert find_isomorphism(X, dihedral_quandle(9)) is None


def test_fixed_points_of_product_automorphism_split():
    cases = [
        ([4], [6]),
        ([5], [3, 3]),
        ([2], [2, 2]),
    ]
    for f1, f2 in cases:
        T1, T2 = abelian_negation_triplet(f1), abelian_negation_triplet(f2)
        P = triplet_product(T1, T2)
        m2 = T2.group.order
        fixed_left = fix_set(T1.sigma, T1.group)
        fixed_right = fix_set(T2.sigma, T2.group)
        expected = tuple(
            sorted(a * m2 + b for a in fixed_left for b in fixed_right)
        )
        assert fix_set(P.sigma, P.group) == expected


def test_phi_map_examples():
    phi, surjective = phi_map(abelian_negation_triplet([5]))
    assert phi == (0, 2, 4, 1, 3)  # g -> 2g
    assert surjective
    phi, surjective = phi_map(abelian_negation_triplet([6]))
    assert set(phi) == {0, 2, 4}
    assert not surjective
    phi, surjective = phi_map(abelian_negation_triplet([]))
    assert phi == (0,)
    assert surjective


def test_phi_map_rejects_bad_hypotheses():
    Z6 = FiniteGroup.cyclic(6)
    with pytest.raises(ValueError, match="trivial subgroup"):
        phi_map(QuandleTriplet(Z6, (0, 3), negation_map(Z6)))
    with pytest.raises(ValueError, match="commutative"):
        phi_map(QuandleTriplet(s3_group(), (0,), tuple(range(6))))
    Z5 = FiniteGroup.cyclic(5)
    doubling = tuple((2 * g) % 5 for g in range(5))  # order 4, not involutive
    with pytest.raises(ValueError, match="involutive"):
        phi_map(QuandleTriplet(Z5, (0,), doubling))


def test_phi_surjectivity_decides_connectivity():
    for n in range(1, 13):
        T = abelian_negation_triplet([n])
        _, surjective = phi_map(T)
        assert surjective == is_connected(quandle_from_triplet(T).quandle)


def test_derived_triplets_of_flat_connected_quandles():
    corpus = [
        trivial_quandle(1),
        dihedral_quandle(3),
        dihedral_quandle(5),
        dihedral_quandle(7),
        dihedral_quandle(9),
        direct_product(dihedral_quandle(3), dihedral_quandle(3)),
        direct_product(dihedral_quandle(3), dihedral_quandle(5)),
    ]
    from quandles import is_flat

    for X in corpus:
        assert is_flat(X) and is_connected(X)
        d = triplet_from_quandle(X)
        G = d.triplet.group
        sigma = d.triplet.sigma
        assert is_abelian_group(G)
        assert d.triplet.subgroup == (G.identity,)
        assert all(sigma[sigma[g]] == g for g in range(G.order))
        assert fix_set(sigma, G) == (G.identity,)
        assert sigma == G.inv


def test_triplet_serialization_round_trip():
    T = abelian_negation_triplet([2, 3])
    obj = triplet_to_obj(T)
    assert obj["order"] == 6
    assert obj["K"] == [0]
    back = parse_triplet(obj)
    assert back == T


def test_parse_triplet_shorthand():
    T = parse_triplet({"cyclic_factors": [3, 5], "K": "trivial", "sigma": "negation"})
    assert T.group.order == 15
    assert T.sigma == T.group.inv
    with pytest.raises(ValueError):
        parse_triplet({"cyclic_factors": [3], "K": [0], "sigma": "negation"})
    with pytest.raises(ValueError):
        parse_triplet({"cyclic_factors": [0]})


def test_parse_triplet_rejects_non_objects_and_other_shorthand_sigmas():
    for obj in ([3, 5], "triplet", None):
        with pytest.raises(ValueError, match="^expected a JSON object describing a triplet$"):
            parse_triplet(obj)
    with pytest.raises(ValueError, match='^shorthand triplets only support sigma = "negation"$'):
        parse_triplet({"cyclic_factors": [3], "sigma": "identity"})


def test_parse_triplet_errors():
    with pytest.raises(ValueError, match="missing key"):
        parse_triplet({"mul": [[0]]})
    with pytest.raises(ValueError, match="'order'"):
        parse_triplet({"order": 3, "mul": [[0]], "K": [0], "sigma": [0]})
    with pytest.raises(InvalidTripletError):
        parse_triplet(
            {
                "mul": [list(row) for row in FiniteGroup.cyclic(5).mul],
                "K": [0, 1],
                "sigma": list(negation_map(FiniteGroup.cyclic(5))),
            }
        )
    with pytest.raises(ValueError, match="'K' must be a list"):
        parse_triplet({"mul": [[0]], "K": 5, "sigma": [0]})
    with pytest.raises(ValueError, match="'sigma' must be a list"):
        parse_triplet({"mul": [[0]], "K": [0], "sigma": 7})
    with pytest.raises(ValueError, match="'mul' must be a list of lists"):
        parse_triplet({"mul": 5, "K": [0], "sigma": [0]})
    for K in ([[0]], [0, "a"]):
        with pytest.raises(ValueError, match="subgroup must be a set"):
            parse_triplet({"mul": [[0, 1], [1, 0]], "K": K, "sigma": [0, 1]})
    with pytest.raises(ValueError, match="subgroup must be a set"):
        parse_triplet({"mul": [[0]], "K": [False], "sigma": [0]})
    with pytest.raises(ValueError, match="sigma must map"):
        parse_triplet({"mul": [[0]], "K": [0], "sigma": [False]})
    for order in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="'order'"):
            parse_triplet({"order": order, "mul": [[0]], "K": [0], "sigma": [0]})
    for factors in ([True, 3], [3.0]):
        with pytest.raises(ValueError, match="'cyclic_factors'"):
            parse_triplet({"cyclic_factors": factors})
