import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_corpus, relabeled, transposition_quandle
from quandles import (
    ClosureLimitError,
    FiniteGroup,
    build_representatives,
    closure,
    compose,
    cycle_lengths,
    dihedral_quandle,
    direct_product,
    displacement_group,
    element_order,
    enumerate_quandles,
    identity_perm,
    inner_group,
    inverse,
    is_abelian,
    is_perm,
    is_transitive,
    orbit,
    perm_order,
    stabilizer,
    trivial_quandle,
)
from quandles.analysis import _displacement_generators, _flat_connected_dis
from quandles.perms import _regular_orders

perms_of_4 = st.permutations(range(4)).map(tuple)


def test_compose_examples():
    assert compose((1, 0, 2), (0, 2, 1)) == (1, 2, 0)
    assert compose((0, 1, 2), (2, 0, 1)) == (2, 0, 1)
    assert compose((1, 0), (1, 0)) == (0, 1)
    assert compose((0,), (0,)) == (0,)
    assert isinstance(compose((0,), (0,)), tuple)
    assert compose((), ()) == ()


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        compose((0,), (1, 0))


@given(perms_of_4, perms_of_4, perms_of_4)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms_of_4)
def test_inverse_cancels(p):
    ident = identity_perm(4)
    assert compose(p, inverse(p)) == ident
    assert compose(inverse(p), p) == ident


def test_is_perm():
    assert is_perm((2, 0, 1), 3)
    assert not is_perm((0, 0, 1), 3)
    assert not is_perm((0, 1), 3)


def test_cycle_structure():
    assert cycle_lengths((1, 0, 2)) == (1, 2)
    assert cycle_lengths((1, 2, 0)) == (3,)
    assert perm_order((1, 0, 3, 4, 2)) == 6


def test_closure_single_transposition():
    group = closure([(1, 0)])
    assert len(group) == 2


def test_closure_dihedral3_rows_is_s3():
    rows = dihedral_quandle(3).table
    group = closure(rows)
    assert len(group) == 6
    assert group.degree == 3


def test_closure_identity_only():
    group = closure([(0, 1, 2)])
    assert len(group) == 1
    assert group.generators == ()


def test_closure_rejects_empty_and_junk():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([(0, 0, 1)])


def test_closure_cap_exceeded():
    with pytest.raises(ClosureLimitError):
        closure([(1, 0, 2), (0, 2, 1)], cap=3)  # generates S_3
    with pytest.raises(ClosureLimitError):
        closure([(1, 0, 2), (0, 2, 1)], cap=2)  # the first alone fits the cap
    # A redundant generator adds no elements, so the cap of Z_3 holds.
    assert len(closure([(1, 2, 0), (2, 0, 1)], cap=3)) == 3


def test_closure_cap_below_one_counts_the_identity():
    for gens in ([(0, 1)], [(0,)], [(1, 0)]):
        for cap in (0, -1):
            with pytest.raises(ClosureLimitError, match=f"^closure exceeded cap of {cap} elements$"):
                closure(gens, cap=cap)
    assert len(closure([(0, 1)], cap=1)) == 1


def test_closure_default_cap_is_degree_factorial():
    # S_3 fills the whole symmetric group without tripping the default cap.
    group = closure([(1, 0, 2), (0, 2, 1)])
    assert len(group) == math.factorial(3)


def _closure_by_left_products(gens):
    """Reference closure: breadth-first left products g . h from the identity,
    started again each time a generator outside the group so far is kept.
    Returns the sorted elements and the kept generators."""
    gens = [tuple(g) for g in gens]
    ident = identity_perm(len(gens[0]))
    elements, kept = {ident}, []
    for g in gens:
        if g in elements:
            continue
        kept.append(g)
        elements, queue = {ident}, deque([ident])
        while queue:
            h = queue.popleft()
            for k in kept:
                p = compose(k, h)
                if p not in elements:
                    elements.add(p)
                    queue.append(p)
    return sorted(elements), kept


def test_closure_matches_a_left_multiplication_bfs():
    # Elements are multiplied on the right; the group, the kept generators and
    # the cap must not depend on the side.  A cap below 1 is left out: the
    # identity is in the set before anything is counted, and no caller passes
    # such a cap.
    inputs = oracle_corpus() + [transposition_quandle(m) for m in range(2, 7)]
    for X in inputs:
        for gens in (X.table, _displacement_generators(X)):
            elements, kept = _closure_by_left_products(gens)
            group = closure(gens)
            assert list(group.elements) == elements, X.table
            assert list(group.generators) == kept, X.table
            for cap in (len(elements) - 1, len(elements)):
                if cap < 1:
                    continue
                if len(elements) > cap:
                    with pytest.raises(ClosureLimitError):
                        closure(gens, cap=cap)
                else:
                    assert closure(gens, cap=cap).elements == group.elements


def test_closure_idempotent():
    group = closure([(1, 0, 2), (0, 2, 1)])
    again = closure(group.elements)
    assert again.elements == group.elements


def test_closure_elements_sorted():
    group = closure([(1, 2, 0)])
    assert list(group.elements) == sorted(group.elements)


def test_orbit_examples():
    rows = dihedral_quandle(3).table
    assert orbit(rows, 0) == {0, 1, 2}
    assert orbit(dihedral_quandle(5).table, 0) == {0, 1, 2, 3, 4}
    # On Z_4 both the rows and the displacements only reach even points:
    # s_x(0) = 2x and s_x(s_y(z)) = z + 2(x - y) stay in {0, 2}.
    assert orbit(dihedral_quandle(4).table, 0) == {0, 2}
    disp4 = displacement_group(dihedral_quandle(4))
    assert orbit(disp4.generators, 0) == {0, 2}
    assert orbit([identity_perm(6)], 5) == {5}


def test_orbit_point_out_of_range():
    with pytest.raises(ValueError):
        orbit([(0, 1, 2)], 3)


def _orbit_by_exhaustive_search(generators, point):
    """Breadth-first search that applies every generator to every point reached."""
    seen, queue = {point}, deque([point])
    while queue:
        x = queue.popleft()
        for g in generators:
            if g[x] not in seen:
                seen.add(g[x])
                queue.append(g[x])
    return seen


def test_orbit_matches_exhaustive_search():
    quandles = [X for n in range(1, 6) for X in enumerate_quandles(n)]
    assert len(quandles) == 1 + 1 + 5 + 36 + 404
    quandles += [transposition_quandle(m) for m in range(2, 8)]
    quandles += [
        direct_product(dihedral_quandle(3), trivial_quandle(3)),
        direct_product(dihedral_quandle(5), trivial_quandle(2)),
    ]
    partial = 0
    for X in quandles:
        for y in range(X.n):
            expected = _orbit_by_exhaustive_search(X.table, y)
            assert orbit(X.table, y) == expected, (X.table, y)
            partial += len(expected) < X.n
    assert partial > 0


def test_regular_orders_match_cycles_through_0():
    rng = random.Random(0)
    for n in range(1, 106, 2):
        for rep in build_representatives(n):
            for X in (rep, relabeled(rep, rng)):
                dis = _flat_connected_dis(X)
                assert [g[0] for g in dis] == list(range(n))
                expected = [perm_order(g) for g in dis]
                assert _regular_orders(dis, 0) == expected, X.table


def test_regular_orders_match_element_order():
    cyclic = [FiniteGroup.cyclic(m) for m in range(1, 13)]
    groups = cyclic + [FiniteGroup.direct(G, H) for G in cyclic for H in cyclic]
    for G in groups:
        expected = [element_order(G, g) for g in range(G.order)]
        assert _regular_orders(G.mul, G.identity) == expected


def test_is_transitive():
    from quandles import trivial_quandle

    assert is_transitive(inner_group(dihedral_quandle(5)))
    assert not is_transitive(inner_group(trivial_quandle(2)))
    assert is_transitive(closure([(0,)]))  # any group on one point


def test_is_abelian():
    for n in range(1, 9):
        assert is_abelian(displacement_group(dihedral_quandle(n)))
    assert not is_abelian(closure([(1, 0, 2), (2, 1, 0)]))
    assert is_abelian(closure([(0, 1, 2)]))


def test_is_abelian_matches_elementwise():
    groups = [
        closure([(1, 0, 2), (2, 1, 0)]),
        closure([(1, 2, 3, 0)]),
        inner_group(dihedral_quandle(6)),
        displacement_group(dihedral_quandle(8)),
        closure([(1, 0, 3, 2), (2, 3, 0, 1)]),
    ]
    for group in groups:
        assert len(group) <= 48
        pairwise = all(
            compose(g, h) == compose(h, g)
            for g in group.elements
            for h in group.elements
        )
        assert is_abelian(group) == pairwise


def test_stabilizer_in_s3():
    s3 = closure([(1, 0, 2), (0, 2, 1)])
    stab = stabilizer(s3, 0)
    assert set(stab.elements) == {(0, 1, 2), (0, 2, 1)}


def test_stabilizer_point_out_of_range():
    s3 = closure([(1, 0, 2), (0, 2, 1)])
    for point in (3, -1):
        with pytest.raises(ValueError, match=f"^point {point} out of range for degree 3$"):
            stabilizer(s3, point)


def test_stabilizer_of_transitive_displacement_is_trivial():
    disp = displacement_group(dihedral_quandle(5))
    assert len(stabilizer(disp, 0)) == 1


def test_stabilizer_when_point_fixed_by_all():
    group = closure([(1, 0, 2)])
    assert set(stabilizer(group, 2).elements) == set(group.elements)


def test_orbit_stabilizer_law():
    groups = [
        closure([(1, 0, 2), (0, 2, 1)]),
        inner_group(dihedral_quandle(6)),
        inner_group(dihedral_quandle(7)),
        displacement_group(dihedral_quandle(8)),
        closure([(1, 2, 3, 4, 0)]),
    ]
    for group in groups:
        for point in range(group.degree):
            orb = orbit(group.elements, point)
            assert len(stabilizer(group, point)) * len(orb) == len(group)


def test_group_serialization_round_trip():
    from quandles.perms import group_from_obj, group_to_obj

    group = closure([(1, 0, 2), (0, 2, 1)])
    obj = group_to_obj(group)
    assert obj == {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]]}
    assert group_from_obj(obj).elements == group.elements
    assert len(group_from_obj({"degree": 2, "generators": []})) == 1
    with pytest.raises(ValueError):
        group_from_obj({"degree": 3, "generators": [[0, 0, 1]]})
    with pytest.raises(ValueError):
        group_from_obj([1, 2])
    for malformed in (
        {"degree": "a", "generators": []},
        {"degree": -1, "generators": []},
        {"degree": True, "generators": []},
        {"degree": 2, "generators": 5},
        {"degree": 2, "generators": [5]},
        {"degree": 2, "generators": [[1.0, 0]]},
        {"degree": 2, "generators": [[True, False]]},
    ):
        with pytest.raises(ValueError):
            group_from_obj(malformed)
    with pytest.raises(ValueError):
        closure([(1.0, 0)])


@given(st.lists(perms_of_4, min_size=1, max_size=3))
def test_closure_contains_generators_and_is_closed(gens):
    group = closure(gens)
    for g in gens:
        assert g in group
    elems = set(group.elements)
    for g in gens:
        assert {compose(g, h) for h in elems} <= elems
    assert identity_perm(4) in group
    for h in group.elements:
        assert inverse(h) in group
    # Only generators that enlarge the group are kept, each at least doubling it.
    assert set(group.generators) <= set(gens)
    assert 2 ** len(group.generators) <= len(group)
    again = closure(group.generators or [identity_perm(4)])
    assert again.elements == group.elements
