import gc
import random
from functools import reduce

from conftest import (
    affine5,
    affine_quandle,
    disjoint_union,
    labelled_quandles_to_order_5,
    oracle_corpus,
    pinned_point_quandle,
    relabeled,
    small_corpus,
    transposition_quandle,
)
from quandles import (
    Quandle,
    analyze,
    automorphism_group,
    classify_flat_connected,
    closure,
    dihedral_quandle,
    direct_product,
    displacement_group,
    inner_group,
    is_connected,
    is_flat,
    is_homogeneous,
    is_involutive,
    trivial_quandle,
)
from quandles import analysis, perms
from quandles.analysis import _flat_dis_generators
from quandles.perms import compose, identity_perm, inverse, is_abelian, is_transitive, orbit


def test_inner_group_orders():
    assert len(inner_group(dihedral_quandle(3))) == 6
    assert len(inner_group(trivial_quandle(4))) == 1
    assert len(inner_group(dihedral_quandle(5))) == 10


def test_displacement_group_orders():
    assert len(displacement_group(dihedral_quandle(5))) == 5
    assert len(displacement_group(dihedral_quandle(4))) == 2
    for n in (1, 2, 5):
        assert len(displacement_group(trivial_quandle(n))) == 1
    # s_x . s_0, not s_x . s_0^-1: the latter generates only the translations.
    assert len(displacement_group(affine5())) == 10


def test_displacement_group_from_n_generators_matches_all_pairs():
    quandles = labelled_quandles_to_order_5()
    quandles += [affine_quandle(p, t) for p, t in ((5, 2), (7, 3), (11, 2), (13, 2))]
    quandles += [transposition_quandle(m) for m in range(2, 8)]
    for X in quandles:
        rows = X.table
        every_pair = closure([compose(rx, ry) for rx in rows for ry in rows])
        dis = displacement_group(X)
        assert dis.elements == every_pair.elements
        assert is_flat(X) == is_abelian(dis)


def test_displacement_group_of_odd_dihedral_is_translations():
    for n in (3, 5, 7, 9):
        disp = displacement_group(dihedral_quandle(n))
        translations = {
            tuple((z + 2 * k) % n for z in range(n)) for k in range(n)
        }
        assert set(disp.elements) == translations


def test_connected_dihedral_iff_odd():
    for n in range(1, 16):
        assert is_connected(dihedral_quandle(n)) == (n % 2 == 1)


def test_connected_trivial_iff_singleton():
    assert is_connected(trivial_quandle(1))
    assert not is_connected(trivial_quandle(2))


def test_connected_product():
    assert is_connected(direct_product(dihedral_quandle(3), dihedral_quandle(5)))
    assert not is_connected(direct_product(dihedral_quandle(3), dihedral_quandle(4)))


def test_flat_examples():
    for n in range(1, 16):
        assert is_flat(dihedral_quandle(n))
        assert is_flat(trivial_quandle(n))
    assert not is_flat(affine5())
    # Dis of S_m transpositions has m!/2 elements; the cap of n stops its closure.
    for m in range(8, 16):
        assert not is_flat(transposition_quandle(m))
    assert is_flat(dihedral_quandle(105))


def test_involutive_examples():
    for n in range(1, 10):
        assert is_involutive(dihedral_quandle(n))
        assert is_involutive(trivial_quandle(n))
    assert not is_involutive(affine5())
    X = affine5()
    assert X.table[0][X.table[0][1]] == 4  # s_0(s_0(1)) = 4 != 1


def test_flat_does_not_require_involutivity():
    # Multiplier-5 affine quandle on Z_16: displacements are z -> 9^k z + 4c,
    # which commute, but the symmetries have order 4.
    from conftest import affine_quandle

    X = affine_quandle(16, 5)
    assert is_flat(X)
    assert not is_involutive(X)
    assert not is_connected(X)


def test_homogeneous_examples():
    assert is_homogeneous(dihedral_quandle(4))
    for n in (1, 2, 3, 4):
        assert is_homogeneous(trivial_quandle(n))
    assert not is_homogeneous(pinned_point_quandle())


def test_homogeneous_matches_automorphism_group_oracle():
    others = [pinned_point_quandle()]
    others += [trivial_quandle(n) for n in (5, 6, 7)]
    others += [dihedral_quandle(n) for n in (6, 8, 10, 12)]
    others += [
        direct_product(dihedral_quandle(m), trivial_quandle(k))
        for m, k in ((3, 2), (3, 3), (5, 2))
    ]
    for X in labelled_quandles_to_order_5() + others:
        assert is_homogeneous(X) == is_transitive(automorphism_group(X))


def test_homogeneous_matches_automorphism_group_on_relabellings():
    rng = random.Random(18)
    bases = [trivial_quandle(n) for n in range(1, 9)]
    bases += [dihedral_quandle(n) for n in range(4, 15, 2)]
    bases += [
        direct_product(dihedral_quandle(m), trivial_quandle(k))
        for m, k in ((3, 2), (4, 2), (3, 4), (5, 3), (7, 2))
    ]
    bases += [pinned_point_quandle(), _two_points_beside_r3()]
    for X in bases:
        Y = relabeled(X, rng)
        assert is_homogeneous(Y) == is_transitive(automorphism_group(Y)), X.table


def _two_points_beside_r3():
    # 0 | 1 2 3 | 4: the rows of 0 and 4 are the identity and those of R_3
    # are not, so Aut swaps 0 and 4 but cannot send 0 into R_3.
    T1 = trivial_quandle(1)
    return disjoint_union(disjoint_union(T1, dihedral_quandle(3)), T1)


def _count_searches(monkeypatch):
    """The images asked for f(0), one entry per homogeneity search started,
    and the complete maps that the searches yielded."""
    searches, leaves = [], []
    isomorphisms = analysis._isomorphisms

    def counted(X, *Y):
        assert not Y  # a self-search knows the identity is an isomorphism
        search = isomorphisms(X)

        def started(images=None):
            searches.append(images)
            return (leaves.append(f) or f for f in search(images))

        return started

    monkeypatch.setattr(analysis, "_isomorphisms", counted)
    return searches, leaves


def test_trivial_quandles_are_decided_by_one_search(monkeypatch):
    # From the largest point, the first automorphism of T_n is 0 -> n-1 and
    # x -> x-1 after, one cycle through every point; from 1 it would be the
    # transposition (0 1), and n-1 searches would be needed.
    searches, leaves = _count_searches(monkeypatch)
    for n in range(2, 9):
        searches.clear()
        leaves.clear()
        assert is_homogeneous(trivial_quandle(n))
        assert searches == [(n - 1,)]
        assert leaves == [(n - 1, *range(n - 1))]


def test_homogeneity_search_that_reaches_a_point_and_then_misses_one(monkeypatch):
    # The first search, to 4, finds the swap of 0 and 4; the next, to 3, the
    # largest point still unreached, finds nothing.
    searches, _ = _count_searches(monkeypatch)
    assert not is_homogeneous(_two_points_beside_r3())
    assert searches == [(4,), (3,)]
    searches.clear()
    assert not is_homogeneous(pinned_point_quandle())
    assert searches == [(3,)]
    searches.clear()
    assert is_homogeneous(dihedral_quandle(5)) and searches == []  # connected: no search


def test_connected_implies_homogeneous():
    for X in small_corpus():
        if is_connected(X):
            assert is_homogeneous(X)


def test_inner_and_displacement_transitivity_agree():
    for X in small_corpus():
        assert is_transitive(inner_group(X)) == is_transitive(displacement_group(X))


def test_row_by_inverse_row_lies_in_displacement_group():
    for X in small_corpus():
        disp = displacement_group(X)
        for rx in X.table:
            for ry in X.table:
                assert compose(rx, inverse(ry)) in disp


def _as_pair_map(p, nx, ny):
    """Split a permutation of the row-major product into factors, if it splits."""
    f = tuple(p[x * ny] // ny for x in range(nx))
    g = tuple(p[y] % ny for y in range(ny))
    for x in range(nx):
        for y in range(ny):
            if p[x * ny + y] != f[x] * ny + g[y]:
                return None
    return f, g


def test_inner_group_of_product_splits():
    pairs = [
        (dihedral_quandle(3), dihedral_quandle(4)),
        (dihedral_quandle(5), trivial_quandle(2)),
        (affine5(), dihedral_quandle(3)),
    ]
    for X, Y in pairs:
        P = direct_product(X, Y)
        ix, iy = inner_group(X), inner_group(Y)
        for p in inner_group(P):
            fg = _as_pair_map(p, X.n, Y.n)
            assert fg is not None
            assert fg[0] in ix and fg[1] in iy


def test_displacement_group_of_product_splits_and_matches_for_involutive():
    involutive_pairs = [
        (dihedral_quandle(3), dihedral_quandle(3)),
        (dihedral_quandle(4), dihedral_quandle(5)),
        (dihedral_quandle(6), dihedral_quandle(7)),
    ]
    for X, Y in involutive_pairs:
        P = direct_product(X, Y)
        dx, dy, dp = displacement_group(X), displacement_group(Y), displacement_group(P)
        for p in dp:
            fg = _as_pair_map(p, X.n, Y.n)
            assert fg is not None
            assert fg[0] in dx and fg[1] in dy
        assert len(dp) == len(dx) * len(dy)
    # Subset still holds without involutivity, but equality can fail.
    X, Y = affine5(), affine5()
    P = direct_product(X, Y)
    dx, dy, dp = displacement_group(X), displacement_group(Y), displacement_group(P)
    for p in dp:
        fg = _as_pair_map(p, X.n, Y.n)
        assert fg is not None
        assert fg[0] in dx and fg[1] in dy
    assert len(dp) <= len(dx) * len(dy)


def test_flat_product_iff_both_flat():
    samples = [
        dihedral_quandle(3),
        dihedral_quandle(4),
        trivial_quandle(2),
        affine5(),
    ]
    for X in samples:
        for Y in samples:
            assert is_flat(direct_product(X, Y)) == (is_flat(X) and is_flat(Y))


def test_inner_subset_of_automorphisms():
    for X in small_corpus():
        aut = automorphism_group(X)
        for p in inner_group(X):
            assert p in aut


def test_analyze_report():
    report = analyze(dihedral_quandle(5))
    assert report == {
        "n": 5,
        "connected": True,
        "flat": True,
        "involutive": True,
        "homogeneous": True,
        "inn_order": 10,
        "dis_order": 5,
    }
    report = analyze(affine5())
    assert report["connected"] and not report["flat"] and not report["involutive"]
    # Each answer is read off a cheaper structure; the predicates and the
    # closed groups are the oracles.
    others = [transposition_quandle(m) for m in range(2, 7)]
    others += [affine_quandle(p, t) for p in (5, 7, 11, 13) for t in range(2, p)]
    for X in small_corpus() + oracle_corpus() + others:
        report = analyze(X)
        assert report["involutive"] == is_involutive(X)
        assert report["flat"] == is_flat(X)
        assert report["homogeneous"] == is_homogeneous(X)
        assert report["dis_order"] == len(displacement_group(X))
        assert report["inn_order"] == len(inner_group(X))


def test_analyze_of_a_flat_connected_quandle_closes_no_group(monkeypatch):
    # The walk of the flatness check proves Dis regular, so both orders are
    # read off n, and neither Dis nor Inn is listed.
    def refuse(*args, **kwargs):
        raise AssertionError("a group was closed")

    for module in (analysis, perms):
        monkeypatch.setattr(module, "closure", refuse)
        monkeypatch.setattr(module, "_close", refuse)
    R33 = relabeled(direct_product(dihedral_quandle(3), dihedral_quandle(3)), random.Random(33))
    for X in (dihedral_quandle(15), R33):
        assert analyze(X) == {
            "n": X.n, "connected": True, "flat": True, "involutive": True,
            "homogeneous": True, "inn_order": 2 * X.n, "dis_order": X.n,
        }
    assert analyze(trivial_quandle(1))["inn_order"] == 1


def test_repeated_calls_keep_no_quandle_alive():
    # Nothing is cached between calls: fresh relabellings die with their callers.
    bases = [
        reduce(direct_product, map(dihedral_quandle, factors))
        for factors in ((3, 3), (9,), (11,), (13,), (5, 3), (17,), (19,))
    ]
    rng = random.Random(6)
    before = sum(isinstance(o, Quandle) for o in gc.get_objects())
    for k in range(100):
        Y = relabeled(bases[k % len(bases)], rng)
        assert classify_flat_connected(Y).witness
        assert analyze(Y)["flat"] and is_flat(Y)
    del Y
    assert sum(isinstance(o, Quandle) for o in gc.get_objects()) <= before


def test_flat_connected_dis_matches_the_closed_displacement_group():
    # An abelian Dis of a connected quandle is regular: the walk keeps a few
    # commuting generators that close to it and reach every point from 0.
    # Otherwise there is nothing to keep.
    flat = non_flat = 0
    for X in oracle_corpus():
        if not is_connected(X):
            continue
        dis = displacement_group(X)
        gens = _flat_dis_generators(X)
        if all(compose(g, h) == compose(h, g) for g in dis for h in dis):
            assert gens and all(compose(g, h) == compose(h, g) for g in gens for h in gens)
            assert closure(gens).elements == dis.elements, X.table
            assert len(orbit(gens, 0)) == X.n == len(dis)
            flat += 1
        else:
            assert gens is None, X.table
            non_flat += 1
    assert (flat, non_flat) == (82, 426)


def test_flatness_walk_succeeds_exactly_on_the_flat_connected_quandles():
    # The walk keeps its generators only when they reach every point from 0,
    # so it also decides connectivity: it returns None on a disconnected
    # quandle even when Dis is abelian, as on T_n, R_4, R3xT3 and R5xT3.
    # Both sides are read off their definitions: the orbit of 0 under the
    # closed inner group, and Dis closed from every s_x . s_y.
    quandles = oracle_corpus() + [dihedral_quandle(4)]
    quandles += [direct_product(dihedral_quandle(m), trivial_quandle(3)) for m in (3, 5)]
    quandles += [trivial_quandle(n) for n in range(1, 7)]
    found = {}
    for X in quandles:
        rows = X.table
        connected = is_transitive(inner_group(X))
        abelian = is_abelian(closure([compose(rx, ry) for rx in rows for ry in rows]))
        assert (_flat_dis_generators(X) is not None) == (connected and abelian), X.table
        found[connected, abelian] = found.get((connected, abelian), 0) + 1
    assert found == {(True, True): 83, (True, False): 426, (False, True): 379, (False, False): 54}


def test_flatness_walk_refuses_the_transpositions_of_s4_at_the_commute_check():
    # The transpositions of S_4: a connected quandle of order 6 whose rows
    # are involutions, so s_0 . s_0 passes, and whose Dis has 12 elements.
    # Only the commute check of the walk can refuse it: the walk over
    # x -> s_x . s_0 meets two of its kept elements that do not commute.
    X = transposition_quandle(4)
    rows = X.table
    assert X.n == 6 and is_connected(X) and len(displacement_group(X)) == 12
    assert compose(rows[0], rows[0]) == identity_perm(6)
    assert perms._commuting_walk(6, 0, lambda x: compose(rows[x], rows[0])) is None
    assert _flat_dis_generators(X) is None and not is_flat(X)


def _generating_set(X):
    # Greedy: 0, then each point outside the subquandle generated so far,
    # which is the orbit of the chosen points under their own rows.
    S, reached = [0], orbit([X.table[0]], 0)
    for x in range(X.n):
        if x not in reached:
            S.append(x)
            rows = [X.table[a] for a in S]
            reached = set().union(*(orbit(rows, a) for a in S))
    return S


def test_generators_from_a_generating_set_close_dis_when_every_row_is_an_involution():
    # The rule `_flat_dis_generators` rests on: if every row is an involution
    # and S contains 0 and generates X, the s_a . s_0 for a in S generate Dis.
    # The condition is on every row: six disconnected quandles of order 5 have
    # an involutive s_0 and still break the rule.
    held = failed = failed_with_involutive_s0 = 0
    for X in oracle_corpus():
        ident, s0 = identity_perm(X.n), X.table[0]
        gens = [compose(X.table[a], s0) for a in _generating_set(X)]
        ruled = closure(gens).elements == displacement_group(X).elements
        if all(compose(row, row) == ident for row in X.table):
            assert ruled, X.table
            held += 1
        elif not ruled:
            failed += 1
            failed_with_involutive_s0 += compose(s0, s0) == ident
    assert (held, failed, failed_with_involutive_s0) == (343, 72, 6)
