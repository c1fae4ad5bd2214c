import gc
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import islice

import pytest

import quandles
from conftest import (
    affine5,
    affine_quandle,
    brute_force_automorphisms,
    conjugation_quandle,
    disjoint_union,
    every_table,
    labelled_quandles_to_order_5,
    oracle_corpus,
    pinned_point_quandle,
    relabeled,
    small_corpus,
    transposition_quandle,
    unchecked,
)
from quandles import (
    InvalidQuandleError,
    Quandle,
    analyze,
    automorphism_group,
    build_representatives,
    dihedral_quandle,
    direct_product,
    enumerate_quandles,
    find_isomorphism,
    is_flat,
    is_homogeneous,
    is_homomorphism,
    trivial_quandle,
    validate_quandle,
)
from quandles import isomorphism
from quandles.classify import _dihedral_product
from quandles.isomorphism import _generation_order, _isomorphisms, _point_profiles
from quandles.perms import compose, cycle_lengths, identity_perm, is_perm, orbit, perm_order


def test_identity_is_homomorphism():
    for X in small_corpus():
        assert is_homomorphism(identity_perm(X.n), X, X)


def test_constant_maps_are_homomorphisms():
    X = dihedral_quandle(4)
    Y = affine5()
    for c in range(Y.n):
        assert is_homomorphism([c] * X.n, X, Y)


def test_rotation_of_dihedral3_is_homomorphism():
    X = dihedral_quandle(3)
    assert is_homomorphism([1, 2, 0], X, X)


def test_non_homomorphism_detected():
    X = dihedral_quandle(3)
    assert not is_homomorphism([1, 0, 2], dihedral_quandle(3), trivial_quandle(3))
    assert not is_homomorphism([0, 2, 1], X, trivial_quandle(3))


def test_homomorphism_range_errors():
    X = dihedral_quandle(3)
    with pytest.raises(ValueError):
        is_homomorphism([0, 1], X, X)
    with pytest.raises(ValueError):
        is_homomorphism([0, 1, 3], X, X)


def test_find_isomorphism_dihedral15_factors():
    X = dihedral_quandle(15)
    Y = direct_product(dihedral_quandle(3), dihedral_quandle(5))
    w = find_isomorphism(X, Y)
    assert w is not None
    assert is_perm(w, 15)
    assert is_homomorphism(w, X, Y)


def test_find_isomorphism_distinguishes_dihedral9_from_product():
    assert (
        find_isomorphism(
            dihedral_quandle(9),
            direct_product(dihedral_quandle(3), dihedral_quandle(3)),
        )
        is None
    )


def test_find_isomorphism_self_is_identity_first():
    for X in (dihedral_quandle(6), affine5(), trivial_quandle(4)):
        assert find_isomorphism(X, X) == identity_perm(X.n)


def test_find_isomorphism_size_mismatch():
    assert find_isomorphism(dihedral_quandle(3), dihedral_quandle(4)) is None


def test_find_isomorphism_symmetric():
    pairs = [
        (dihedral_quandle(15), direct_product(dihedral_quandle(3), dihedral_quandle(5))),
        (dihedral_quandle(9), direct_product(dihedral_quandle(3), dihedral_quandle(3))),
        (trivial_quandle(3), dihedral_quandle(3)),
        (affine5(), dihedral_quandle(5)),
    ]
    for X, Y in pairs:
        assert (find_isomorphism(X, Y) is None) == (find_isomorphism(Y, X) is None)


def test_witnesses_are_bijective_homomorphisms():
    pairs = [
        (dihedral_quandle(15), direct_product(dihedral_quandle(3), dihedral_quandle(5))),
        (dihedral_quandle(6), direct_product(dihedral_quandle(2), dihedral_quandle(3))),
        (dihedral_quandle(10), direct_product(dihedral_quandle(2), dihedral_quandle(5))),
    ]
    for X, Y in pairs:
        w = find_isomorphism(X, Y)
        assert w is not None
        assert is_perm(w, X.n)
        assert is_homomorphism(w, X, Y)


def test_automorphism_group_sizes():
    assert len(automorphism_group(trivial_quandle(3))) == 6
    assert len(automorphism_group(trivial_quandle(4))) == 24
    assert len(automorphism_group(dihedral_quandle(3))) == 6
    assert len(automorphism_group(dihedral_quandle(4))) == 8


def test_automorphism_group_matches_brute_force():
    for X in labelled_quandles_to_order_5() + [
        dihedral_quandle(5),
        dihedral_quandle(6),
        trivial_quandle(4),
        affine5(),
        direct_product(dihedral_quandle(3), trivial_quandle(2)),
    ]:
        assert list(automorphism_group(X).elements) == brute_force_automorphisms(X)


def test_automorphism_group_matches_brute_force_on_relabelled_disconnected_quandles():
    # Aut = Inn . Aut_0 on each inner orbit: one stabilizer search from the
    # least candidate of each orbit, times a transversal of that orbit.  The
    # last four have inner orbits whose points differ in head, so the heads
    # keep some starts off some points.
    rng = random.Random(21)
    bases = [trivial_quandle(n) for n in (6, 7, 8)]
    bases += [dihedral_quandle(n) for n in range(4, 15, 2)]
    bases += [
        direct_product(dihedral_quandle(m), trivial_quandle(k))
        for m, k in ((3, 2), (3, 3), (5, 2), (4, 2), (3, 4))
    ]
    T1, R3 = trivial_quandle(1), dihedral_quandle(3)
    bases += [
        pinned_point_quandle(),
        disjoint_union(disjoint_union(T1, R3), T1),
        disjoint_union(dihedral_quandle(5), R3),
        disjoint_union(direct_product(R3, trivial_quandle(2)), T1),
    ]
    for X in bases:
        Y = relabeled(X, rng)
        assert list(automorphism_group(Y).elements) == brute_force_automorphisms(Y), X.table


def test_one_image_per_inner_orbit_gives_the_witness_of_every_image():
    # find_isomorphism tries f(0) only at the least candidate of each inner
    # orbit of Y; trying every point gives the same first witness.  In the
    # pinned-point quandle relabelled, 0 may be the point no automorphism
    # moves, so the witness must send 0 outside the orbit of 0.
    rng = random.Random(5)
    inputs = labelled_quandles_to_order_5() + [
        disjoint_union(dihedral_quandle(3), trivial_quandle(1)),
        disjoint_union(dihedral_quandle(5), dihedral_quandle(3)),
        direct_product(dihedral_quandle(3), trivial_quandle(2)),
        dihedral_quandle(12),
    ]
    outside = 0
    for X in inputs:
        for _ in range(3):
            Y = relabeled(X, rng)
            w = find_isomorphism(X, Y)
            assert w == next(_isomorphisms(X, Y)(range(X.n)), None), (X.table, Y.table)
            assert w is not None and is_homomorphism(w, X, Y)
            outside += w[0] not in orbit(Y.table, 0)
    assert outside > 0


def test_a_self_search_yields_the_maps_of_the_search_against_the_same_table():
    # Searched against itself, a quandle takes the heads of its profiles
    # alone and refutes nothing; it yields the same maps in the same order
    # as the search that profiles it against itself, from the default
    # images of f(0) and from every image.  No complete map is checked
    # again, so each is checked here: the starts' rows alone must make it a
    # homomorphism.
    rng = random.Random(22)
    searched = 0
    for X in oracle_corpus():
        if X.n > 16:
            continue
        for A in (X, relabeled(X, rng)):
            for images in (None, range(X.n)):
                own = list(islice(_isomorphisms(A)(images), 10))
                profiled = list(islice(_isomorphisms(A, A)(images), 10))
                assert own == profiled, A.table
                assert own
                for f in own:
                    assert is_homomorphism(f, A, A), (A.table, f)
            searched += 1
    assert searched == 2 * 495


def test_automorphism_group_contains_rows():
    for X in small_corpus():
        aut = automorphism_group(X)
        for row in X.table:
            assert row in aut


def test_random_relabelings_are_always_found():
    # A false negative here would mean the pruning invariants are unsound.
    rng = random.Random(20240811)
    cases = [X for X in small_corpus() for _ in range(3)]
    # Orders 81 to 105, whose search must not depend on the labelling, and
    # two connected quandles that are not flat.
    cases += [
        reduce(direct_product, map(dihedral_quandle, factors))
        for factors in ((3, 3, 3, 3), (9, 9), (81,), (7, 5, 3))
    ]
    cases += [transposition_quandle(7), affine_quandle(41, 6)]
    for X in cases:
        Y = relabeled(X, rng)
        w = find_isomorphism(X, Y)
        assert w is not None
        assert is_homomorphism(w, X, Y)


def test_isomorphism_invariance_of_analysis():
    pairs = [
        (dihedral_quandle(15), direct_product(dihedral_quandle(3), dihedral_quandle(5))),
        (dihedral_quandle(6), direct_product(dihedral_quandle(2), dihedral_quandle(3))),
    ]
    for X, Y in pairs:
        assert find_isomorphism(X, Y) is not None
        assert analyze(X) == analyze(Y)


def test_search_leaves_no_garbage_cycles():
    # The search tables must be freed by reference counting alone: after a
    # search run out, one dropped after its first isomorphism (R_9 has 54 to
    # stop short of), all of Aut(R_9), and a homogeneity search that misses.
    X = dihedral_quandle(9)
    Y = relabeled(X, random.Random(9))
    XT = direct_product(dihedral_quandle(3), trivial_quandle(2))
    gc.collect()
    gc.disable()
    try:
        assert find_isomorphism(X, Y) is not None
        assert find_isomorphism(Y, X) is not None
        assert is_homogeneous(XT)
        assert len(automorphism_group(X)) == 54
        assert not is_homogeneous(pinned_point_quandle())
        assert gc.collect() == 0
    finally:
        gc.enable()


def _timed_out(signum, frame):
    raise TimeoutError("the call did not return within its bound")


def _bounded(call, *args):
    """call(*args), failing with TimeoutError if it runs past 2 s."""
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_search_returns_on_non_quandles_and_yields_isomorphisms_on_quandles():
    # Built without the axiom check, the search can meet rows that are not
    # permutations and rows the starts do not determine: every call must
    # still return.  `Quandle(table)` refuses every such table; on the 7
    # labelled quandles every map the search yields is a bijective
    # homomorphism.
    rng = random.Random(0)
    quandles = 0
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for n in (1, 2, 3):
            for table in every_table(n):
                X = unchecked(table)
                Y = relabeled(X, rng)
                _bounded(automorphism_group, X)
                _bounded(is_homogeneous, X)
                w = _bounded(find_isomorphism, X, Y)
                maps = [_bounded(lambda: list(_isomorphisms(*args)())) for args in ((X, X), (X,))]
                if validate_quandle(table):
                    with pytest.raises(InvalidQuandleError):
                        Quandle(table)
                    continue
                quandles += 1
                assert w is not None and sorted(w) == list(range(n)) and is_homomorphism(w, X, Y)
                for f in maps[0] + maps[1]:
                    assert sorted(f) == list(range(n)) and is_homomorphism(f, X, X), (table, f)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert quandles == 7


def test_a_self_search_stays_fast_on_inner_orbits_that_differ_in_head():
    # A start of a self-search tries only the points with its head.  Were it
    # to try every point, it would meet dead branches on each inner orbit of
    # another head, and backtracking would enumerate them once per
    # assignment of the points between: some relabellings of the first
    # union would then take tens of seconds.  Aut of the second has
    # 6 * 20 * 42 * 2 elements; that of the first has too many to list.
    R, T2 = dihedral_quandle, trivial_quandle(2)
    X = reduce(disjoint_union, [R(3), R(5), R(7), R(9), R(11), T2])
    A = reduce(disjoint_union, [R(3), R(5), R(7), T2])
    rng = random.Random(26)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for Y in [relabeled(X, rng) for _ in range(8)]:
            assert not _bounded(is_homogeneous, Y)
        for B in [relabeled(A, rng) for _ in range(4)]:
            assert not _bounded(is_homogeneous, B)
            assert len(_bounded(automorphism_group, B)) == 6 * 20 * 42 * 2
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_search_keeps_nothing_of_size_n_squared():
    # R_729 has 531,441 cells: a relabelled copy of the table, or one entry
    # per pair of points, would hold tens of MB.
    Y = dihedral_quandle(729)
    X = relabeled(Y, random.Random(729))
    tracemalloc.start()
    try:
        w = find_isomorphism(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and is_homomorphism(w, X, Y)
    assert peak < 5_000_000


def test_flatness_keeps_nothing_of_size_n():
    # Dis of R_729 has 729 elements of 729 points each, about 4 MB as tuples;
    # the walk keeps a few generators of them and the orbit of 0.
    X = relabeled(dihedral_quandle(729), random.Random(729))
    tracemalloc.start()
    try:
        flat = is_flat(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat
    assert peak < 500_000


def test_search_depth_does_not_depend_on_the_recursion_limit():
    # A search that recursed once per point would need 243 frames; it runs in
    # a subprocess so that this process keeps its own recursion limit.
    code = (
        "import random, sys\n"
        "from conftest import relabeled\n"
        "from quandles import dihedral_quandle, find_isomorphism, is_homomorphism\n"
        "X, Y = relabeled(dihedral_quandle(243), random.Random(243)), dihedral_quandle(243)\n"
        "sys.setrecursionlimit(150)\n"
        "w = find_isomorphism(X, Y)\n"
        "sys.exit(0 if w is not None and is_homomorphism(w, X, Y) else 1)\n"
    )
    src = os.path.dirname(os.path.dirname(quandles.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _profiles_by_definition(X):
    # Each point on its own, and the order of s_x . s_y for every x, not once
    # per inner orbit, once per cycle of s_y or once per cycle of s_x . s_y.
    rows = X.table
    return [
        (
            len(orbit(rows, y)),
            cycle_lengths(ry),
            sum(r[y] == y for r in rows),
            tuple(sorted(perm_order(compose(rx, ry)) for rx in rows)),
        )
        for y, ry in enumerate(rows)
    ]


def test_point_profiles_match_the_all_x_definition():
    for X in oracle_corpus():
        assert _point_profiles(X) == _profiles_by_definition(X), X.table


def test_point_profiles_match_the_definition_on_long_and_mixed_walks():
    # Orders of s_x . s_y are walked along the cycles of that product when
    # s_x and s_y are involutions: long walks in R_12, R_7 x T_2 and the
    # order-81 products; rows only partly involutions in R_9 beside
    # Aff(Z_7, 3); and in the transpositions and 3-cycles of S_4, a
    # transposition s_y and a 3-cycle s_x whose product moves x off the
    # cycle of s_y, where walking without both involutions goes wrong.
    inputs = [
        dihedral_quandle(12),
        direct_product(dihedral_quandle(7), trivial_quandle(2)),
        disjoint_union(dihedral_quandle(9), affine_quandle(7, 3)),
        conjugation_quandle(4, (1, 1, 2), (1, 3)),
        *build_representatives(81),
    ]
    for X in inputs:
        assert validate_quandle(X.table) == []
        assert _point_profiles(X) == _profiles_by_definition(X), X.table


def test_point_profiles_keep_no_table_sized_memo():
    # 50 disjoint copies of R_3: 150 points in 50 inner orbits of 3, and each
    # row fixes the other 49 copies, so many products s_x . s_y are equal.  A
    # memo keyed by the composed tuple and shared across representatives held
    # 8.1 MB here; keyed by the row and started afresh per representative it
    # holds 0.14 MB.
    X = reduce(disjoint_union, [dihedral_quandle(3)] * 50)
    assert X.n == 150
    tracemalloc.start()
    try:
        profiles = _point_profiles(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert profiles == _profiles_by_definition(X)


def _refuted_against(tables):
    """Checks `_point_profiles(Y, against)` for each (Y, X) from `tables`, an
    iterable of pairs of quandles: None iff the sorted profiles differ, else
    Y's own profiles.  Returns the number of pairs and of those refuted."""
    pairs = refuted = 0
    profiles = {}
    for Y, X in tables:
        for Z in (X, Y):
            if id(Z) not in profiles:
                profiles[id(Z)] = Z, _point_profiles(Z), sorted(_point_profiles(Z))
        (_, px, sx), (_, py, sy) = profiles[id(X)], profiles[id(Y)]
        got = _point_profiles(Y, px)
        if sx != sy:
            assert got is None, (X.table, Y.table)
            refuted += 1
        else:
            assert got == py, (X.table, Y.table)
        pairs += 1
    return pairs, refuted


def test_point_profiles_against_are_none_exactly_when_the_sorted_profiles_differ():
    # Every ordered pair of distinct tables of one order in the oracle corpus,
    # and each labelled quandle of order at most 3 against a relabelling of
    # itself, the next one and a seeded draw.
    by_order = {}
    for X in oracle_corpus():
        by_order.setdefault(X.n, []).append(X)
    pairs = ((Y, X) for same in by_order.values() for X in same for Y in same if Y is not X)
    assert _refuted_against(pairs) == (313952, 285428)
    rng = random.Random(3)
    tables = {n: list(enumerate_quandles(n)) for n in (1, 2, 3)}
    pairs = (
        (Y, X)
        for same in tables.values()
        for k, Y in enumerate(same)
        for X in (relabeled(Y, rng), same[k - 1], rng.choice(same))
    )
    assert _refuted_against(pairs) == (21, 6)


def _count_perm_orders(monkeypatch):
    calls = []
    perm_order = isomorphism.perm_order
    monkeypatch.setattr(isomorphism, "perm_order", lambda p: calls.append(p) or perm_order(p))
    return calls


def test_refutation_stops_before_the_orders_it_does_not_need(monkeypatch):
    # R_3^4 and R_81 share every head, (81, one fixed point and 40
    # transpositions, 1), but in R_81 only two products s_x . s_y have order 3
    # and in R_3^4 all but one do: the count of 3 passes 2 after a few orders.
    calls = _count_perm_orders(monkeypatch)
    Y, X = _dihedral_product((3, 3, 3, 3)), _dihedral_product((81,))
    px = _point_profiles(X)
    calls.clear()
    full = _point_profiles(Y)
    assert full[0][:3] == px[0][:3] and len(calls) > 3
    whole, calls[:] = len(calls), []
    assert _point_profiles(Y, px) is None
    assert 0 < len(calls) < whole
    # Aff(Z_5, 2) has 4-cycles for rows and R_5 transpositions: no order is
    # computed at all.
    px = _point_profiles(dihedral_quandle(5))
    calls.clear()
    assert _point_profiles(affine5(), px) is None and calls == []


def _generation_order_over_every_pair(X):
    # By the definition: the pairs of every point are scanned, even after
    # all n points are placed.
    rows = X.table
    order, pins = [0], [None] * X.n
    seen = [True] + [False] * (X.n - 1)
    for k, p in enumerate(order):
        for q in order[: k + 1]:
            for a, b in ((p, q), (q, p)):
                r = rows[a][b]
                if not seen[r]:
                    seen[r] = True
                    order.append(r)
                    pins[r] = (a, b)
        if k + 1 == len(order) < X.n:
            start = seen.index(False)
            seen[start] = True
            order.append(start)
    return order, pins


def test_generation_order_matches_the_scan_of_every_pair():
    rng = random.Random(16)
    inputs = [unchecked(table) for n in (1, 2, 3) for table in every_table(n)] + oracle_corpus()
    for X in inputs + [relabeled(X, rng) for X in inputs]:
        assert _generation_order(X) == _generation_order_over_every_pair(X), X.table
