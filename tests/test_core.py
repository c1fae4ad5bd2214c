import random
from itertools import product

import pytest

from conftest import affine5, every_table, oracle_corpus
from quandles import (
    FiniteGroup,
    FormatError,
    InvalidQuandleError,
    Quandle,
    abelian_negation_triplet,
    as_quandle,
    closure,
    displacement_group,
    dihedral_quandle,
    direct_product,
    dumps_quandle,
    enumerate_quandles,
    find_isomorphism,
    parse_quandle,
    parse_quandle_json,
    parse_quandle_text,
    quandle_from_triplet,
    quandle_to_obj,
    trivial_quandle,
    validate_quandle,
)
from quandles import core
from quandles.core import _check_shape, _generators, _preserves, _product_table


def test_validate_dihedral3():
    assert validate_quandle([[0, 2, 1], [2, 1, 0], [1, 0, 2]]) == []


def test_validate_trivial2():
    assert validate_quandle([[0, 1], [0, 1]]) == []


def test_validate_reports_q1():
    violations = validate_quandle([[1, 0], [1, 0]])
    assert ("Q1", (0,)) in violations


def test_validate_reports_q2_on_constant_rows():
    # Constant rows satisfy neither bijectivity; the diagonal is fine.
    violations = validate_quandle([[0, 0], [1, 1]])
    axioms = {v.axiom for v in violations}
    assert axioms == {"Q2"}
    assert {v.witness for v in violations} == {(0,), (1,)}


def test_validate_reports_q3_with_witness():
    # Rows are permutations fixing the diagonal but break the third axiom.
    table = [
        [0, 2, 1, 3],
        [2, 1, 0, 3],
        [1, 0, 2, 3],
        [1, 0, 2, 3],
    ]
    violations = validate_quandle(table)
    assert violations
    assert {v.axiom for v in violations} == {"Q3"}
    x, y, z = violations[0].witness
    t = table
    assert t[x][t[y][z]] != t[t[x][y]][t[x][z]]


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate_quandle([[0, 1], [0]])
    with pytest.raises(ValueError):
        validate_quandle([[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        validate_quandle([])
    with pytest.raises(ValueError):
        validate_quandle([[0.0, 1.0], [0.0, 1.0]])


def brute_force_violations(table, xs=None) -> list[tuple]:
    """The axioms cell by cell: (Q1) and (Q2) per row, then (Q3) per triple
    (x, y, z), skipping triples whose x, y or s_x(y) is a row that is not a
    permutation.  `xs`, if given, are the only x whose (Q3) cells are read."""
    n = len(table)
    violations = []
    for x in range(n):
        if table[x][x] != x:
            violations.append(("Q1", (x,)))
        if sorted(table[x]) != list(range(n)):
            violations.append(("Q2", (x,)))
    bad_rows = {v[1][0] for v in violations if v[0] == "Q2"}
    for x, y, z in product(range(n) if xs is None else xs, range(n), range(n)):
        if bad_rows & {x, y, table[x][y]}:
            continue
        if table[x][table[y][z]] != table[table[x][y]][table[x][z]]:
            violations.append(("Q3", (x, y, z)))
    return violations


def perturbed(table, rng) -> list[list[int]]:
    """A copy of table with one to three cells changed: a swap within a row,
    which keeps it a permutation, or a cell set to any value, which may not."""
    n = len(table)
    out = [list(row) for row in table]
    for _ in range(rng.randint(1, 3)):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.5:
            out[x][y], out[x][z] = out[x][z], out[x][y]
        else:
            out[x][y] = z
    return out


def test_validate_matches_cell_loops_on_every_3x3_table():
    for table in every_table(3):
        assert validate_quandle(table) == brute_force_violations(table)


def test_validate_matches_cell_loops_on_perturbed_quandles():
    rng = random.Random(0)
    bases = [dihedral_quandle(n) for n in range(3, 10)]
    bases.append(direct_product(dihedral_quandle(3), trivial_quandle(3)))
    kinds = set()
    for X in bases:
        for _ in range(60):
            table = perturbed(X.table, rng)
            violations = validate_quandle(table)
            assert violations == brute_force_violations(table)
            kinds |= {v.axiom for v in violations}
    assert kinds == {"Q1", "Q2", "Q3"}


def one_cell_changes(table):
    """Every table made from `table` by setting one cell to another value,
    which leaves its row no permutation, or by swapping two cells of one
    row, which keeps every row a permutation."""
    n = len(table)
    for x, y in product(range(n), repeat=2):
        for v in range(n):
            if v != table[x][y]:
                out = [list(row) for row in table]
                out[x][y] = v
                yield out
        for z in range(y + 1, n):
            out = [list(row) for row in table]
            out[x][y], out[x][z] = out[x][z], out[x][y]
            yield out


def test_validate_matches_cell_loops_on_one_cell_changes():
    # The swaps reach the check on the generating rows: every row is a
    # permutation, and some tables break (Q3) only on rows outside S.
    kinds = set()
    for X in (dihedral_quandle(9), direct_product(dihedral_quandle(3), dihedral_quandle(3)), affine5()):
        for table in one_cell_changes(X.table):
            violations = validate_quandle(table)
            assert violations == brute_force_violations(table)
            kinds |= {v.axiom for v in violations}
    assert kinds == {"Q1", "Q2", "Q3"}


def with_transpositions(n, rows):
    """T_n with row x the transposition (a b) for each x: (a, b) of `rows`."""
    t = [list(range(n)) for _ in range(n)]
    for x, (a, b) in rows.items():
        t[x][a], t[x][b] = b, a
    return t


def test_validate_matches_cell_loops_on_the_oracle_corpus():
    # Larger inputs are checked row by row against the definition of (Q3):
    # the cell loop over every triple would take n^3 steps in Python.
    for X in oracle_corpus():
        t = X.table
        if X.n <= 15:
            assert validate_quandle(t) == brute_force_violations(t)
        else:
            assert all(_preserves(row, t, t) for row in t)
            assert validate_quandle(t) == []
    # T_n with two rows changed to transpositions: many points share one row,
    # and a changed row breaks (Q3) only at the y it moves.  An identity row
    # keeps (Q3) at every cell, s_x(s_y(z)) = s_y(z) = s_{s_x(y)}(s_x(z)), so
    # on T_300 the cell loop reads the cells of the two other rows.
    for rows in ({4: (1, 2), 1: (3, 5)}, {2: (0, 1), 0: (1, 2)}):
        t = with_transpositions(6, rows)
        assert validate_quandle(t) == brute_force_violations(t) != []
    t = with_transpositions(300, {5: (1, 2), 1: (3, 4)})
    expected = [("Q3", (5, y, z)) for y in (1, 2) for z in (3, 4)]
    assert validate_quandle(t) == brute_force_violations(t, xs=(1, 5)) == expected


def closure_under_rows(t, points) -> set:
    """The points reached from `points` by the rows of `points`."""
    reached, stack = set(points), list(points)
    while stack:
        y = stack.pop()
        for a in points:
            if t[a][y] not in reached:
                reached.add(t[a][y])
                stack.append(t[a][y])
    return reached


def test_generators_reach_every_point_and_are_least_first():
    rng = random.Random(1)
    tables = [X.table for X in oracle_corpus()[::7]]
    tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for n in range(1, 9)]
    for t in tables:
        n = len(t)
        S = _generators(t)
        assert closure_under_rows(t, S) == set(range(n))
        assert S[0] == 0
        for i in range(1, len(S)):
            assert S[i] == min(set(range(n)) - closure_under_rows(t, S[:i]))
    assert _generators(trivial_quandle(6).table) == list(range(6))
    assert _generators(dihedral_quandle(101).table) == [0, 1]


def cell_loop_shape(table):
    """The shape check cell by cell, as the definition reads."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise ValueError("empty table: at least one element is required")
    for x, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {x} has {len(row)} entries, expected {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry [{x}][{y}] = {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"entry [{x}][{y}] = {v} out of range 0..{n - 1}")
    return rows


class Label(int):
    """An int subclass: accepted as an entry, like a plain int."""


def test_shape_check_by_rows_matches_the_cell_loop():
    good = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    tables = [good, [], [[0]], [[True]], [[0, 1], [0]], [[0, 1, 2]] * 2]
    for x, y in product(range(3), repeat=2):
        for v in (-1, 3, 1.0, True, False, "1", None, Label(1), Label(5), 10**30, -(10**30)):
            t = [list(row) for row in good]
            t[x][y] = v
            tables.append(t)
    tables.append([[0, "a", 1], [2, 1, 0], [1, 0, 2]])  # min() of this row raises TypeError
    for t in tables:
        try:
            expected = cell_loop_shape(t)
        except ValueError as e:
            with pytest.raises(ValueError) as exc:
                _check_shape(t)
            assert str(exc.value) == str(e)
        else:
            assert _check_shape(t) == expected


def test_as_quandle_raises_with_violations():
    with pytest.raises(InvalidQuandleError) as exc:
        as_quandle([[1, 0], [1, 0]])
    assert exc.value.violations


def test_quandle_raises_on_exactly_the_tables_that_validation_flags():
    flagged = 0
    for n in (1, 2, 3):
        for table in every_table(n):
            violations = validate_quandle(table)
            if violations:
                flagged += 1
                with pytest.raises(InvalidQuandleError) as exc:
                    Quandle(table)
                assert exc.value.violations == violations
            else:
                assert Quandle(table).table == tuple(table) == as_quandle(table).table
    assert flagged == 1 + 16 + 19683 - (1 + 1 + 5)  # all but the labelled quandles


def test_q3_is_checked_once_per_distinct_row_of_the_generating_set(monkeypatch):
    # Every point of T_n is in S, and every row is the identity.
    calls = []
    preserves = core._preserves

    def counted(f, a, b, getters=None):
        calls.append(tuple(f))
        return preserves(f, a, b, getters)

    monkeypatch.setattr(core, "_preserves", counted)
    for n in (1, 2, 7, 300):
        calls.clear()
        assert validate_quandle(trivial_quandle(n).table) == []
        assert calls == [tuple(range(n))]
    # R_3 x T_100: S holds 0 and each point (0, y) after, 101 points with the
    # two distinct rows of (0, 0) and (1, 0).
    X = direct_product(dihedral_quandle(3), trivial_quandle(100))
    calls.clear()
    Quandle(X.table)
    assert calls == [X.table[0], X.table[100]]


def test_trivial_quandle():
    assert trivial_quandle(1).table == ((0,),)
    assert trivial_quandle(3).table == ((0, 1, 2),) * 3
    assert trivial_quandle(2).table == ((0, 1), (0, 1))
    with pytest.raises(ValueError):
        trivial_quandle(0)


def test_dihedral_quandle():
    assert dihedral_quandle(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert dihedral_quandle(1).table == ((0,),)
    assert dihedral_quandle(4).row(1) == (2, 1, 0, 3)
    for n in range(1, 61):
        assert dihedral_quandle(n).table == tuple(
            tuple((2 * x - y) % n for y in range(n)) for x in range(n)
        )
    with pytest.raises(ValueError):
        dihedral_quandle(0)


def test_constructors_satisfy_axioms():
    for n in range(1, 13):
        assert validate_quandle(trivial_quandle(n).table) == []
        assert validate_quandle(dihedral_quandle(n).table) == []


def test_corpus_members_are_quandles():
    from conftest import small_corpus

    for X in small_corpus():
        assert validate_quandle(X.table) == []


def test_direct_product_left_unit():
    for X in (dihedral_quandle(4), trivial_quandle(3), affine5()):
        assert direct_product(trivial_quandle(1), X).table == X.table


def test_direct_product_trivials():
    assert direct_product(trivial_quandle(2), trivial_quandle(2)) == trivial_quandle(4)


def test_direct_product_dihedral_3_5():
    P = direct_product(dihedral_quandle(3), dihedral_quandle(5))
    assert P.n == 15
    assert validate_quandle(P.table) == []
    assert find_isomorphism(P, dihedral_quandle(15)) is not None


def test_direct_product_cardinality_and_validity():
    for X, Y in [
        (dihedral_quandle(3), trivial_quandle(4)),
        (affine5(), dihedral_quandle(2)),
        (trivial_quandle(2), affine5()),
    ]:
        P = direct_product(X, Y)
        assert P.n == X.n * Y.n
        assert validate_quandle(P.table) == []
    # Every cell of the row-major product, on pairs of orders 1..9.
    factors = [trivial_quandle(n) for n in (1, 2, 4)]
    factors += [dihedral_quandle(n) for n in range(1, 10)] + [affine5()]
    for X in factors:
        for Y in factors:
            a, b, m = X.table, Y.table, Y.n
            assert _product_table(a, b) == tuple(
                tuple(a[x][u] * m + b[y][v] for u in range(X.n) for v in range(m))
                for x in range(X.n)
                for y in range(m)
            )


def test_trusted_constructions_store_checked_shapes():
    # trivial_quandle, dihedral_quandle, direct_product, the FiniteGroup
    # builders, quandle_from_triplet and enumerate_quandles skip the shape
    # check, so their tables must be exactly what the check would return.
    base = [trivial_quandle(n) for n in range(1, 13)]
    base += [dihedral_quandle(n) for n in range(1, 41)]
    built = base + [direct_product(X, affine5()) for X in base]
    built += [direct_product(X, Y) for X in base for Y in base if X.n * Y.n <= 60]
    cyclic = [FiniteGroup.cyclic(n) for n in range(1, 13)]
    groups = cyclic + [FiniteGroup.direct(G, H) for G in cyclic for H in cyclic]
    groups += [
        FiniteGroup.from_permutations(closure([(1, 0, 2), (0, 2, 1)]).elements),
        FiniteGroup.from_permutations(displacement_group(dihedral_quandle(9)).elements),
    ]
    tables = [X.table for X in built] + [G.mul for G in groups]
    tables += [
        quandle_from_triplet(abelian_negation_triplet(factors)).quandle.table
        for factors in ([2], [9], [3, 5], [4, 9])
    ]
    tables += [X.table for n in range(1, 5) for X in enumerate_quandles(n)]
    for table in tables:
        assert type(table) is tuple
        assert all(type(row) is tuple for row in table)
        assert _check_shape(table) == table


def test_direct_product_associative_up_to_isomorphism():
    triples = [
        (dihedral_quandle(2), dihedral_quandle(3), trivial_quandle(2)),
        (dihedral_quandle(3), trivial_quandle(2), dihedral_quandle(3)),
    ]
    for X, Y, Z in triples:
        left = direct_product(direct_product(X, Y), Z)
        right = direct_product(X, direct_product(Y, Z))
        assert find_isomorphism(left, right) is not None


def test_quandle_is_immutable_and_hashable():
    X = dihedral_quandle(3)
    with pytest.raises(AttributeError):
        X.n = 5
    assert X == dihedral_quandle(3)
    assert hash(X) == hash(dihedral_quandle(3))
    assert X != trivial_quandle(3)


def test_json_round_trip():
    X = dihedral_quandle(4)
    text = dumps_quandle(X)
    assert text == '{"n":4,"table":[[0,3,2,1],[2,1,0,3],[0,3,2,1],[2,1,0,3]]}'
    assert Quandle(parse_quandle(text)) == X
    assert quandle_to_obj(X)["n"] == 4


def test_text_round_trip():
    text = "3\n0 2 1\n2 1 0\n1 0 2\n"
    assert Quandle(parse_quandle(text)) == dihedral_quandle(3)


def test_text_parser_diagnostics():
    with pytest.raises(FormatError, match="line 1"):
        parse_quandle_text("")
    with pytest.raises(FormatError, match="line 2"):
        parse_quandle_text("2\n0 1 1\n0 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_quandle_text("2\n0 1\nx 1\n")
    with pytest.raises(FormatError, match="end of input"):
        parse_quandle_text("3\n0 1 2\n")
    with pytest.raises(FormatError, match="trailing"):
        parse_quandle_text("1\n0\n0\n")


def test_text_parser_rejects_bad_headers():
    cases = [
        ("2 2\n0 1\n0 1\n", "line 1: expected a single integer (the order)"),
        ("\n  two\n", "line 2: 'two' is not an integer"),
        ("0\n", "line 1: order must be positive"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as exc:
            parse_quandle_text(text)
        assert str(exc.value) == message


def test_json_parser_rejects_rows_that_are_not_lists():
    for text in ('{"table": [0, 1]}', '{"table": [[0], 0]}', '{"table": {"0": [0]}}'):
        with pytest.raises(FormatError, match="^'table' must be a list of rows$"):
            parse_quandle_json(text)


def test_json_parser_diagnostics():
    with pytest.raises(FormatError, match="line 1"):
        parse_quandle_json("{not json")
    with pytest.raises(FormatError, match="table"):
        parse_quandle_json('{"n": 2}')
    with pytest.raises(FormatError, match="'n' is 3"):
        parse_quandle_json('{"n": 3, "table": [[0, 1], [0, 1]]}')
    with pytest.raises(FormatError):
        parse_quandle_json('[1, 2, 3]')
    for text in (
        '{"n": true, "table": [[0]]}',
        '{"n": 2.0, "table": [[0, 1], [0, 1]]}',
        '{"n": "2", "table": [[0, 1], [0, 1]]}',
    ):
        with pytest.raises(FormatError, match="'n' must be an integer"):
            parse_quandle_json(text)
