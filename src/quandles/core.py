"""Finite quandles stored as Cayley tables.

Storage convention: table[x][y] = s_x(y), so row x is the symmetry at x,
acting on the column index.  (The binary-operator form y * x would transpose
this; everything in this package reads tables row-first.)

The axioms, in table form:

    (Q1) table[x][x] == x for every x
    (Q2) every row is a permutation of {0..n-1}
    (Q3) table[x][table[y][z]] == table[table[x][y]][table[x][z]] for all x,y,z
"""

from __future__ import annotations

import json
from itertools import chain
from operator import add, itemgetter
from typing import NamedTuple


class FormatError(ValueError):
    """Input text does not parse as a quandle file."""


class AxiomViolation(NamedTuple):
    axiom: str  # "Q1" | "Q2" | "Q3"
    witness: tuple[int, ...]


class InvalidQuandleError(ValueError):
    """A table is structurally fine but breaks a quandle axiom."""

    def __init__(self, violations):
        self.violations = list(violations)
        first = ", ".join(
            f"{v.axiom} at {v.witness}" for v in self.violations[:3]
        )
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"table violates quandle axioms: {first}{more}")


def _check_shape(table) -> tuple[tuple[int, ...], ...]:
    """Normalize an n x n Cayley table to a tuple-of-tuples with entries in 0..n-1.

    Shared by quandle and group tables; malformed input raises ValueError.
    """
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


def _product_table(a, b) -> tuple[tuple[int, ...], ...]:
    """Componentwise product of two Cayley tables, pairs flattened row-major:
    (x, y) -> x*len(b) + y.

    Row (x, y) sends u*m + v to a[x][u]*m + b[y][v].  It is the flat row of y,
    which sends u*m + v to u*m + b[y][v], read at the positions a[x][u]*m + v:
    one itemgetter call per row, with one getter per x.  The flat row of y
    joins b[y] read in each block u*m .. u*m + m-1, one getter call per u.
    So all n^2 cells are copied at C speed.  A one-element b leaves a as it is.
    """
    m = len(b)
    if m == 1:
        return tuple(a)
    blocks = [tuple(range(u * m, u * m + m)) for u in range(len(a))]
    flats = [tuple(chain.from_iterable(map(itemgetter(*rb), blocks))) for rb in b]
    getters = [itemgetter(*chain.from_iterable(map(blocks.__getitem__, ra))) for ra in a]
    return tuple(chain.from_iterable(map(get, flats) for get in getters))


def _preserves(f, a, b) -> bool:
    """True iff f(a[x][y]) == b[f(x)][f(y)] for all x, y: f maps table a
    homomorphically into table b.  f must send 0..len(a)-1 into 0..len(b)-1."""
    f = tuple(f)
    at_f = itemgetter(*f)  # row -> row[f(0)], row[f(1)], ...
    return all(itemgetter(*row)(f) == at_f(b[fx]) for row, fx in zip(a, f))


class Quandle:
    """An n-element quandle as an immutable Cayley table.

    Instances are assumed to satisfy the axioms.  The public constructor
    checks only the shape, in n^2 steps: the axiom check takes n^3, and every
    construction in this package (trivial, dihedral, product, coset) is valid
    by construction.  Raw tables from outside enter through `as_quandle` or
    `load_quandle`, the validating boundary, which check the axioms first.
    The builders whose tables come from a checked order or from two checked
    quandles (trivial, dihedral, product), and `as_quandle` once it has
    checked the shape itself, pass `_trusted=True` and skip the shape check
    here; their rows must already be a tuple of n tuples of ints in 0..n-1.
    """

    __slots__ = ("n", "table")

    def __init__(self, table, *, _trusted: bool = False):
        rows = table if _trusted else _check_shape(table)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "table", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Quandle is immutable")

    def row(self, x: int) -> tuple[int, ...]:
        """The symmetry at x as an image tuple."""
        return self.table[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Quandle(n={self.n})"


def validate_quandle(table) -> list[AxiomViolation]:
    """Check the three axioms, returning every violation with a witness.

    Malformed input (non-square table, out-of-range or non-integer entries)
    raises ValueError before any axiom is examined.  (Q3) says that each
    row is an endomorphism of the table, so it is decided a whole row at a
    time by `_preserves`; the cells of a row are read only when it fails, to
    list its witnesses (x, y, z) in ascending order.
    """
    return _violations(_check_shape(table))


def _violations(rows) -> list[AxiomViolation]:
    """The axiom loop of `validate_quandle`, on rows `_check_shape` returned."""
    n = len(rows)
    violations = []
    full = set(range(n))
    for x in range(n):
        if rows[x][x] != x:
            violations.append(AxiomViolation("Q1", (x,)))
        if set(rows[x]) != full:
            violations.append(AxiomViolation("Q2", (x,)))
    # (Q3) is only meaningful on rows that are permutations; a non-bijective
    # row is already reported and would produce noise triples here.
    bad_rows = {v.witness[0] for v in violations if v.axiom == "Q2"}
    for x in range(n):
        rx = rows[x]
        if x in bad_rows or _preserves(rx, rows, rows):
            continue
        for y in range(n):
            if y in bad_rows or rx[y] in bad_rows:
                continue
            ry = rows[y]
            rxy = rows[rx[y]]
            for z in range(n):
                if rx[ry[z]] != rxy[rx[z]]:
                    violations.append(AxiomViolation("Q3", (x, y, z)))
    return violations


def as_quandle(table) -> Quandle:
    """Validate a raw table and wrap its checked rows; raises
    InvalidQuandleError on failure."""
    rows = _check_shape(table)
    violations = _violations(rows)
    if violations:
        raise InvalidQuandleError(violations)
    return Quandle(rows, _trusted=True)


def trivial_quandle(n: int) -> Quandle:
    """Every symmetry is the identity."""
    if n < 1:
        raise ValueError("quandle cardinality must be positive")
    row = tuple(range(n))
    return Quandle((row,) * n, _trusted=True)


def dihedral_quandle(n: int) -> Quandle:
    """Z_n with s_x(y) = 2x - y: the n-th roots of unity under point reflection.

    Row x counts down from 2x mod n: `_cyclic_table` slices n-1, ..., 0 run twice.
    """
    if n < 1:
        raise ValueError("quandle cardinality must be positive")
    return Quandle(_cyclic_table((n,), reflect=True), _trusted=True)


def _cyclic_table(factors, reflect: bool) -> tuple[tuple[int, ...], ...]:
    """Table of Z_k1 x ... x Z_kr, or with `reflect` of R_k1 x ... x R_kr, on
    pairs flattened row-major, folded one factor at a time from the last onto
    ((0,),); each k must be >= 1.  Row (x, y) of Z_k x Y sends u*m + v, m = |Y|,
    to ((x + u) mod k)*m + Y[y][v], and of R_k x Y to ((2x - u) mod k)*m + Y[y][v]:
    the k blocks w*m + Y[y], w ascending for Z_k and descending for R_k, run
    twice and sliced from the run's block x for Z_k, k-1 - 2x mod k for R_k."""
    table = ((0,),)
    for k in reversed(factors):
        m = len(table)
        shifts = sorted(list(range(0, k * m, m)) * m, reverse=reflect)  # each w*m, m times
        runs = [tuple(map(add, shifts, row * k)) * 2 for row in table]
        down = [*range((k - 1) * m, -1, -2 * m), *range((k - 1 - k % 2) * m, 0, -2 * m)]
        starts = down if reflect else range(0, k * m, m)  # k-1 - 2x mod k falls by 2 and wraps
        table = tuple(run[i : i + k * m] for i in starts for run in runs)
    return table


def direct_product(X: Quandle, Y: Quandle) -> Quandle:
    """Componentwise quandle on pairs, flattened row-major: (x, y) -> x*|Y| + y."""
    return Quandle(_product_table(X.table, Y.table), _trusted=True)


# ---------------------------------------------------------------------------
# Serialization.  Canonical JSON form: {"n": <int>, "table": [[...], ...]}.
# Plain-text alternative: first line n, then n lines of n integers.
# ---------------------------------------------------------------------------


def quandle_to_obj(X: Quandle) -> dict:
    return {"n": X.n, "table": [list(row) for row in X.table]}


def dumps_quandle(X: Quandle) -> str:
    return json.dumps(quandle_to_obj(X), separators=(",", ":"))


def _parse_json(text: str):
    """`json.loads`, with a syntax error raised as FormatError at its position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None


def parse_quandle_json(text: str) -> list[list[int]]:
    """Parse the JSON form into a raw table, without axiom checks."""
    obj = _parse_json(text)
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with keys 'n' and 'table'")
    if "table" not in obj:
        raise FormatError("missing key 'table'")
    table = obj["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise FormatError("'table' must be a list of rows")
    n = obj.get("n", len(table))
    if type(n) is not int:
        raise FormatError(f"'n' must be an integer, not {n!r}")
    if n != len(table):
        raise FormatError(f"'n' is {n} but table has {len(table)} rows")
    return table


def parse_quandle_text(text: str) -> list[list[int]]:
    """Parse the plain-text form into a raw table, without axiom checks."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise FormatError("line 1: empty input")
    header = lines[idx].split()
    if len(header) != 1:
        raise FormatError(f"line {idx + 1}: expected a single integer (the order)")
    try:
        n = int(header[0])
    except ValueError:
        raise FormatError(f"line {idx + 1}: {header[0]!r} is not an integer") from None
    if n < 1:
        raise FormatError(f"line {idx + 1}: order must be positive")
    table = []
    row_line = idx
    for r in range(n):
        row_line += 1
        if row_line >= len(lines):
            raise FormatError(f"line {row_line + 1}: expected row {r}, found end of input")
        parts = lines[row_line].split()
        if len(parts) != n:
            raise FormatError(
                f"line {row_line + 1}: expected {n} entries, found {len(parts)}"
            )
        row = []
        for c, tok in enumerate(parts):
            try:
                row.append(int(tok))
            except ValueError:
                raise FormatError(
                    f"line {row_line + 1}, entry {c + 1}: {tok!r} is not an integer"
                ) from None
        table.append(row)
    for extra in lines[row_line + 1 :]:
        if extra.strip():
            raise FormatError(f"line {row_line + 2}: trailing data after {n} rows")
        row_line += 1
    return table


def parse_quandle(text: str) -> list[list[int]]:
    """Detect JSON vs plain text by the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_quandle_json(text)
    return parse_quandle_text(text)


def load_quandle_table(path) -> list[list[int]]:
    with open(path, encoding="utf-8") as fh:
        return parse_quandle(fh.read())


def load_quandle(path) -> Quandle:
    """Parse and fully validate a quandle file."""
    return as_quandle(load_quandle_table(path))
