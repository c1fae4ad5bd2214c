"""The four benchmark workloads: their inputs, the timed call of each op, and its check.

A workload runs in passes.  Each pass is a list of ops; pass k of a workload
depends only on the seed and k, so the same seed always gives the same ops in
the same order.  Every op carries its own check, run outside the timed call.

The library is reached only through the package object handed to each
workload, and every name is looked up when an op runs, so wrappers installed
by the tracer after set-up are seen.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# Shared by `classify` and `analyze`: the per-call latency limit.  No input
# of their timed mixes comes near it (the slowest relabelling seen, out of 200
# per input, took 0.3 s), so it guards against a hang and an op that hits it
# is a defect that shows as a failed op.
LIMIT_S = 10.0
# The known-defect probes of a traced run stop at this limit; they reach it
# on most relabellings today.
PROBE_LIMIT_S = 0.5

ROUNDTRIP_MAX = 105
# Relabelled dihedral products whose classify time hardly depends on the
# relabelling: over 200 relabellings none took more than about 5 times its
# median.  From order 21 up some relabellings take 10 to 50 times the
# median (R23 up to 0.8 s, R7xR3 up to 1.5 s), so a timed run would measure
# which relabellings it drew; from 27 up some take over a second.  The
# costliest of those are probed instead.
CLASSIFY_INPUTS = ((3, 3), (9,), (11,), (13,), (5, 3), (17,), (19,))
CLASSIFY_PROBES = ((5, 3, 3), (9, 5), (13, 3), (43,))
CLI_TIMEOUT_S = 60.0


class Op(NamedTuple):
    """One timed call into the program and the check of its answer."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    relabelling: tuple | None = None  # (base quandle, perm, relabelled quandle)


# ---------------------------------------------------------------------------
# Independent answers: computed here from the constructions, never by the
# library code under test.
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def expected_multisets(n: int) -> list[tuple[int, ...]]:
    """Multisets of odd prime powers with product n, each sorted descending."""
    if n % 2 == 0:
        return []
    powers = sorted(
        (p**e for p, a in _prime_factors(n).items() for e in range(1, a + 1)),
        reverse=True,
    )
    out = []

    def extend(rest, largest, prefix):
        if rest == 1:
            out.append(tuple(prefix))
            return
        for q in powers:
            if q <= largest and rest % q == 0:
                extend(rest // q, q, prefix + [q])

    extend(n, n, [])
    return sorted(out)


def multiplicative_order(t: int, p: int) -> int:
    k, x = 1, t % p
    while x != 1:
        x = x * t % p
        k += 1
    return k


def expected_analysis(kind: str, *params: int) -> dict:
    """The `analyze` report that each construction fixes."""
    connected, flat, involutive = True, True, True
    if kind == "product":  # dihedral factors of odd order
        n = 1
        for q in params:
            n *= q
        inn, dis = 2 * n, n
    elif kind == "even_dihedral":  # R_n, n even and at least 4
        (n,) = params
        connected, inn, dis = False, n, n // 2
    elif kind == "alexander":  # Z_p, s_x(y) = t*y + (1-t)*x, t not +-1
        n, t = params
        flat = involutive = False
        inn = n * multiplicative_order(t, n)
        dis = n * multiplicative_order(t * t, n)
    elif kind == "trivial":
        (n,) = params
        connected, inn, dis = n == 1, 1, 1
    elif kind == "dihedral_x_trivial":  # R_m x T_k, m odd
        m, k = params
        n = m * k
        connected, inn, dis = False, 2 * m, m
    else:
        raise ValueError(f"unknown construction {kind!r}")
    return {
        "n": n,
        "connected": connected,
        "flat": flat,
        "involutive": involutive,
        "homogeneous": True,
        "inn_order": inn,
        "dis_order": dis,
    }


# ---------------------------------------------------------------------------
# Constructions and relabelling
# ---------------------------------------------------------------------------


def dihedral_product(q, factors):
    X = q.trivial_quandle(1)
    for m in factors:
        X = q.direct_product(X, q.dihedral_quandle(m))
    return X


def build(q, kind: str, *params: int):
    if kind == "product":
        return dihedral_product(q, params)
    if kind == "even_dihedral":
        return q.dihedral_quandle(params[0])
    if kind == "alexander":
        n, t = params
        return q.Quandle(
            [[(t * y + (1 - t) * x) % n for y in range(n)] for x in range(n)]
        )
    if kind == "trivial":
        return q.trivial_quandle(params[0])
    if kind == "dihedral_x_trivial":
        return q.direct_product(q.dihedral_quandle(params[0]), q.trivial_quandle(params[1]))
    raise ValueError(f"unknown construction {kind!r}")


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def relabel(table, perm) -> list[list[int]]:
    """Conjugate a table by perm: the result has s_{perm x}(perm y) = perm(s_x(y))."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        row, px = table[x], out[perm[x]]
        for y in range(n):
            px[perm[y]] = perm[row[y]]
    return out


def fresh_relabelling(q, rng: random.Random, base, seen: set):
    """(perm, relabelled quandle) for a table not yet in `seen`, which gains it."""
    while True:
        perm = random_perm(rng, base.n)
        table = tuple(map(tuple, relabel(base.table, perm)))
        if table not in seen:
            seen.add(table)
            return perm, q.Quandle(table)


def _name(kind: str, params) -> str:
    short = {"product": "R", "even_dihedral": "R", "alexander": "Aff",
             "trivial": "T", "dihedral_x_trivial": "RxT"}[kind]
    return short + "x".join(map(str, params))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: subclasses build their inputs in `setup` and their ops in `make_pass`."""

    name = ""
    limit_s: float | None = None
    in_process = True
    # The tail percentile, fixed per workload so that runs of different
    # lengths stay comparable.
    tail_pct = 90.0

    def __init__(self, q, seed: int):
        self.q = q
        self.seed = seed

    def setup(self) -> None:
        self.first = self.make_pass(0)

    def rng(self, k: int | str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def passes(self):
        yield self.first
        k = 1
        while True:
            yield self.make_pass(k)
            k += 1

    def make_pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Ops on known-defect inputs, run once by a traced run under PROBE_LIMIT_S."""
        return []


class Roundtrip(Workload):
    """The c09 computation in canonical labels: one op per odd order up to 105.

    It has no seed.  The orders run in one fixed shuffled order: the
    machine's speed drifts over a few seconds, and in ascending order all the
    orders near the median, or all the costliest ones, would share one
    stretch of it.
    """

    name = "roundtrip"

    def setup(self) -> None:
        self.orders = list(range(1, ROUNDTRIP_MAX + 1, 2))
        random.Random(self.name).shuffle(self.orders)
        super().setup()

    def make_pass(self, k: int) -> list[Op]:
        return [self._op(f"p{k}/n{n}", n) for n in self.orders]

    def _op(self, op_id: str, n: int) -> Op:
        q = self.q

        def run():
            multisets = q.odd_prime_power_multisets(n)
            reps = q.build_representatives(n)
            refuted = all(
                q.find_isomorphism(reps[i], reps[j]) is None
                for i in range(len(reps))
                for j in range(i + 1, len(reps))
            )
            factors = [q.classify_flat_connected(X).factors for X in reps]
            return len(reps), q.predicted_count(n), multisets, refuted, factors

        expected = expected_multisets(n)

        def check(result) -> bool:
            count, predicted, multisets, refuted, factors = result
            return (
                count == predicted == len(expected)
                and refuted
                and sorted(multisets) == expected
                and sorted(factors) == expected
            )

        return Op(op_id, run, check)


class Relabelled(Workload):
    """Base of `classify` and `analyze`: a pass is one op per input, in a
    shuffled order, each on a fresh relabelling of the input's table.

    Subclasses set `inputs` and `probe_inputs` in `setup`, as
    (name, table, expected answer), and make an op in `make_op`.
    """

    limit_s = LIMIT_S
    tail_pct = 95.0

    def make_pass(self, k: int) -> list[Op]:
        return self._ops(f"p{k}", self.rng(k), self.inputs)

    def probes(self) -> list[Op]:
        return self._ops("probe", self.rng("probe"), self.probe_inputs)

    def _ops(self, prefix, rng, inputs) -> list[Op]:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        seen: set = set()
        ops = []
        for i in order:
            name, base, expected = inputs[i]
            perm, X = fresh_relabelling(self.q, rng, base, seen)
            ops.append(self.make_op(f"{prefix}/{name}", base, expected, perm, X))
        return ops

    def make_op(self, op_id, base, expected, perm, X) -> Op:
        raise NotImplementedError


class Classify(Relabelled):
    """`classify_flat_connected` on fresh seeded relabellings of CLASSIFY_INPUTS."""

    name = "classify"

    def setup(self) -> None:
        self.inputs, self.probe_inputs = [
            [(_name("product", ms), dihedral_product(self.q, ms), ms) for ms in inputs]
            for inputs in (CLASSIFY_INPUTS, CLASSIFY_PROBES)
        ]
        super().setup()

    def make_op(self, op_id, P, ms, perm, X) -> Op:
        q = self.q

        def check(d) -> bool:
            w = tuple(d.witness)
            return (
                tuple(d.factors) == ms
                and sorted(w) == list(range(X.n))
                and q.is_homomorphism(w, X, P)
            )

        return Op(op_id, lambda: q.classify_flat_connected(X), check, (P, perm, X))


# (construction, parameters): connected flat, connected non-flat Alexander
# and disconnected quandles of order at most 14, whose relabellings all take
# about as long as each other.  Orders from 15 up are probed instead: R15,
# R5xR3 and R5xT3 take up to 0.5 s on some relabellings and Aff(Z_17, 3) up
# to 2.2 s, against medians of 17 to 93 ms.
ANALYZE_INPUTS = (
    [("product", (n,)) for n in (5, 7, 9, 11, 13)]
    + [("product", (3, 3))]
    + [("alexander", pt) for pt in ((5, 2), (7, 3), (11, 2), (13, 2))]
    + [("trivial", (n,)) for n in (6, 7, 8)]
    + [("dihedral_x_trivial", mk) for mk in ((3, 2), (3, 3), (5, 2), (7, 2))]
    + [("even_dihedral", (n,)) for n in (4, 6, 8, 10, 12, 14)]
)
# R3xR5xR7 runs for over 10 minutes today; the others for over a second on
# most relabellings.
ANALYZE_PROBES = (
    ("product", (7, 5, 3)), ("product", (27,)), ("product", (3, 3, 3)), ("alexander", (41, 6)),
)


class Analyze(Relabelled):
    """`analyze` on fresh seeded relabellings of ANALYZE_INPUTS."""

    name = "analyze"
    # T8, about 4 % of the ops, is the tail: p97 reads its exhaustive
    # automorphism search, where p95 would read whichever relabellings of
    # the other inputs happened to be slowest.
    tail_pct = 97.0

    def setup(self) -> None:
        q = self.q
        self.inputs, self.probe_inputs = [
            [(_name(kind, params), build(q, kind, *params), expected_analysis(kind, *params))
             for kind, params in inputs]
            for inputs in (ANALYZE_INPUTS, ANALYZE_PROBES)
        ]
        super().setup()

    def make_op(self, op_id, base, expected, perm, X) -> Op:
        q = self.q
        return Op(op_id, lambda: q.analyze(X), lambda r: r == expected, (base, perm, X))


class CliCommand(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


def _json_lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _is_iso(q, witness, X, Y) -> bool:
    w = tuple(witness)
    return sorted(w) == list(range(X.n)) and q.is_homomorphism(w, X, Y)


class Cli(Workload):
    """Sequential `python -m quandles.cli` subprocesses, one per op."""

    name = "cli"
    in_process = False

    def __init__(self, q, seed: int, workdir: Path, src: Path):
        super().__init__(q, seed)
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(src)}

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _relabelled(self, rng, base):
        perm, X = fresh_relabelling(self.q, rng, base, set())
        self.relabellings.append((base, perm, X))
        return X

    def setup(self) -> None:
        q = self.q
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.relabellings = []
        rng = self.rng(0)
        R = lambda *f: dihedral_product(q, f)  # noqa: E731
        big = self._relabelled(rng, R(7, 5, 3))
        text = self._relabelled(rng, R(3, 3, 3))
        broken = [list(row) for row in self._relabelled(rng, R(5)).table]
        a, b = broken[1].index(2), broken[1].index(3)
        broken[1][a], broken[1][b] = 3, 2  # rows stay permutations: only Q3 breaks
        cls_ms = (5, 3)
        cls_X = self._relabelled(rng, R(*cls_ms))
        iso_a, iso_b = self._relabelled(rng, R(3, 3)), self._relabelled(rng, R(3, 3))
        iso_c = self._relabelled(rng, R(9))
        tri = self._relabelled(rng, R(9))
        an = self._relabelled(rng, build(q, "alexander", 7, 3))
        dump = q.dumps_quandle
        f = {
            "big": self._write("big105.json", dump(big)),
            "text": self._write("r3r3r3.txt", "\n".join(
                [str(text.n)] + [" ".join(map(str, row)) for row in text.table]) + "\n"),
            "invalid": self._write("invalid.json", json.dumps({"n": 5, "table": broken})),
            "malformed": self._write("malformed.json", dump(R(5))[:-7]),
            "cls": self._write("classify.json", dump(cls_X)),
            "iso_a": self._write("iso_a.json", dump(iso_a)),
            "iso_b": self._write("iso_b.json", dump(iso_b)),
            "iso_c": self._write("iso_c.json", dump(iso_c)),
            "tri": self._write("triplet.json", dump(tri)),
            "an": self._write("analyze.json", dump(an)),
        }
        cls_P = R(*cls_ms)

        def made_dihedral(code, out):
            obj = json.loads(out)
            return code == 0 and obj["table"] == [
                [(2 * x - y) % 105 for y in range(105)] for x in range(105)
            ]

        def valid(n):
            return lambda code, out: code == 0 and json.loads(out) == {
                "n": n, "valid": True, "violations": []}

        def invalid(code, out):
            obj = json.loads(out)
            return (code == 1 and not obj["valid"] and obj["violations"]
                    and all(v["axiom"] == "Q3" for v in obj["violations"]))

        def predicted(code, out):
            obj = json.loads(out)
            return code == 0 and obj["count"] == len(expected_multisets(2025)) == 10 and sorted(
                tuple(m) for m in obj["multisets"]) == expected_multisets(2025)

        def catalog(code, out):
            rows = _json_lines(out)
            return code == 0 and [r["n"] for r in rows] == list(range(1, 106, 2)) and all(
                r["count"] == len(r["factors"])
                and sorted(tuple(m) for m in r["factors"]) == expected_multisets(r["n"])
                for r in rows)

        def enumerated(code, out):
            rows = _json_lines(out)
            return code == 0 and len(rows) == 2 and rows[-1] == {
                "summary": True, "order": 5, "classes": 1} and rows[0]["n"] == 5

        def classified(code, out):
            obj = json.loads(out)
            return (code == 0 and tuple(obj["factors"]) == cls_ms
                    and _is_iso(q, obj["witness"], cls_X, cls_P))

        def isomorphic(code, out):
            return code == 0 and _is_iso(q, json.loads(out), iso_a, iso_b)

        def triplet(code, out):
            obj = json.loads(out)
            return (code == 0 and all(obj["certificates"].values())
                    and obj["order"] == 9 and sorted(obj["witness"]) == list(range(9)))

        self.commands = [
            CliCommand(("make", "dihedral", "105"), made_dihedral),
            CliCommand(("validate", f["big"]), valid(105)),
            CliCommand(("validate", f["text"]), valid(27)),
            CliCommand(("validate", f["invalid"]), invalid),
            CliCommand(("validate", f["malformed"]), lambda code, out: code == 2 and out == ""),
            CliCommand(("predict", "2025"), predicted),
            CliCommand(("catalog", "--max", "105"), catalog),
            CliCommand(("enumerate", "--order", "5", "--flat-connected"), enumerated),
            CliCommand(("classify", f["cls"]), classified),
            CliCommand(("iso", f["iso_a"], f["iso_b"]), isomorphic),
            CliCommand(("iso", f["iso_a"], f["iso_c"]),
                       lambda code, out: code == 1 and out.strip() == "none"),
            CliCommand(("triplet", f["tri"]), triplet),
            CliCommand(("analyze", f["an"]), lambda code, out: code == 0 and json.loads(
                out) == expected_analysis("alexander", 7, 3)),
        ]
        super().setup()

    def make_pass(self, k: int) -> list[Op]:
        return [
            Op(f"p{k}/{c.argv[0]}#{i}", lambda c=c: self.run_subprocess(c.argv),
               lambda r, c=c: c.check(*r))
            for i, c in enumerate(self.commands)
        ]

    def run_subprocess(self, argv) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "quandles.cli", *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            env=self.env, cwd=self.workdir,
        )
        return proc.returncode, proc.stdout
