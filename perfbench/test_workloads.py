"""Checks of the benchmark's own inputs and answers.

    python3 -m pytest -q perfbench

None of these calls find_isomorphism: a relabelling is checked against the
permutation it records.
"""

import json
import re
import signal

import pytest

import run
import tracing
import workloads

q = run.import_package()


def _is_conjugate(base, perm, X) -> bool:
    n = base.n
    return sorted(perm) == list(range(n)) and all(
        X.table[perm[x]][perm[y]] == perm[base.table[x][y]]
        for x in range(n)
        for y in range(n)
    )


@pytest.fixture
def cli(tmp_path):
    wl = workloads.Cli(q, run.DEFAULT_SEED, tmp_path, run.SRC)
    wl.setup()
    return wl


@pytest.mark.parametrize("cls", [workloads.Classify, workloads.Analyze])
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
def test_relabellings_are_conjugations_and_valid_quandles(cls, seed):
    wl = cls(q, seed)
    wl.setup()
    passes = wl.passes()
    for _ in range(2):
        ops = next(passes)
        tables = [op.relabelling[2].table for op in ops]
        assert len(set(tables)) == len(tables)
        for op in ops:
            base, perm, X = op.relabelling
            assert _is_conjugate(base, perm, X)
            assert q.validate_quandle(X.table) == []
    for op in wl.probes():
        base, perm, X = op.relabelling
        assert _is_conjugate(base, perm, X)


def test_cli_files_are_conjugations_and_valid(cli):
    assert len(cli.relabellings) == 9
    for base, perm, X in cli.relabellings:
        assert _is_conjugate(base, perm, X)
        assert q.validate_quandle(X.table) == []


def test_same_seed_gives_same_ops():
    a, b = workloads.Classify(q, 3), workloads.Classify(q, 3)
    a.setup()
    b.setup()
    assert [op.relabelling[1] for op in a.make_pass(2)] == [
        op.relabelling[1] for op in b.make_pass(2)
    ]


def test_expected_multisets_match_the_library():
    for n in range(1, 106, 2):
        assert workloads.expected_multisets(n) == sorted(q.odd_prime_power_multisets(n))
        assert len(workloads.expected_multisets(n)) == q.predicted_count(n)


@pytest.mark.parametrize("kind,params", workloads.ANALYZE_INPUTS)
def test_expected_analysis_matches_canonical_labels(kind, params):
    X = workloads.build(q, kind, *params)
    assert q.analyze(X) == workloads.expected_analysis(kind, *params)


def test_cli_checks_accept_the_in_process_answers(cli):
    for c in cli.commands:
        assert c.check(*run.call_main(c.argv)), c.argv


def test_cli_checks_reject_a_wrong_answer(cli):
    for c in cli.commands:
        code, out = run.call_main(c.argv)
        assert not c.check(code + 1, out), c.argv


def test_deadline_is_recorded_with_its_span():
    signal.signal(signal.SIGALRM, run._on_alarm)
    wl = workloads.Analyze(q, run.DEFAULT_SEED)
    wl.setup()
    slow = next(op for op in wl.probes() if op.id.endswith("R7x5x3"))
    record = run.run_op(slow, 0.05)
    assert record.status == "deadline"
    assert record.detail in tracing.SPANS
    assert 0.05 <= record.elapsed < 1.0


def test_speed_scales_a_time_by_the_reference_samples_around_it():
    speed = run.Speed()
    speed.times = [1.0, 2.0, 3.0, 10.0]
    speed.refs = [run.REF_S, 2 * run.REF_S, 2 * run.REF_S, 4 * run.REF_S]
    # The samples within SPEED_WINDOW_S, and the nearest one on each side.
    assert speed.scaled(2.0, 0.9) == pytest.approx(0.9 / 2)
    assert speed.scaled(5.0, 1.0) == pytest.approx(1.0 / 3)
    speed = run.Speed()
    speed.sample()
    assert speed.refs[0] > 0


def test_tracer_restores_every_wrapped_name():
    tracing.Memos().clear()
    before = {id(m): dict(vars(m)) for m in tracing.package_modules().values()}
    tracer = tracing.Tracer().install()
    assert q.find_isomorphism is not before[id(q)]["find_isomorphism"]
    tracer.call(tracing.ROOT_SPAN, q.classify_flat_connected, q.dihedral_quandle(9))
    tracer.close()
    for m in tracing.package_modules().values():
        assert all(vars(m)[k] is v for k, v in before[id(m)].items())
    calls, self_s = tracer.totals()
    assert calls["classify.classify_flat_connected"] == 1
    assert calls["perms.closure"] >= 1
    assert tracer.calls["perms.compose"] > 0
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == (tracing.ROOT_SPAN, -1)
    assert abs(sum(self_s.values()) - (end - start)) < 1e-6


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, run._on_alarm)
    values, _, records = run.traced_run("classify", run.DEFAULT_SEED, 0.5)
    names = [m["name"] for m in spec["per_layer"]]
    assert set(names) <= set(values)
    assert all(values[f"{s}.self_s"] > 0 for s in tracing.SPANS)
    assert records


def test_benchmark_json_keeps_to_its_format():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == {"roundtrip", "classify", "analyze", "cli"}
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
