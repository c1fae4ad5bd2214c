import json
import time

from conftest import transposition_quandle
from quandles import (
    Quandle,
    dihedral_quandle,
    dumps_quandle,
    find_isomorphism,
    is_homomorphism,
    trivial_quandle,
)
from quandles.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_make_dihedral(capsys):
    code, out, _ = run(capsys, ["make", "dihedral", "3"])
    assert code == 0
    assert out.strip() == '{"n":3,"table":[[0,2,1],[2,1,0],[1,0,2]]}'


def test_make_trivial_and_product(capsys, tmp_path):
    f3 = write(tmp_path, "r3.json", dumps_quandle(dihedral_quandle(3)))
    f5 = write(tmp_path, "r5.json", dumps_quandle(dihedral_quandle(5)))
    code, out, _ = run(capsys, ["make", "trivial", "2"])
    assert code == 0 and json.loads(out) == {"n": 2, "table": [[0, 1], [0, 1]]}
    code, out, _ = run(capsys, ["make", "product", f3, f5])
    assert code == 0
    assert json.loads(out)["n"] == 15


def test_make_from_triplet(capsys, tmp_path):
    path = write(
        tmp_path,
        "t.json",
        json.dumps({"cyclic_factors": [5], "K": "trivial", "sigma": "negation"}),
    )
    code, out, _ = run(capsys, ["make", "from-triplet", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5


def test_make_from_malformed_triplet(capsys, tmp_path):
    path = write(tmp_path, "t.json", '{"mul":[[0]],"K":5,"sigma":[0]}')
    code, out, err = run(capsys, ["make", "from-triplet", path])
    assert code == 2 and out == "" and "'K' must be a list" in err


def test_make_usage_errors(capsys):
    code, _, err = run(capsys, ["make", "dihedral"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["make", "dihedral", "x"])
    assert code == 2
    code, _, err = run(capsys, ["make", "dihedral", "0"])
    assert code == 2


def test_validate_exit_codes(capsys, tmp_path):
    good = write(tmp_path, "good.txt", "3\n0 2 1\n2 1 0\n1 0 2\n")
    code, out, _ = run(capsys, ["validate", good])
    assert code == 0
    assert json.loads(out) == {"n": 3, "valid": True, "violations": []}

    bad = write(tmp_path, "bad.json", '{"n":2,"table":[[1,0],[1,0]]}')
    code, out, _ = run(capsys, ["validate", bad])
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert {"axiom": "Q1", "witness": [0]} in report["violations"]

    malformed = write(tmp_path, "m.txt", "2\n0 1\n")
    code, _, err = run(capsys, ["validate", malformed])
    assert code == 2 and "line" in err

    code, _, err = run(capsys, ["validate", str(tmp_path / "does-not-exist")])
    assert code == 2


def test_analyze(capsys, tmp_path):
    f = write(tmp_path, "r5.json", dumps_quandle(dihedral_quandle(5)))
    code, out, _ = run(capsys, ["analyze", f])
    assert code == 0
    assert json.loads(out) == {
        "n": 5,
        "connected": True,
        "flat": True,
        "involutive": True,
        "homogeneous": True,
        "inn_order": 10,
        "dis_order": 5,
    }


def test_analyze_rejects_invalid_quandle(capsys, tmp_path):
    f = write(tmp_path, "bad.json", '{"n":2,"table":[[1,0],[1,0]]}')
    code, _, err = run(capsys, ["analyze", f])
    assert code == 2


def test_iso(capsys, tmp_path):
    import quandles

    r15 = write(tmp_path, "r15.json", dumps_quandle(dihedral_quandle(15)))
    prod = write(
        tmp_path,
        "p.json",
        dumps_quandle(
            quandles.direct_product(dihedral_quandle(3), dihedral_quandle(5))
        ),
    )
    code, out, _ = run(capsys, ["iso", r15, prod])
    assert code == 0
    witness = json.loads(out)
    assert is_homomorphism(
        witness,
        dihedral_quandle(15),
        quandles.direct_product(dihedral_quandle(3), dihedral_quandle(5)),
    )

    r9 = write(tmp_path, "r9.json", dumps_quandle(dihedral_quandle(9)))
    p33 = write(
        tmp_path,
        "p33.json",
        dumps_quandle(
            quandles.direct_product(dihedral_quandle(3), dihedral_quandle(3))
        ),
    )
    code, out, _ = run(capsys, ["iso", r9, p33])
    assert code == 1
    assert out.strip() == "none"


def test_triplet_command(capsys, tmp_path):
    f = write(tmp_path, "r5.json", dumps_quandle(dihedral_quandle(5)))
    code, out, _ = run(capsys, ["triplet", f])
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 5
    assert obj["K"] == [0]
    assert obj["certificates"] == {
        "group_abelian": True,
        "stabilizer_trivial": True,
        "sigma_involutive": True,
        "fix_set_trivial": True,
        "sigma_is_inversion": True,
    }
    assert sorted(obj["witness"]) == [0, 1, 2, 3, 4]

    # disconnected input: triplet still derived, no witness
    f4 = write(tmp_path, "r4.json", dumps_quandle(dihedral_quandle(4)))
    code, out, _ = run(capsys, ["triplet", f4])
    assert code == 0
    obj = json.loads(out)
    assert obj["witness"] is None
    assert obj["certificates"]["group_abelian"] is True

    # Dis of the S_8 transpositions is A_8, over the group cap: refused fast.
    t8 = write(tmp_path, "t8.json", dumps_quandle(transposition_quandle(8)))
    start = time.perf_counter()
    code, out, err = run(capsys, ["triplet", t8])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "cap" in err


def test_classify_command(capsys, tmp_path):
    f9 = write(tmp_path, "r9.json", dumps_quandle(dihedral_quandle(9)))
    code, out, _ = run(capsys, ["classify", f9])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 9 and obj["factors"] == [9]

    t2 = write(tmp_path, "t2.json", dumps_quandle(trivial_quandle(2)))
    code, out, err = run(capsys, ["classify", t2])
    assert code == 1
    assert json.loads(out) == {"certificate": "not-connected"}
    assert "not-connected" in err

    aff = write(
        tmp_path,
        "aff.json",
        json.dumps(
            {
                "n": 5,
                "table": [
                    [(-x + 2 * y) % 5 for y in range(5)] for x in range(5)
                ],
            }
        ),
    )
    code, out, _ = run(capsys, ["classify", aff])
    assert code == 1
    assert json.loads(out) == {"certificate": "not-flat"}


def test_predict(capsys):
    code, out, _ = run(capsys, ["predict", "45"])
    assert code == 0
    assert json.loads(out) == {"n": 45, "count": 2, "multisets": [[9, 5], [5, 3, 3]]}
    code, out, _ = run(capsys, ["predict", "6"])
    assert json.loads(out) == {"n": 6, "count": 0, "multisets": []}
    code, _, _ = run(capsys, ["predict", "0"])
    assert code == 2


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, ["enumerate", "--order", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1]) == {"summary": True, "order": 3, "count": 5}
    tables = [json.loads(line)["table"] for line in lines[:-1]]
    assert [[0, 2, 1], [2, 1, 0], [1, 0, 2]] in tables


def test_enumerate_flat_connected(capsys):
    code, out, _ = run(capsys, ["enumerate", "--order", "4", "--flat-connected"])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"summary": True, "order": 4, "classes": 0}


def test_enumerate_flat_connected_order_5_prints_r5_then_the_summary(capsys):
    code, out, err = run(capsys, ["enumerate", "--order", "5", "--flat-connected"])
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[0]["n"] == 5
    assert find_isomorphism(Quandle(lines[0]["table"]), dihedral_quandle(5)) is not None
    assert lines[1] == {"summary": True, "order": 5, "classes": 1}


def test_input_errors_exit_2_with_nothing_on_stdout(capsys, tmp_path, monkeypatch):
    f3 = write(tmp_path, "r3.json", dumps_quandle(dihedral_quandle(3)))
    t = write(tmp_path, "t.json", json.dumps({"cyclic_factors": [3]}))
    cases = [
        (["make", "product", f3], "make product expects two quandle files"),
        (["make", "from-triplet", t, t], "make from-triplet expects one triplet file"),
        (["catalog", "--max", "0"], "--max must be positive"),
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (2, "", f"error: {message}\n")
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "abc")
    code, out, err = run(capsys, ["enumerate", "--order", "3"])
    assert (code, out, err) == (2, "", "error: QUANDLE_MAX_ORDER='abc' is not an integer\n")


def test_enumerate_respects_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "2")
    code, _, err = run(capsys, ["enumerate", "--order", "3"])
    assert code == 2 and "cap" in err
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "3")
    code, _, _ = run(capsys, ["enumerate", "--order", "3"])
    assert code == 0


def test_enumerate_budget(capsys):
    code, _, err = run(capsys, ["enumerate", "--order", "4", "--budget", "3"])
    assert code == 2 and "budget" in err


def test_catalog(capsys):
    code, out, _ = run(capsys, ["catalog", "--max", "9"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [entry["n"] for entry in lines] == [1, 3, 5, 7, 9]
    assert lines[-1] == {"n": 9, "count": 2, "factors": [[9], [3, 3]]}
    assert lines[0] == {"n": 1, "count": 1, "factors": [[]]}


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    f = write(tmp_path, "r9.json", dumps_quandle(dihedral_quandle(9)))
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, ["classify", f])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_usage_errors(capsys):
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["enumerate"])[0] == 2
    assert run(capsys, ["iso", "only-one"])[0] == 2
