import json
import subprocess
import sys
from fractions import Fraction

import pytest

from pfsym.cli import run
from pfsym.pfaffian import TriangularArray, upper_pairs
from pfsym.polyring import x


def invoke(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pfsym.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_expand_text_golden(capsys):
    assert run(["expand", "4", "--format", "text"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "a(1,2) * a(3,4) - a(1,3) * a(2,4) + a(1,4) * a(2,3)"


def test_expand_json(capsys):
    assert run(["expand", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"two_n": 2, "pfaffian": [{"coeff": "1", "vars": [["a", 1, 2, 1]]}]}


def test_matchings_line_count_and_signs(capsys):
    assert run(["matchings", "6", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 15
    records = [json.loads(line) for line in lines]
    assert records[0] == {"pairs": [[1, 2], [3, 4], [5, 6]], "sign": 1}
    assert {r["sign"] for r in records} == {1, -1}


def test_matchings_first_partner(capsys):
    assert run(["matchings", "6", "--first-partner", "3", "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(records) == 3
    assert all(r["pairs"][0] == [1, 3] for r in records)


def _write_array(tmp_path, two_n=4, mode="skew"):
    arr = TriangularArray(
        two_n, mode, {p: Fraction(i) for i, p in enumerate(upper_pairs(two_n), start=1)}
    )
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arr.to_json_obj()))
    return path, arr


def test_eval_and_det_files(tmp_path, capsys):
    path, _ = _write_array(tmp_path)
    assert run(["eval", str(path), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    # 1*6 - 2*5 + 3*4 = 8
    assert obj == {"two_n": 4, "mode": "skew", "pfaffian": "8"}
    assert run(["det", str(path), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["determinant"] == "64"


def test_eval_hook_agrees(tmp_path, capsys):
    path, _ = _write_array(tmp_path)
    assert run(["eval", str(path), "--hook", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pfaffian"] == "8"


def test_det_accepts_odd_sizes(tmp_path, capsys):
    obj = {
        "size": 3,
        "mode": "symmetric",
        "entries": {"1,2": "1", "1,3": "4", "2,3": "1"},
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(obj))
    assert run(["det", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["determinant"] == "8"


def test_eval_rejects_odd_sizes(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"size": 3, "mode": "symmetric",
                                "entries": {"1,2": "1", "1,3": "4", "2,3": "1"}}))
    code, _, err = invoke("eval", str(path))
    assert code == 2
    assert "two_n" in err or "even" in err


def test_malformed_file_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"two_n": 4, "mode": "skew", "entries": {"1,2": "1"}}))
    code, _, err = invoke("eval", str(path))
    assert code == 2
    assert "missing entry key '1,3'" in err

    path.write_text(json.dumps({"two_n": 4, "mode": "skew",
                                "entries": {"2,1": "1"}}))
    code, _, err = invoke("eval", str(path))
    assert code == 2
    assert "'2,1'" in err


def test_sym_builtin_pfaffian(capsys):
    assert run(["sym", "--pfaffian", "4", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 8 and obj["equals_dihedral"] is True
    assert run(["sym", "--pfaffian", "4", "--gens", "skew", "--signed", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 24 and obj["equals_dihedral"] is False


def test_sym_pfaffian_past_the_scan(capsys):
    # symmetric generators take the cut search at any even order
    assert run(["sym", "--pfaffian", "12", "--gens", "symmetric"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["order 24", "equals dihedral subgroup: True"]
    # skew generators list all of A_m or S_m, so they keep the cap
    assert run(["sym", "--pfaffian", "10", "--gens", "skew"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "two_n=10 exceeds the brute-force cap 8" in captured.err


def test_sym_poly_file(tmp_path, capsys):
    poly = (x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(4)) * (x(4) - x(1))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly.to_json_obj()))
    assert run(["sym", str(path), "--m", "4", "--format", "json", "--elements"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 8 and len(obj["elements"]) == 8
    code, _, err = invoke("sym", str(path))
    assert code == 2 and "--m" in err


def test_sym_requires_exactly_one_target():
    code, _, err = invoke("sym")
    assert code == 2 and "exactly one" in err
    # the built-in pfaffian acts in S_TWO_N, so an --m beside it is refused
    code, out, err = invoke("sym", "--pfaffian", "4", "--m", "6")
    assert code == 2 and out == ""
    assert "--m" in err and "--pfaffian" in err


def test_verify_exit_codes():
    code, out, _ = invoke("verify", "det-examples", "trig1")
    assert code == 0
    assert out.count("PASS") == 2
    # an absurd tolerance forces a numeric failure and exit code 1
    code, out, _ = invoke("verify", "theorem4", "--n", "2", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_all_small_range_exits_zero():
    code, out, _ = invoke("verify", "all", "--n", "1..2")
    assert code == 0
    assert "FAIL" not in out
    # every registered check contributes at least one line
    assert len(out.strip().splitlines()) >= 13


def test_verify_theorem3_runs_the_symbolic_half_at_n4():
    code, out, _ = invoke("verify", "theorem3", "--n", "4")
    assert code == 0
    assert out.startswith("PASS theorem3 n=4 [symbolic+rational]")


def test_verify_theorem1_reaches_n16_by_the_cut_search(capsys):
    assert run(["verify", "theorem1", "--n", "16"]) == 0
    assert capsys.readouterr().out.startswith("PASS theorem1 n=16 [symmetric-gens/cut-search]")
    assert run(["verify", "theorem1", "--n", "16", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True and obj["lhs"] == "order 64"
    assert run(["verify", "theorem1", "--n", "17"]) == 2
    assert "1..16" in capsys.readouterr().err


def test_verify_unknown_check_and_bad_range():
    code, _, err = invoke("verify", "nonsense")
    assert code == 2 and "unknown check" in err
    code, _, err = invoke("verify", "theorem3", "--n", "x..y")
    assert code == 2 and "--n" in err


def test_verify_named_check_without_runnable_n_is_an_error():
    for check, n, span in (
        ("matchings", "6", "1..5"),
        ("hook-oracle", "5", "2..4"),
        ("skew-det", "4", "1..3"),
        ("theorem2", "1", "2..4"),
    ):
        code, out, err = invoke("verify", check, "--n", n)
        assert code == 2 and out == "", check
        assert check in err and span in err, err
    code, out, err = invoke("verify", "theorem4", "--n", "0")
    assert code == 2 and out == "" and "theorem4" in err and ">= 1" in err
    # one runnable n is enough
    code, out, _ = invoke("verify", "skew-det", "--n", "3..4")
    assert code == 0 and out.startswith("PASS skew-det n=3")


def test_verify_all_runs_what_each_check_supports():
    code, out, err = invoke("verify", "all", "--n", "6")
    assert code == 0 and err == ""
    assert "FAIL" not in out
    assert "PASS theorem3 n=6" in out and "PASS theorem4 n=6" in out


def test_verify_pfaffian_checks_past_the_enumeration_cap():
    code, out, _ = invoke("verify", "theorem4", "--n", "9")
    assert code == 0 and out.startswith("PASS theorem4 n=9")
    code, out, _ = invoke("verify", "theorem3", "--n", "9")
    assert code == 0 and out.startswith("PASS theorem3 n=9")
    code, out, _ = invoke("verify", "theorem4", "--n", "20")
    assert code == 0 and out.startswith("PASS theorem4 n=20")
    code, out, _ = invoke("verify", "theorem3", "--n", "16")
    assert code == 0 and out.startswith("PASS theorem3 n=16")


def test_verify_json_is_schema_stable():
    code, out, _ = invoke("verify", "theorem3", "--n", "1..2", "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert set(obj) == {"check", "n", "mode", "pass", "residual", "lhs", "rhs", "seed"}
        assert obj["pass"] is True
        assert obj["seed"] == 0


def test_verify_deterministic_for_fixed_seed():
    first = invoke("verify", "theorem4", "trig1", "--seed", "11", "--format", "json")
    second = invoke("verify", "theorem4", "trig1", "--seed", "11", "--format", "json")
    assert first == second
    assert all(json.loads(line)["seed"] == 11 for line in first[1].strip().splitlines())


def test_verify_seed_independent_of_selection():
    alone = invoke("verify", "trig1", "--seed", "5", "--format", "json")[1]
    with_others = invoke("verify", "det-examples", "trig1", "--seed", "5", "--format", "json")[1]
    assert alone.strip() in with_others


def test_pf_cap_env_respected(tmp_path):
    import os

    env = dict(os.environ)
    env["PF_CAP"] = "4"
    proc = subprocess.run(
        [sys.executable, "-m", "pfsym.cli", "matchings", "6"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "cap" in proc.stderr


def test_expand_respects_cap():
    code, _, err = invoke("expand", "18")
    assert code == 2 and "cap" in err
