import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from pfsym import cli
from pfsym.cli import CHECKS, run
from pfsym.pfaffian import TriangularArray, upper_pairs
from pfsym.polyring import a, x


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


def test_det_rejects_a_boolean_size(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"size": True, "mode": "symmetric", "entries": {}}))
    code, out, err = invoke("det", str(path))
    assert code == 2 and out == ""
    assert "bad size True" in err


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
    assert captured.out == "" and "m=10 exceeds the enumeration cap 8" in captured.err


def test_sym_poly_file(tmp_path, capsys):
    poly = (x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(4)) * (x(4) - x(1))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly.to_json_obj()))
    assert run(["sym", str(path), "--m", "4", "--format", "json", "--elements"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 8 and len(obj["elements"]) == 8
    code, _, err = invoke("sym", str(path))
    assert code == 2 and "--m" in err


def test_sym_of_a_file_that_lists_a_variable_twice(tmp_path, capsys):
    # x1*x1^2 + x2^3 is x1^3 + x2^3, which the transposition (1 2) fixes
    outputs = []
    for first in ([["x", 1, 1], ["x", 1, 2]], [["x", 1, 3]]):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps([{"coeff": "1", "vars": first}, {"coeff": "1", "vars": [["x", 2, 3]]}]))
        assert run(["sym", str(path), "--m", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].splitlines()[0] == "order 2"


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


def test_verify_theorem1_reaches_n64_by_the_cut_search(capsys):
    assert run(["verify", "theorem1", "--n", "16"]) == 0
    assert capsys.readouterr().out.startswith("PASS theorem1 n=16 [symmetric-gens/cut-search]")
    assert run(["verify", "theorem1", "--n", "64", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True and obj["lhs"] == "order 256"
    assert run(["verify", "theorem1", "--n", "65"]) == 2
    assert "1..64" in capsys.readouterr().err


def test_verify_unknown_check_and_bad_range():
    code, _, err = invoke("verify", "nonsense")
    assert code == 2 and "unknown check" in err
    code, _, err = invoke("verify", "theorem3", "--n", "x..y")
    assert code == 2 and "--n" in err


def test_verify_named_check_without_runnable_n_is_an_error():
    for check, n, span in (
        ("matchings", "6", "1..5"),
        ("hook-oracle", "10", "2..9"),
        ("skew-det", "16", "1..15"),
        ("theorem2", "1", "2..4"),
        ("theorem3", "129", "1..128"),
        ("theorem4", "49", "1..48"),
    ):
        code, out, err = invoke("verify", check, "--n", n)
        assert code == 2 and out == "", check
        assert check in err and span in err, err
    code, out, err = invoke("verify", "theorem4", "--n", "0")
    assert code == 2 and out == "" and "theorem4" in err and "1..48" in err
    # one runnable n is enough
    code, out, _ = invoke("verify", "hook-oracle", "--n", "1..2")
    assert code == 0 and out.startswith("PASS hook-oracle n=2")


def test_verify_passes_each_check_only_the_n_of_its_range(capsys):
    for checks in (["theorem2", "theorem1"], ["all"]):
        assert run(["verify", *checks, "--n", "0..2"]) == 0
        wide = capsys.readouterr().out
        assert run(["verify", *checks, "--n", "1..2"]) == 0
        assert wide == capsys.readouterr().out


def test_verify_default_ns_lie_in_their_ranges():
    for name, (_, default_ns, supported) in CHECKS.items():
        if supported is None:
            assert default_ns == [None], name
        else:
            lo, hi = supported
            assert all(lo <= n and (hi is None or n <= hi) for n in default_ns), name


def test_verify_group_checks_reach_n6_on_generators(capsys):
    assert run(["verify", "dihedral-invariance", "--n", "6"]) == 0
    assert capsys.readouterr().out.startswith("PASS dihedral-invariance n=6")
    assert run(["verify", "ssym-skew", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("PASS ssym-skew n=4")
    for check in ("dihedral-invariance", "ssym-skew"):
        assert run(["verify", check, "--n", "7"]) == 2
        assert "1..6" in capsys.readouterr().err


# sigma sends a(1,2) to a(1,4); (1 2) sends a(1,3) to a(2,3), not to -a(1,3)
@pytest.mark.parametrize("check, term", [("dihedral-invariance", a(1, 2)), ("ssym-skew", a(1, 3))])
def test_verify_group_checks_catch_a_term_a_generator_moves(monkeypatch, capsys, check, term):
    generic = cli.generic_pfaffian
    monkeypatch.setattr(cli, "generic_pfaffian", lambda two_n: generic(two_n) + term)
    assert run(["verify", check, "--n", "2"]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {check} n=2")


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


def test_expand_respects_cap():
    code, _, err = invoke("expand", "18")
    assert code == 2 and "cap" in err


# The committed stdout of `pfsym verify all --seed 0`.  A refactor of the
# runners must leave it byte-identical; regenerate a file only when a
# check's output is meant to change.
VERIFY_GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "fmt, name", [("text", "verify_all_seed0.txt"), ("json", "verify_all_seed0.jsonl")]
)
def test_verify_all_output_is_golden(capsys, fmt, name):
    assert run(["verify", "all", "--seed", "0", "--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (VERIFY_GOLDEN / name).read_bytes()


# -- golden bytes of the Poly paths ---------------------------------------------

# A symmetric 4-point array of polynomials with integral and "1/2"-style
# coefficients, one rational scalar among them, and x and a variables mixed
# in one monomial.  The expected stdout below was captured byte for byte
# from the Fraction-coefficient Poly and must not change.
POLY_ARRAY = {
    "two_n": 4,
    "mode": "symmetric",
    "entries": {
        "1,2": [{"coeff": "1/2", "vars": [["x", 1, 1]]}, {"coeff": "1", "vars": []}],
        "1,3": [{"coeff": "2", "vars": [["x", 2, 1]]}],
        "1,4": [{"coeff": "-3", "vars": [["a", 1, 2, 1]]}],
        "2,3": [{"coeff": "1", "vars": [["a", 3, 4, 1], ["x", 1, 1]]}],
        "2,4": "1/3",
        "3,4": [{"coeff": "-1/2", "vars": [["x", 3, 2]]}, {"coeff": "4", "vars": [["x", 1, 1], ["x", 3, 1]]}],
    },
}

POLY_GOLDEN = {
    ("det", "text"): (
        '4/9 * x2^2 - 16/3 * x1 * x2 * x3 + 2/3 * x2 * x3^2 + 1/3 * x1 * x2 * x3^2 + 4 * '
        'x1 * x2 * a(1,2) * a(3,4) - 4 * x1 * x3^3 - 8/3 * x1^2 * x2 * x3 + 16 * x1^2 * '
        'x3^2 + 1/4 * x3^4 - 3 * x1 * x3^2 * a(1,2) * a(3,4) + 1/4 * x1 * x3^4 + 24 * '
        'x1^2 * x3 * a(1,2) * a(3,4) - 4 * x1^2 * x3^3 + 16 * x1^3 * x3^2 - 3/2 * x1^2 * '
        'x3^2 * a(1,2) * a(3,4) + 1/16 * x1^2 * x3^4 + 9 * x1^2 * a(1,2)^2 * a(3,4)^2 + '
        '12 * x1^3 * x3 * a(1,2) * a(3,4) - x1^3 * x3^3 + 4 * x1^4 * x3^2\n'
    ),
    ("det", "json"): (
        '{"determinant": [{"coeff": "4/9", "vars": [["x", 2, 2]]}, {"coeff": "-16/3", '
        '"vars": [["x", 1, 1], ["x", 2, 1], ["x", 3, 1]]}, {"coeff": "2/3", "vars": '
        '[["x", 2, 1], ["x", 3, 2]]}, {"coeff": "1/3", "vars": [["x", 1, 1], ["x", 2, '
        '1], ["x", 3, 2]]}, {"coeff": "4", "vars": [["x", 1, 1], ["x", 2, 1], ["a", 1, '
        '2, 1], ["a", 3, 4, 1]]}, {"coeff": "-4", "vars": [["x", 1, 1], ["x", 3, 3]]}, '
        '{"coeff": "-8/3", "vars": [["x", 1, 2], ["x", 2, 1], ["x", 3, 1]]}, {"coeff": '
        '"16", "vars": [["x", 1, 2], ["x", 3, 2]]}, {"coeff": "1/4", "vars": [["x", 3, '
        '4]]}, {"coeff": "-3", "vars": [["x", 1, 1], ["x", 3, 2], ["a", 1, 2, 1], ["a", '
        '3, 4, 1]]}, {"coeff": "1/4", "vars": [["x", 1, 1], ["x", 3, 4]]}, {"coeff": '
        '"24", "vars": [["x", 1, 2], ["x", 3, 1], ["a", 1, 2, 1], ["a", 3, 4, 1]]}, '
        '{"coeff": "-4", "vars": [["x", 1, 2], ["x", 3, 3]]}, {"coeff": "16", "vars": '
        '[["x", 1, 3], ["x", 3, 2]]}, {"coeff": "-3/2", "vars": [["x", 1, 2], ["x", 3, '
        '2], ["a", 1, 2, 1], ["a", 3, 4, 1]]}, {"coeff": "1/16", "vars": [["x", 1, 2], '
        '["x", 3, 4]]}, {"coeff": "9", "vars": [["x", 1, 2], ["a", 1, 2, 2], ["a", 3, 4, '
        '2]]}, {"coeff": "12", "vars": [["x", 1, 3], ["x", 3, 1], ["a", 1, 2, 1], ["a", '
        '3, 4, 1]]}, {"coeff": "-1", "vars": [["x", 1, 3], ["x", 3, 3]]}, {"coeff": "4", '
        '"vars": [["x", 1, 4], ["x", 3, 2]]}], "mode": "symmetric", "size": 4}\n'
    ),
    ("eval", "text"): (
        '-2/3 * x2 + 4 * x1 * x3 - 1/2 * x3^2 - 1/4 * x1 * x3^2 - 3 * x1 * a(1,2) * '
        'a(3,4) + 2 * x1^2 * x3\n'
    ),
    ("eval", "json"): (
        '{"mode": "symmetric", "pfaffian": [{"coeff": "-2/3", "vars": [["x", 2, 1]]}, '
        '{"coeff": "4", "vars": [["x", 1, 1], ["x", 3, 1]]}, {"coeff": "-1/2", "vars": '
        '[["x", 3, 2]]}, {"coeff": "-1/4", "vars": [["x", 1, 1], ["x", 3, 2]]}, '
        '{"coeff": "-3", "vars": [["x", 1, 1], ["a", 1, 2, 1], ["a", 3, 4, 1]]}, '
        '{"coeff": "2", "vars": [["x", 1, 2], ["x", 3, 1]]}], "two_n": 4}\n'
    ),
    ("eval --hook 2", "text"): (
        '-2/3 * x2 + 4 * x1 * x3 - 1/2 * x3^2 - 1/4 * x1 * x3^2 - 3 * x1 * a(1,2) * '
        'a(3,4) + 2 * x1^2 * x3\n'
    ),
    ("eval --hook 2", "json"): (
        '{"mode": "symmetric", "pfaffian": [{"coeff": "-2/3", "vars": [["x", 2, 1]]}, '
        '{"coeff": "4", "vars": [["x", 1, 1], ["x", 3, 1]]}, {"coeff": "-1/2", "vars": '
        '[["x", 3, 2]]}, {"coeff": "-1/4", "vars": [["x", 1, 1], ["x", 3, 2]]}, '
        '{"coeff": "-3", "vars": [["x", 1, 1], ["a", 1, 2, 1], ["a", 3, 4, 1]]}, '
        '{"coeff": "2", "vars": [["x", 1, 2], ["x", 3, 1]]}], "two_n": 4}\n'
    ),
}


@pytest.mark.parametrize("command, fmt", sorted(POLY_GOLDEN))
def test_poly_array_output_is_golden(tmp_path, capsys, command, fmt):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(POLY_ARRAY))
    verb, *rest = command.split()
    assert run([verb, str(path), *rest, "--format", fmt]) == 0
    assert capsys.readouterr().out == POLY_GOLDEN[(command, fmt)]


def test_expand_json_is_golden(capsys):
    assert run(["expand", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"pfaffian": [{"coeff": "1", "vars": [["a", 1, 2, 1], ["a", 3, 4, 1]]}, '
        '{"coeff": "-1", "vars": [["a", 1, 3, 1], ["a", 2, 4, 1]]}, {"coeff": "1", '
        '"vars": [["a", 1, 4, 1], ["a", 2, 3, 1]]}], "two_n": 4}\n'
    )


# -- floats and booleans are not polynomial coefficients -------------------------


def _mixed_array_file(tmp_path):
    entries = {f"{i},{j}": "1" for i, j in upper_pairs(4)}
    entries["1,2"] = [{"coeff": "1", "vars": [["x", 1, 1]]}]
    entries["1,3"] = 0.5
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"two_n": 4, "mode": "skew", "entries": entries}))
    return path


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--hook", "2"], ["det"]])
def test_poly_and_float_array_is_refused(tmp_path, capsys, argv):
    path = _mixed_array_file(tmp_path)
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: entry '1,3' is the float 0.5; an array with polynomial entries takes exact scalars only\n"
    )


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--hook", "1"], ["det"]])
def test_boolean_array_entry_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"two_n": 2, "mode": "skew", "entries": {"1,2": True}}))
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entry '1,2': bad scalar True\n"


@pytest.mark.parametrize("coeff", [0.1, True])
def test_sym_refuses_an_inexact_coefficient(tmp_path, coeff):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps([{"coeff": coeff, "vars": [["x", 1, 1]]}]))
    code, out, err = invoke("sym", str(path), "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient ") and "not exact" in err
    assert "Traceback" not in err


def test_array_entry_with_a_float_coefficient_is_refused(tmp_path, capsys):
    entries = {f"{i},{j}": "1" for i, j in upper_pairs(4)}
    entries["1,2"] = [{"coeff": 0.5, "vars": [["x", 1, 1]]}]
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"two_n": 4, "mode": "skew", "entries": entries}))
    assert run(["det", str(path)]) == 2
    assert "entry '1,2': bad polynomial scalar: coefficient 0.5 is not exact" in capsys.readouterr().err


# -- malformed input: exit 2 with one error line, never a traceback -----------


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--hook", "1"], ["det"]])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("1/0", "entry '1,2': scalar '1/0' has a zero denominator"),
        (
            [{"coeff": "1/0", "vars": []}],
            "entry '1,2': bad polynomial scalar: coefficient '1/0' has a zero denominator",
        ),
        (["nan"], "entry '1,2': bad polynomial scalar: bad term record: 'nan'"),
    ],
    ids=["zero denominator", "zero denominator coefficient", "not a term"],
)
def test_malformed_array_entry_is_one_error_line(tmp_path, capsys, argv, entry, message):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"two_n": 2, "mode": "skew", "entries": {"1,2": entry}}))
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "poly, message",
    [
        (1, "a polynomial is a list of term objects, got 1"),
        (["nan"], "bad term record: 'nan'"),
        ([{"coeff": "1/0", "vars": [["x", 1, 1]]}], "coefficient '1/0' has a zero denominator"),
        ([{"coeff": 1, "vars": [["x", "1", 1]]}], "bad variable record: ['x', '1', 1]"),
    ],
    ids=["a number", "not a term", "zero denominator", "string index"],
)
def test_sym_malformed_poly_file_is_one_error_line(tmp_path, capsys, poly, message):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    assert run(["sym", str(path), "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eval_hook_refuses_a_poly_array_past_the_expansion_cap(tmp_path, capsys):
    entries = {f"{i},{j}": [{"coeff": "1", "vars": [["x", i, 1]]}] for i, j in upper_pairs(18)}
    path = tmp_path / "poly18.json"
    path.write_text(json.dumps({"two_n": 18, "mode": "symmetric", "entries": entries}))
    assert run(["eval", str(path), "--hook", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: two_n=18 exceeds the memoized-expansion cap 16\n"


# -- float determinants that do not fit a float -----------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "obj, magnitude",
    [
        ({"two_n": 2, "mode": "skew", "entries": {"1,2": 1e308}}, "10^616"),
        ({"size": 2, "mode": "symmetric", "entries": {"1,2": 1e200}}, "10^400"),
    ],
    ids=["skew 1e308", "symmetric 1e200"],
)
def test_float_determinant_overflow_is_one_error_line(tmp_path, capsys, obj, magnitude, fmt):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert run(["det", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the determinant overflows a float (|det| is about {magnitude}); "
        "exact entries give its exact value\n"
    )


BIG_SKEW = {
    "two_n": 4,
    "mode": "skew",
    "entries": {p: 2e200 if p == "1,2" else 1e200 for p in ("1,2", "1,3", "1,4", "2,3", "2,4", "3,4")},
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, what",
    [((), "pfaffian"), (("--hook", "1"), "hook expansion")],
    ids=["eval", "eval --hook 1"],
)
def test_float_pfaffian_overflow_is_one_error_line(tmp_path, capsys, argv, what, fmt):
    # the pfaffian was inf and the hook sum nan, printed as Infinity and NaN with exit 0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_SKEW))
    assert run(["eval", str(path), *argv, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {what} overflows a float; exact entries give its exact value\n"


@pytest.mark.parametrize("argv", [(), ("--hook", "1"), ("--hook", "4")], ids=["eval", "hook 1", "hook 4"])
def test_float_pfaffian_near_the_limit_is_printed(tmp_path, capsys, argv):
    # 2e300 - 1e300 + 1e300 stays finite, so the float is printed as before
    obj = {**BIG_SKEW, "entries": {k: v * 1e-50 for k, v in BIG_SKEW["entries"].items()}}
    path = tmp_path / "near.json"
    path.write_text(json.dumps(obj))
    assert run(["eval", str(path), *argv, "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["pfaffian"]
    assert value == pytest.approx(2e300, rel=1e-12)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["eval", "det"])
def test_non_finite_float_entry_is_refused(tmp_path, capsys, token, command):
    # Python's json reads these tokens as floats; det of Infinity was an OverflowError traceback
    path = tmp_path / "nonfinite.json"
    path.write_text('{"two_n": 2, "mode": "symmetric", "entries": {"1,2": %s}}' % token)
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[token]
    assert captured.err == f"error: entry '1,2': bad scalar {shown}\n"
