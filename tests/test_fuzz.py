"""Seeded fuzz of the command line over the three file formats.

Array files (`eval`, `eval --hook`), square files of odd and even size
(`det`) and polynomial files (`sym`) are drawn from a fixed seed, valid
and malformed alike.  Whatever the file, a command must exit 0 or 1, or
exit 2 with exactly one `error:` line on stderr; a traceback fails the
test.  Every line written with `--format json` must parse as strict JSON,
so a float result that overflowed (Infinity, NaN) fails it too.  The
300 cases take under 1 s on a 2-core VM.
"""
import json
import random

from pfsym.cli import run

SEED = 20261019
CASES = 300


def _strict(token):
    raise ValueError(f"{token} is not JSON")


def _scalar(rng):
    kind = rng.randrange(13)
    if kind < 3:
        return rng.randint(-9, 9)
    if kind < 5:
        return f"{rng.randint(-9, 9)}/{rng.randint(0, 9)}"  # a zero denominator now and then
    if kind < 7:
        return rng.uniform(-3, 3)
    if kind == 7:
        return rng.choice((0.0, -0.0, 1e200, -1e200, 2e200, 1e308, 5e-324))
    if kind == 8:
        return rng.choice((float("nan"), float("inf"), float("-inf")))
    if kind == 9:
        return _poly(rng, 2)
    if kind == 10:
        return rng.choice((True, None, "x", "", [], {}, [1], ["nan"], 1.5e-7))
    if kind == 11:
        return str(rng.randint(-10**6, 10**6))
    return 0


def _variable(rng, m):
    if rng.random() < 0.5:
        i, j = sorted(rng.sample(range(1, m + 1), 2)) if m >= 2 else (1, 2)
        var = ["a", i, j, rng.randint(1, 2)]
    else:
        var = ["x", rng.randint(1, m), rng.randint(1, 2)]
    if rng.random() < 0.05:
        var = rng.choice((["y", 1, 1], ["a", 1], ["x", "1", 1], [], "x", ["x", 1, True]))
    return var


def _poly(rng, m):
    terms = [
        {"coeff": rng.choice((1, -1, 2, "1/2", "-3")), "vars": [_variable(rng, m) for _ in range(rng.randint(0, 2))]}
        for _ in range(rng.randint(0, 4))
    ]
    if rng.random() < 0.05:
        terms.append(rng.choice(({"coeff": 1}, {"coeff": 1.5, "vars": []}, {"coeff": "1/0", "vars": []}, 7)))
    return terms


def _square(rng, size, size_key):
    """A square-format object: mostly valid, sometimes with a broken key, size or entry set."""
    pairs = [f"{i},{j}" for i in range(1, size + 1) for j in range(i + 1, size + 1)]
    family = rng.random()

    def fill():
        if family < 0.4:
            return rng.randint(-9, 9)
        if family < 0.6:
            return rng.uniform(-2, 2)
        if family < 0.7:
            return rng.choice((1e200, 2e200, -1e200, 1e150))  # products overflow
        return _scalar(rng)

    entries = {p: fill() for p in pairs}
    obj = {size_key: size, "mode": rng.choice(("symmetric", "skew", "skew", "symmetric", "plain")), "entries": entries}
    damage = rng.randrange(12)
    if damage == 0 and pairs:
        del entries[rng.choice(pairs)]
    elif damage == 1:
        entries[rng.choice(("0,1", "2,1", "1,1", "a,b", "1,2,3", f"1,{size + 1}"))] = 1
    elif damage == 2:
        obj[size_key] = rng.choice((-2, "4", 2.0, True, None))
    elif damage == 3:
        obj["mode"] = rng.choice(("Skew", None, 3))
    elif damage == 4:
        del obj["entries"]
    return obj


def _case(rng):
    """(argv, file text) of one command."""
    fmt = rng.choice(("text", "json"))
    command = rng.choice(("eval", "eval", "hook", "det", "det", "sym"))
    if command == "sym":
        m = rng.randint(1, 5)
        text = json.dumps(_poly(rng, m) if rng.random() < 0.9 else rng.choice(({}, 1, "p", [[]])))
        argv = ["sym", "FILE", "--m", str(m)]
        if rng.random() < 0.3:
            argv += ["--gens", "skew"]
        if rng.random() < 0.3:
            argv.append("--signed")
    elif command == "det":
        size = rng.randint(1, 6)
        text = json.dumps(_square(rng, size, rng.choice(("size", "two_n"))))
        argv = ["det", "FILE"]
    else:
        two_n = rng.choice((0, 2, 4, 4, 6, 3))
        text = json.dumps(_square(rng, two_n, "two_n"))
        argv = ["eval", "FILE"]
        if command == "hook":
            argv += ["--hook", str(rng.randint(0, two_n + 1))]
    if rng.random() < 0.03:
        text = text[: len(text) // 2]  # not JSON at all
    return argv + ["--format", fmt], text


def test_fuzzed_files_end_in_a_result_or_one_error_line(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "case.json"
    codes = {}
    for k in range(CASES):
        argv, text = _case(rng)
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
        code = run(argv)
        out, err = capsys.readouterr()
        where = (k, argv[0], argv[2:], text)
        codes[code] = codes.get(code, 0) + 1
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), where
        else:
            assert code in (0, 1) and err == "", where
            if "json" in argv:
                for line in out.splitlines():
                    json.loads(line, parse_constant=_strict)
    # both outcomes are exercised, not only refusals
    assert codes.get(0, 0) >= CASES // 4 and codes.get(2, 0) >= CASES // 4, codes
