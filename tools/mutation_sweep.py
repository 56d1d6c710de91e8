#!/usr/bin/env python3
"""Mutation sweep: how many one-token edits of a module its tests notice.

    PYTHONPATH=src python3 tools/mutation_sweep.py src/pfsym/MODULE.py -- tests --ignore=tests/test_mutants.py

Run it from the root of a checkout.  Each mutant changes one token inside
one of the module's top-level functions or one method of its classes,
named `Class.method`: it swaps an arithmetic, comparison or boolean
operator, adds 1 to an int constant, or drops a unary minus or `not`.  The mutant is written into a copy of the module's
package in a temporary directory, put first on PYTHONPATH, and pytest -x
runs the arguments after `--` against it in a fresh process; the mutant
is killed when they fail or run past TIMEOUT seconds.  It prints each
survivor, then the score of each function and of the module.  Leave out
tests that rebuild kernels from their source text (tests/test_mutants.py):
an edit on a line they look for fails them whatever the edit does.
Standard library only; not part of the tier-1 suite.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SWAPS = {
    "+": "-", "-": "+", "*": "+", "/": "*", "//": "*", "%": "//", "**": "*",
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "in": "not in", "not in": "in", "is": "is not", "is not": "is", "and": "or", "or": "and",
}

# seconds one mutant's test run may take; a run past it kills the mutant
TIMEOUT = 300


def _gaps(node):
    """The (left, right) nodes around each operator token of `node`."""
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right)]
    if isinstance(node, ast.AugAssign):
        return [(node.target, node.value)]
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return list(zip(operands, operands[1:]))
    if isinstance(node, ast.BoolOp):
        return list(zip(node.values, node.values[1:]))
    return []


def _functions(body, prefix: str = ""):
    """(name, node) of each function of `body`, and of each method of its
    classes, nested classes included, as `Class.method`."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def mutants(source: str):
    """Each mutant as (function, line number, old text, new text, mutated source)."""
    lines = source.splitlines(keepends=True)

    def edit(row, start, end, new):
        # ast offsets count UTF-8 bytes
        line = lines[row - 1].encode()
        old = line[start:end].decode()
        mutated = lines[: row - 1] + [(line[:start] + new.encode() + line[end:]).decode()] + lines[row:]
        return row, old.strip(" ()"), new.strip(" ()"), "".join(mutated)

    for name, top in _functions(ast.parse(source).body):
        found = []
        for node in ast.walk(top):
            for left, right in _gaps(node):
                if left.end_lineno == right.lineno:
                    gap = lines[left.end_lineno - 1].encode()[left.end_col_offset : right.col_offset].decode()
                    token = gap.strip(" ()").removesuffix("=") if isinstance(node, ast.AugAssign) else gap.strip(" ()")
                    if token in SWAPS:
                        found.append((left.end_lineno, left.end_col_offset, right.col_offset,
                                      gap.replace(token, SWAPS[token], 1)))
            if isinstance(node, ast.Constant) and type(node.value) is int and node.lineno == node.end_lineno:
                found.append((node.lineno, node.col_offset, node.end_col_offset, str(node.value + 1)))
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
                if node.lineno == node.operand.lineno:
                    found.append((node.lineno, node.col_offset, node.operand.col_offset, ""))
        for row, start, end, new in sorted(found):
            row, old, new, mutated = edit(row, start, end, new)
            try:
                ast.parse(mutated)
            except SyntaxError:
                continue
            yield name, row, old, new, mutated


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args()
    package = args.module.resolve().parent
    source = args.module.read_text()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(package, Path(tmp) / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / package.name / args.module.name
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (tmp, env.get("PYTHONPATH"))))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args.tests]

        def killed(text: str) -> bool:
            target.write_text(text)
            try:
                return subprocess.run(command, env=env, capture_output=True, timeout=TIMEOUT).returncode != 0
            except subprocess.TimeoutExpired:
                return True

        if killed(source):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        total, dead = Counter(), Counter()
        for function, row, old, new, mutated in mutants(source):
            total[function] += 1
            if killed(mutated):
                dead[function] += 1
            else:
                print(f"survived  {function}  line {row}: {old!r} -> {new!r}", flush=True)
    for function in total:
        print(f"{function}: {dead[function]}/{total[function]} killed")
    print(f"{args.module}: {sum(dead.values())}/{sum(total.values())} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
