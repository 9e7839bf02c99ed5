"""Mutation smoke: swap one operator at a time in listed functions and run their tests.

pytest does not collect this file. Run it from anywhere; it copies this
checkout's src/, tests/ and pyproject.toml to a temporary directory and
mutates only that copy:

    python tests/mutants.py          # every mutant, about 7 minutes on one core
    python tests/mutants.py --list   # name the mutants without running them

A mutant swaps one comparison (`<` and `<=`, `==` and `!=`, ...), arithmetic
(`+` and `-`, `*` and `/`, ...) or boolean (`and` and `or`) operator in one
function of TARGETS, augmented assignments included. The function's test
file then runs against the mutated copy with `pytest -x`, one BLAS thread and
the derandomized Hypothesis profile, and the mutant is killed when it fails
(or runs past TIMEOUT seconds) and survived when it passes. Each test file
first runs once unmutated and must pass.

A survivor must be killed by a new test, or listed in EQUIVALENT with the
reason no test can tell it apart. The script exits 1 when a survivor is not
listed, or a listed mutant no longer survives.
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

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300

# module -> (functions, the test file that owns them)
TARGETS = {
    "data": (("_bad_rows", "extract_features", "normalize"), "tests/test_data.py"),
    "gan": (("subset_accuracies", "stop_decision", "stop_check"), "tests/test_gan.py"),
    "verifier": (("calibrate_threshold", "make_pairs"), "tests/test_verifier.py"),
    "attack": (("fit_space_model", "build_attack_stream"), "tests/test_attack.py"),
    "evaluation": (("_test_entry",), "tests/test_evaluation.py"),
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.And: ast.Or, ast.Or: ast.And,
}

SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and", ast.Or: "or",
}

# "<module>.<function>: <expression> (<old> -> <new>)" -> why no test can kill it
EQUIVALENT: dict[str, str] = {}


def _sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """(node, index into node.ops, or None where the node has one op) of each swappable operator."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            sites.append((node, None))
    return sites


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(f"no top-level function {name!r}")


def mutants(module: str, source: str) -> list[tuple[str, str]]:
    """(name, mutated module source) for every operator swap in the module's listed functions.

    Only the mutated function's lines are rewritten (by ast.unparse); the rest
    of the module keeps its bytes.
    """
    lines = source.splitlines(keepends=True)
    out = []
    for name in TARGETS[module][0]:
        seen = Counter()
        for k in range(len(_sites(_function(ast.parse(source), name)))):
            # a fresh parse per mutant, so each carries exactly one swap
            func = _function(ast.parse(source), name)
            node, i = _sites(func)[k]
            if i is None:
                old = type(node.op)
                node.op = SWAPS[old]()
            else:
                old = type(node.ops[i])
                node.ops[i] = SWAPS[old]()
            start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
            text = "".join(" " * func.col_offset + line + "\n" for line in ast.unparse(func).splitlines())
            mutated = "".join(lines[:start]) + text + "".join(lines[func.end_lineno:])
            label = (f"{module}.{name}: {ast.get_source_segment(source, node).splitlines()[0]} "
                     f"({SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]})")
            seen[label] += 1
            out.append((label if seen[label] == 1 else f"{label} #{seen[label]}", mutated))
    return out


def run_tests(copy: Path, test_file: str) -> tuple[bool, str]:
    """Whether the test file passes against the copy's src, and pytest's last output line."""
    # no bytecode cache: a mutant written within the second of a same-size one would load its pyc
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               KEYFORGE_HYPOTHESIS_PROFILE="ci", PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT} s"
    last = (done.stdout.strip().splitlines() or [""])[-1]
    return done.returncode == 0, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    sources = {m: (ROOT / "src" / "keyforge" / f"{m}.py").read_text(encoding="utf-8") for m in TARGETS}
    todo = [(m, name, mutated) for m in TARGETS for name, mutated in mutants(m, sources[m])]
    if args.list:
        for _, name, _ in todo:
            print(name)
        print(f"{len(todo)} mutants")
        return 0

    survivors = []
    with tempfile.TemporaryDirectory(prefix="keyforge-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for module, (_, test_file) in TARGETS.items():
            passed, last = run_tests(copy, test_file)
            if not passed:
                raise RuntimeError(f"{test_file} fails unmutated: {last}")
        for module, name, mutated in todo:
            path = copy / "src" / "keyforge" / f"{module}.py"
            path.write_text(mutated, encoding="utf-8")
            passed, last = run_tests(copy, TARGETS[module][1])
            path.write_text(sources[module], encoding="utf-8")
            print(f"{'survived' if passed else 'killed  '}  {name}  [{last}]", flush=True)
            if passed:
                survivors.append(name)

    unexplained = [name for name in survivors if name not in EQUIVALENT]
    stale = [name for name in EQUIVALENT if name not in survivors]
    print(f"{len(todo)} mutants: {len(todo) - len(survivors)} killed, {len(survivors)} survived, "
          f"{len(survivors) - len(unexplained)} of them listed as equivalent")
    for name in survivors:
        print(f"  {name}: {EQUIVALENT.get(name, 'UNEXPLAINED')}")
    for name in stale:
        print(f"  listed as equivalent but killed or gone: {name}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
