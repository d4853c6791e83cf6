"""Golden CLI outputs: every subcommand's stdout and exit code, byte for byte.

The inputs and the expected outputs live in ``tests/golden/``.  The elections
are the four test fixtures; ``election3-samples.jsonl`` is 600 draws from
election3 in random order, with about 2% of the audited ballots replaced by a
truncated other ranking.  Each case's expected stdout is ``<case>.out`` and its
exit codes are collected in ``exit_codes.json``.

A deliberate change of output is re-captured with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import simd  # noqa: F401  (first: it pins numpy's dispatch before numpy is imported)

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from condaudit import assertions, cli
from condaudit.cli import main

GOLDEN = Path(__file__).parent / "golden"
ELECTIONS = ("election1", "election2", "election3", "smith_tie")
METHODS = ("irv", "condorcet", "ranked-pairs", "minimax", "smith-minimax", "smith-irv", "kemeny")
ESTIMATE = ("--trials", "20", "--seed", "7", "--workers", "2")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name in ELECTIONS:
        election = str(GOLDEN / f"{name}.json")
        for method in METHODS:
            stem = f"{name}.{method}"
            for fmt in ("text", "json"):
                cases[f"{stem}.tabulate.{fmt}"] = ["tabulate", election, "--method", method, "--format", fmt]
            cases[f"{stem}.assertions"] = ["assertions", election, "--method", method]
            for style, fmt in (("polling", "text"), ("comparison", "json")):
                cases[f"{stem}.estimate.{style}.{fmt}"] = [
                    "estimate", election, "--method", method, "--style", style, "--format", fmt, *ESTIMATE
                ]
    election = str(GOLDEN / "election3.json")
    for method in ("ranked-pairs", "kemeny"):
        for style in ("polling", "comparison"):
            for fmt in ("text", "json"):
                cases[f"election3.{method}.audit.{style}.{fmt}"] = [
                    "audit", election, "--style", style, "--format", fmt,
                    "--assertions-file", str(GOLDEN / f"election3.{method}.assertions.out"),
                    "--samples-file", str(GOLDEN / "election3-samples.jsonl"),
                ]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_methods_are_the_cli_table():
    assert METHODS == tuple(assertions.METHODS) == tuple(cli.RENDER)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, exit_codes):
    code, out = _run(CASES[case])
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    if out != expected:
        # pytest's own diff of two outputs of up to 330 KB takes tens of seconds.
        pytest.fail(_first_difference(out, expected), pytrace=False)
    assert code == exit_codes[case]


def test_numpy_dispatches_below_avx512():
    # The goldens' p-value traces are captured with numpy's AVX2 or baseline exp and log (see simd.py).
    from numpy.lib.introspect import opt_func_info

    current = {sig["current"] for func in opt_func_info().values() for sig in func.values()}
    assert not [target for target in current if target == "X86_V4" or target.startswith("AVX512")], current


def _first_difference(out: str, expected: str) -> str:
    pairs = itertools.zip_longest(out.splitlines(keepends=True), expected.splitlines(keepends=True))
    line, (got, want) = next((n, pair) for n, pair in enumerate(pairs, start=1) if pair[0] != pair[1])
    return f"output differs from the golden file first at line {line}: got {got!r}, expected {want!r}"


def _write() -> None:
    codes = {}
    for case in sorted(CASES):
        codes[case], out = _run(CASES[case])
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
