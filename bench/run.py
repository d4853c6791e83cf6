"""Seeded end-to-end benchmark of ``condaudit estimate`` and ``condaudit audit``.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each operation is one in-process ``condaudit.cli.main([...])`` call with
stdout captured, run with ``--workers 1``, and every output is checked
against the brute-force oracles in ``bench/oracle.py``.  Times are
reported at a fixed reference speed of the machine, measured by reference
kernels run around each timed piece of work (see ``Reference``).  The inputs are
written by ``bench/inputs.py`` from ``--seed`` into ``.bench_work/`` and
removed at exit.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs each operation twice in turn, untraced
and then under the wrappers of ``bench/tracing.py``, and reports the
per-layer metrics, writing its spans to ``.bench_out/``.  ``--smoke`` runs
every workload at a tiny size in both modes and checks that every metric is
printed with its unit and every check passes.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"

SETUP_REPS = 7
TAIL_PERCENTILE = 75
TAIL_MIN_BEYOND = 10

# The shared machine's speed swings by up to 1.8x in phases of a second to
# minutes, for the program and any other work alike.  Each operation is
# therefore bracketed by fixed reference kernels from the benchmark's own
# code, and its time is reported at the reference speed: wall time times
# reference-speed kernel time over the kernel time measured around it (see
# ``Reference``).  A change to the program moves the operation's time and
# not the kernels', so it shows in full.
#
# Median seconds of one call of each kernel on the machine the baselines
# were taken on (a shared 2-vCPU Xeon VM at 2.0 GHz).
NUMPY_REF_S = 0.0140
PYTHON_REF_S = 0.0190

# Share of the numpy kernel in each workload's reference.  Numpy and
# interpreted Python slow down by different amounts in the machine's slow
# phases; the reference mix follows each workload's own: the simulation of
# the ``rp-*`` workloads is mostly numpy, while assorter scoring and the
# streaming audit are interpreted Python.
NUMPY_SHARE = {
    "rp-comparison-large": 0.8,
    "rp-polling-large": 0.8,
    "kemeny-many-signatures": 0.0,
    "polling-audit-stream": 0.0,
}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "sample_ballots": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "audit.kk_pvalue_trace.self_s": "s",
    "audit.kk_pvalue_trace.calls": "count",
    "audit.kk_pvalue_trace.draws": "count",
    "audit.simulate_trials.self_s": "s",
    "audit.trials": "count",
    "audit.trace_useful_frac": "ratio",
    "assertions.assorter_value.self_s": "s",
    "assertions.assorter_value.calls": "count",
    "assertions.assorter_mean.self_s": "s",
    "assertions.assorter_mean.calls": "count",
    "audit.kk_update.self_s": "s",
    "audit.kk_update.calls": "count",
    "audit.run_audit.self_s": "s",
    "audit.load_samples.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "ballots.parse_path.self_s": "s",
    "ballots.signatures": "count",
    "model.pairwise_tallies.self_s": "s",
    "tabulation.tabulate.self_s": "s",
    "assertions.generate.self_s": "s",
    "assertions.count": "count",
    "assertions.import_assertions.self_s": "s",
    "other.self_s": "s",
    "trace.op_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# At the default risk limit of 0.05, polling stops on election1 are bimodal:
# about a third of trials and sample streams certify within 40 draws on an
# early lucky run, the rest near 65 % of N, so a median over trials or
# streams can jump between the two from seed to seed.  At 0.01 about one in
# seven stops early and the late stops hardly move (see bench/README.md).
POLLING_RISK_LIMIT = 0.01
AUDIT_ERROR_RATE = 0.002


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI invocation and the check of its output.

    ``check(exit_code, stdout)`` raises :class:`CheckFailed` or returns
    (work units, sample ballots) for the operation.
    """

    argv: list[str]
    check: Callable[[int, str], tuple[int, int]]


# ---------------------------------------------------------------------------
# Workloads


def _estimate_check(names, t, winner, count, population, method):
    def check(code: int, text: str) -> tuple[int, int]:
        expect(code == 0, f"estimate exited {code}")
        doc = json.loads(text)
        rows = doc["per_assertion"]
        asns = [r["asn"] for r in rows]
        expect(doc["population"] == population, f"population {doc['population']} != {population}")
        expect(not doc["full_hand_count"], "unexpected full hand count")
        expect(doc["overall_asn"] == max(asns), f"overall ASN {doc['overall_asn']} != max {max(asns)}")
        expect(doc["overall_asn"] <= population, "overall ASN exceeds the population")
        expect(doc["winner"] == names[winner], f"winner {doc['winner']} != oracle {names[winner]}")
        expect(len(rows) == count, f"{len(rows)} assertions, oracle says {count}")
        claims = [oracle.parse_assertion(r["assertion"], names) for r in rows]
        expect(len(set(claims)) == len(claims), "duplicate assertions")
        expect(all(oracle.claim_holds(c, t) for c in claims), "an assertion is false on the tallies")
        if method == "kemeny":
            expect(all(c[0] == "rank" and c[2][0] != winner for c in claims), "malformed Kemeny set")
        else:
            expect(oracle.covers_rivals(claims, winner, len(names)), "a rival is not covered")
        return doc["trials"] * len(rows), doc["overall_asn"]

    return check


def _estimate_plan(election: Path, names, profile, method, style, trials, seed, extra=()):
    t = oracle.tallies(profile, len(names))
    winner, count = oracle.kemeny(t) if method == "kemeny" else oracle.ranked_pairs(t)
    argv = ["estimate", str(election), "--method", method, "--style", style,
            "--trials", str(trials), "--seed", str(seed), "--workers", "1", "--format", "json", *extra]
    check = _estimate_check(names, t, winner, count, sum(profile.values()), method)
    return [Op(argv, check)]


def rp_comparison_large(seed: int, work: Path, tiny: bool) -> list[Op]:
    factor, trials = (1, 1) if tiny else (4, 3)
    names, profile = inputs.load_profile(inputs.DATA / "election3.json")
    return _estimate_plan(inputs.DATA / "election3.json", names, inputs.scaled(profile, factor),
                          "ranked-pairs", "comparison", trials, seed, ("--scale", str(factor)))


def rp_polling_large(seed: int, work: Path, tiny: bool) -> list[Op]:
    factor, trials = (1, 3) if tiny else (8, 11)
    names, profile = inputs.load_profile(inputs.DATA / "election1.json")
    return _estimate_plan(inputs.DATA / "election1.json", names, inputs.scaled(profile, factor),
                          "ranked-pairs", "polling", trials, seed,
                          ("--scale", str(factor), "--risk-limit", str(POLLING_RISK_LIMIT)))


def kemeny_many_signatures(seed: int, work: Path, tiny: bool) -> list[Op]:
    k, voters, trials = (4, 300, 1) if tiny else (5, 2000, 2)
    rng = np.random.default_rng([seed, 3])
    names = [f"K{i + 1}" for i in range(k)]
    profile = inputs.mallows_partial_profile(rng, k, voters, phi=0.35, length_weights=[1, 1, 1, 0.1, 0.3][:k])
    path = work / "mallows.soi"
    inputs.write_preflib(path, names, profile)
    return _estimate_plan(path, names, profile, "kemeny", "comparison", trials, seed)




def polling_audit_stream(seed: int, work: Path, tiny: bool) -> list[Op]:
    streams = 4 if tiny else 16
    names, profile = inputs.load_profile(inputs.DATA / "election1.json")
    population = sum(profile.values())
    election = str(inputs.DATA / "election1.json")
    aset_path = work / "assertions.json"
    code, text, _ = run_op(["assertions", election, "--method", "ranked-pairs", "-o", str(aset_path)])
    expect(code == 0, f"assertions exited {code}")
    doc = json.loads(aset_path.read_text(encoding="utf-8"))
    claims = [_claim_of(entry, names) for entry in doc["assertions"]]
    t = oracle.tallies(profile, len(names))
    winner, count = oracle.ranked_pairs(t)
    expect(doc["winner"] == names[winner] and len(claims) == count, "assertion set disagrees with the oracle")
    expect(all(oracle.claim_holds(c, t) for c in claims), "an assertion is false on the tallies")
    expect(oracle.covers_rivals(claims, winner, len(names)), "a rival is not covered")

    rng = np.random.default_rng([seed, 4])
    ops = []
    for s in range(streams):
        sigs, audited = inputs.sample_stream(rng, profile, AUDIT_ERROR_RATE)
        path = work / f"samples-{s}.jsonl"
        inputs.write_stream(path, names, sigs, audited)
        table = np.array([[oracle.assorter(c, sig) for sig in sigs] for c in claims])
        examined, p_final = oracle.kk_audit(table[:, audited], population, POLLING_RISK_LIMIT)
        argv = ["audit", election, "--assertions-file", str(aset_path), "--samples-file", str(path),
                "--risk-limit", str(POLLING_RISK_LIMIT), "--workers", "1", "--format", "json"]
        ops.append((examined, Op(argv, _audit_check(names, claims, examined, p_final))))
    # Set-up warms up on ops[0]; start the cycle at the median-length stream
    # so that an early-certifying first stream does not shorten set-up.
    ops.sort(key=lambda pair: pair[0])
    half = len(ops) // 2
    return [op for _, op in ops[half:] + ops[:half]]


def _claim_of(entry: dict, names: list[str]) -> tuple:
    idx = {n: i for i, n in enumerate(names)}
    if entry["type"] == "pairwise_positive":
        return ("pair", idx[entry["winner"]], idx[entry["loser"]])
    if entry["type"] == "score_comparison":
        return ("score", tuple(idx[n] for n in entry["hi"]), tuple(idx[n] for n in entry["lo"]))
    raise CheckFailed(f"unexpected assertion type {entry['type']!r}")


def _audit_check(names, claims, examined, p_final):
    certified = bool((p_final <= POLLING_RISK_LIMIT).all())

    def check(code: int, text: str) -> tuple[int, int]:
        expect(code == (0 if certified else 1), f"audit exited {code}")
        doc = json.loads(text)
        expect(doc["outcome"] == ("certified" if certified else "escalate-full-count"), f"outcome {doc['outcome']}")
        expect(doc["ballots_examined"] == examined, f"examined {doc['ballots_examined']}, oracle {examined}")
        rows = doc["assertions"]
        expect([oracle.parse_assertion(r["assertion"], names) for r in rows] == claims, "assertion rows differ")
        for row, p in zip(rows, p_final.tolist()):
            expect(abs(row["p_value"] - p) <= 1e-9 * max(p, 1e-300), f"p-value {row['p_value']} != oracle {p}")
            expect(len(row["p_trace"]) == examined and row["p_trace"][-1] == row["p_value"], "p-trace mismatch")
            expect(row["certified"] == (p <= POLLING_RISK_LIMIT), "certified flag mismatch")
        return examined * len(rows), examined

    return check


WORKLOADS = {
    "rp-comparison-large": rp_comparison_large,
    "rp-polling-large": rp_polling_large,
    "kemeny-many-signatures": kemeny_many_signatures,
    "polling-audit-stream": polling_audit_stream,
}


# ---------------------------------------------------------------------------
# Measurement


def run_op(argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: (exit code, captured stdout, wall seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op: Op):
        """Run and check one operation; returns (seconds, work, ballots, stdout) or None if it failed."""
        self.attempted += 1
        try:
            code, text, seconds = run_op(op.argv)
            work, ballots = op.check(code, text)
        except Exception as exc:  # any failure is counted, and the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.argv[0]}: {type(exc).__name__}: {exc}")
            return None
        return seconds, work, ballots, text


class Reference:
    """The reference kernels of one workload, and the speed factors they give.

    ``slowness()`` runs the kernels and returns their time as a multiple of
    their time at reference speed, mixed by the workload's ``NUMPY_SHARE``.
    ``factor(before, after)`` turns the slowness measured just before and
    just after a piece of work into the factor that scales its wall time to
    the reference speed.
    """

    def __init__(self, workload: str):
        self.numpy_share = NUMPY_SHARE[workload]

    def slowness(self) -> float:
        value = 0.0
        if self.numpy_share:
            value += self.numpy_share * _timed(numpy_reference) / NUMPY_REF_S
        if self.numpy_share < 1:
            value += (1 - self.numpy_share) * _timed(python_reference) / PYTHON_REF_S
        return value

    @staticmethod
    def factor(before: float, after: float) -> float:
        return 2 / (before + after)


def setup(workload: str, seed: int, work: Path, tiny: bool, tally: Tally,
          reference: Reference) -> tuple[list[Op], float]:
    """Write the inputs and warm up, ``SETUP_REPS`` times.

    Returns the last plan and the set-up time at reference speed: the median
    of the repetitions, each scaled by the speed factor measured around it,
    plus the import of the program, scaled by the median of those factors.
    """
    for _ in range(2):  # warm-up
        slow = reference.slowness()
    reps, factors = [], []
    ops: list[Op] = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir(parents=True)
        ops = WORKLOADS[workload](seed, rep_dir, tiny)
        tally.run(ops[0])
        seconds = time.perf_counter() - start
        before, slow = slow, reference.slowness()
        factors.append(Reference.factor(before, slow))
        reps.append(seconds * factors[-1])
    return ops, IMPORT_S * statistics.median(factors) + statistics.median(reps)


def measure(ops: list[Op], seconds: float, tally: Tally, reference: Reference | None = None,
            tracer=None) -> list[dict]:
    """Cycle through the operations for ``seconds`` (at least one full cycle).

    Returns one record of the untraced operations.  With a reference, its
    kernels run before the first operation and after each one, and the
    record keeps each passed operation's speed factor.  With a tracer, each
    operation then runs a second time with the wrappers installed, so
    both records see the same inputs and the same machine conditions, and a
    second record of the traced operations follows.
    """
    runs = [{"times": [], "factors": [], "work": 0, "ballots": {}, "output_bytes": []}
            for _ in range(1 + (tracer is not None))]
    if reference is not None:
        slow = reference.slowness()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        done = tally.run(op)
        _record(runs[0], i % len(ops), done)
        if reference is not None:
            before, slow = slow, reference.slowness()
            if done is not None:
                runs[0]["factors"].append(Reference.factor(before, slow))
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
            try:
                done = tally.run(op)
            finally:
                tracer.uninstall()
            if done is None:
                tracer.ops.pop()  # per-layer figures cover the operations that passed
            _record(runs[1], i % len(ops), done)
        i += 1
    return runs


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def numpy_reference():
    """Fixed numpy work, as the simulation does: the KK audit of ``oracle.py`` on fixed draws."""
    return oracle.kk_audit(_REF_DRAWS, 2 * _REF_DRAWS.shape[1], 0.01)


def python_reference():
    """Fixed interpreted work, as assorter scoring, the streaming audit and rendering do.

    Pure-Python assorter scoring of ranked ballots, JSON rendering and an
    integer loop, each with fixed inputs.
    """
    total = sum(oracle.assorter(c, sig) for c in _REF_CLAIMS for sig in _REF_SIGS)
    text = json.dumps(_REF_ROWS)
    for i in range(50_000):
        total += i * i % 7
    return total, text


def _record(run: dict, index: int, done) -> None:
    if done is not None:
        seconds, work, ballots, text = done
        run["times"].append(seconds)
        run["work"] += work
        run["ballots"][index] = ballots
        run["output_bytes"].append(len(text.encode("utf-8")))


def end_to_end(setup_s: float, run: dict) -> dict:
    times = sorted(t * f for t, f in zip(run["times"], run["factors"]))
    beyond = sum(1 for x in times if x > _percentile(times, TAIL_PERCENTILE))
    print(f"op_tail_s is p{TAIL_PERCENTILE} of {len(times)} operations ({beyond} beyond it)")
    if beyond < TAIL_MIN_BEYOND:
        print(f"warning: fewer than {TAIL_MIN_BEYOND} samples beyond p{TAIL_PERCENTILE}; run longer")
    print(f"wall op_p50 {statistics.median(run['times']):.6g} s; "
          f"machine speed factor p50 {statistics.median(run['factors']):.4f}")
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": _percentile(times, TAIL_PERCENTILE),
        "work_per_s": run["work"] / sum(times),
        "sample_ballots": statistics.median(run["ballots"].values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def per_layer(untraced: dict, traced: dict, tracer) -> dict:
    ops = tracer.ops
    op_s = statistics.median(traced["times"])

    def med(key):
        return statistics.median(op.get(key, 0.0) for op in ops)

    metrics = {name: med(name) for name in PER_LAYER if not name.startswith(("trace.", "cli.output"))}
    metrics["audit.trace_useful_frac"] = statistics.median(
        op["useful_draws"] / op["traced_draws"] if op.get("traced_draws") else 0.0 for op in ops)
    metrics["cli.output_bytes"] = statistics.median(traced["output_bytes"])
    metrics["trace.op_s"] = op_s
    metrics["trace.accounted_frac"] = statistics.median(
        sum(v for k, v in op.items() if k.endswith(".self_s")) / t for op, t in zip(ops, traced["times"]))
    metrics["trace.overhead_frac"] = op_s / statistics.median(untraced["times"]) - 1
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    tally = Tally()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    metrics, units = None, PER_LAYER if traced else END_TO_END
    try:
        reference = Reference(workload)
        ops, setup_s = setup(workload, seed, work, tiny, tally, reference)
        if not traced:
            (run,) = measure(ops, seconds, tally, reference)
            if run["times"]:
                metrics = end_to_end(setup_s, run)
        else:
            tracer = tracing.Tracer()
            untraced, traced_run = measure(ops, seconds, tally, tracer=tracer)
            tracer.write(TRACES / f"trace-{workload}-seed{seed}.json", {"workload": workload, "seed": seed})
            if untraced["times"] and traced_run["times"]:
                metrics = per_layer(untraced, traced_run, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in tally.errors:
        print(f"FAILED {line}")
    if metrics is None:
        raise SystemExit(f"error: no operation succeeded ({tally.failed} of {tally.attempted} failed)")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Every workload, tiny, in both modes: every metric printed with its unit, every check passing."""
    ok = True
    for workload in WORKLOADS:
        for traced, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            print(f"== {workload} trace={int(traced)}")
            result = run_workload(workload, 1, 0.2, traced, tiny=True)
            got = result["metrics"]
            good = result["correct"] and result["failed"] == 0 and set(got) == set(wanted) and all(
                got[m]["unit"] == u and isinstance(got[m]["value"], (int, float)) for m, u in wanted.items())
            print(f"{'ok' if good else 'FAILED'}: {workload} trace={int(traced)}")
            ok &= good
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload in both modes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "condaudit" / "__init__.py").is_file():
        print(f"error: no condaudit sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    _import_program()
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _import_program() -> None:
    """Import the program from ``src/`` (timed: part of set-up), then the benchmark's helpers."""
    global cli, np, inputs, oracle, tracing, IMPORT_S
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import condaudit.cli as cli
    IMPORT_S = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported condaudit from {cli.__file__}, not {SRC}")
    import numpy as np
    import inputs
    import oracle
    import tracing
    _make_reference_inputs()


def _make_reference_inputs() -> None:
    global _REF_DRAWS, _REF_SIGS, _REF_CLAIMS, _REF_ROWS
    rng = np.random.default_rng(20230318)
    _REF_DRAWS = (rng.random((3, 60_000)) < 0.52).astype(np.float64)
    _REF_SIGS = [tuple(int(c) for c in rng.permutation(5)[: rng.integers(1, 6)]) for _ in range(2500)]
    _REF_CLAIMS = [("pair", 0, 1), ("score", (1, 2), (3, 0)), ("pair", 2, 4)]
    _REF_ROWS = [{"assertion": f"s(C{i % 5},C{(i + 1) % 5}) > 0", "p_value": float(p)}
                 for i, p in enumerate(rng.random(2000))]


if __name__ == "__main__":
    sys.exit(main())
