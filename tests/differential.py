"""A differential check: run the library over fixed seeded cases and hash what it returns.

Usage, from the repository root::

    PYTHONPATH=src python tests/differential.py [--cases N] [--dump FILE]

Each family (estimate, walk, audit, parse, tabulate, generate, import, score) runs
``--cases`` cases (default 1000), case ``i`` from its own seed, so the first
cases of a larger run are those of a smaller one.  One line per family gives
the sha256 of its cases' results and the count of each outcome.  ``--dump``
writes one JSON line per case, its input and its result, so that two dumps,
from two commits, ``diff`` into the list of cases a change moved.

A fault is recorded by its message, not its class, and assertion documents
are imported as dicts, so that commits that name their errors differently,
or decode JSON differently, still compare.  Only public names are used.

numpy's dispatch is pinned below AVX-512 first (``tests/simd.py``), as in the
test session, so that the walk and audit families' p-value traces, and so
their lines, do not depend on whether the CPU has AVX-512.
"""

from __future__ import annotations

import simd  # noqa: F401  (first: it pins numpy's dispatch before numpy is imported)

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from condaudit import (
    METHODS,
    AssertionSet,
    AuditConfig,
    Election,
    PairwisePositive,
    RankingComparison,
    ScoreComparison,
    estimate_audit,
    export_assertions,
    import_assertions,
    kk_pvalue_trace,
    load_samples,
    method_assertions,
    pairwise_tallies,
    parse_native,
    parse_preflib,
    preference_matrix,
    run_audit,
    serialize_election,
)
from condaudit.assertions import claim_means, claim_values, claim_weights

from oracles import expand, random_election, reference_samples

GENERATED = ("condorcet", "ranked-pairs", "minimax", "smith-minimax", "kemeny")


def plain(obj):
    """``obj`` as JSON values: dataclasses as dicts, dicts keyed by other than strings as sorted pairs,
    arrays as lists."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if all(isinstance(key, str) for key in obj):
            return {key: plain(value) for key, value in obj.items()}
        return sorted([plain(key), plain(value)] for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def digest(array) -> str:
    """The sha256 of an array's float64 bytes: a trace, in short."""
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()[:16]


def fault(exc: Exception) -> tuple[str, dict]:
    return "error", {"error": str(exc)}


def random_value(rng: np.random.Generator, depth: int = 0):
    """A small arbitrary JSON value."""
    kind = int(rng.integers(0, 7 if depth < 2 else 5))
    if kind == 5:
        return [random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 3)))]
    if kind == 6:
        return {str(int(rng.integers(0, 9))): random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 3)))}
    return [None, True, int(rng.integers(-3, 4)), float(rng.normal()), "ABZ"[: int(rng.integers(0, 3))]][kind]


def election_of(rng: np.random.Generator, max_k: int = 6) -> Election:
    """A small random election with at least two candidates and one ballot."""
    while True:
        election = random_election(rng, max_k=max_k)
        if election.num_candidates >= 2 and election.total_ballots:
            return election


# ---------------------------------------------------------------------------
# Families: each case(rng) returns (input, outcome, result)


def parse_case(rng: np.random.Generator):
    """A Preflib or native election text, written from a random election and sometimes spelled badly."""
    election = random_election(rng, max_k=5)
    names = election.candidates
    if rng.random() < 0.5:
        text = serialize_election(election)
        mutation = int(rng.integers(0, 8))
        if mutation == 1:
            text = text.replace('"count"', '"count": 1, "count"', 1)
        elif mutation == 2:
            text = "\ufeff" + text
        elif mutation == 3:
            text = text[: int(rng.integers(0, len(text)))]
        elif mutation == 4:
            text = text.replace(f'"{names[0]}"', json.dumps(random_value(rng)), 1)
        elif mutation == 5:
            text = text.replace('"count": ', '"count": -', 1)
        reader = parse_native
    else:
        header = [f"# NUMBER ALTERNATIVES: {len(names)}", f"# NUMBER VOTERS: {election.total_ballots}"]
        header += [f"# ALTERNATIVE NAME {i}: {name}" for i, name in enumerate(names, start=1)]
        votes = [f"{n}: " + ",".join(str(c + 1) for c in sig) for sig, n in sorted(election.profile.items())]
        lines = header + votes
        for _ in range(int(rng.integers(0, 3))):
            pos = int(rng.integers(0, len(lines)))
            lines[pos] = [
                lines[pos].lower(),
                lines[pos].replace(": ", ": +", 1),
                lines[pos].replace(": ", ": 1_", 1),
                lines[pos].replace("NAME ", "NAME", 1),
                lines[pos].replace("VOTERS", "VOTERSX", 1),
                "# FILE NAME: x",
                "# NUMBER CATEGORIES: 1",
                lines[pos] + ",1",
                "{" + lines[pos] + "}",
                lines[pos].replace(":", "", 1),
                lines[int(rng.integers(0, len(lines)))],
                "",
            ][int(rng.integers(0, 12))]
        if rng.random() < 0.1:  # a near-miss key, drawn last so that every other case keeps its text
            pos = int(rng.integers(0, len(header)))
            old, new = [("NAME ", "NAME-"), ("ALTERNATIVE ", "ALTERNATIVE_"), ("ALTERNATIVE ", "ALTERNATIVE  "),
                        ("NUMBER ", "NUMBER_")][int(rng.integers(0, 4))]
            lines[pos] = lines[pos].replace(old, new, 1)
        text = "\n".join(lines) + "\n"
        reader = parse_preflib
    try:
        report = reader(text)
    except ValueError as exc:
        return {"text": text}, *fault(exc)
    result = {"candidates": report.election.candidates, "profile": report.election.profile,
              "warnings": report.warnings}
    return {"text": text}, "ok", plain(result)


def tabulate_case(rng: np.random.Generator):
    election = election_of(rng)
    method = str(rng.choice(list(METHODS)))
    tabulate, _ = METHODS[method]
    try:
        result = tabulate(election, pairwise_tallies(election))
    except ValueError as exc:
        return {"election": serialize_election(election), "method": method}, *fault(exc)
    winner = result if isinstance(result, (int, type(None))) else result.winner
    outcome = "escalate" if winner is None else "winner"
    return {"election": serialize_election(election), "method": method}, outcome, plain(result)


def generate_case(rng: np.random.Generator):
    election = election_of(rng)
    method = str(rng.choice(GENERATED))
    case = {"election": serialize_election(election), "method": method}
    try:
        aset = method_assertions(method, election)
    except ValueError as exc:
        return case, *fault(exc)
    return case, "escalation" if aset.full_hand_count else "set", export_assertions(aset, election)


def import_case(rng: np.random.Generator):
    """An assertion document, exported from a generated set and sometimes changed, imported as a dict."""
    election = election_of(rng, max_k=4)
    doc = export_assertions(method_assertions(str(rng.choice(GENERATED)), election), election)
    names = list(election.candidates)
    entries = doc["assertions"]
    for _ in range(int(rng.integers(0, 3))):
        mutation = int(rng.integers(0, 8))
        if mutation == 0:
            doc.pop("winner", None)
        elif mutation == 1:
            doc["winner"] = str(rng.choice(names + ["Z"]))
        elif mutation == 2:
            entries.clear()
        elif mutation == 3:
            entries.append({"type": "full_hand_count", "reason": "x"})
        elif mutation == 4:
            doc["metadata"] = {"election_sha256": "0" * 64}
        elif mutation == 5 and entries:
            entry = entries[int(rng.integers(0, len(entries)))]
            entry[str(rng.choice(sorted(entry)))] = random_value(rng)
        elif mutation == 6:
            entries.append({"type": "pairwise_positive", "winner": names[0], "loser": names[-1]})
        elif mutation == 7:
            doc["winner"] = None
    if rng.random() < 0.1:
        doc[str(rng.choice(["method", "winner", "assertions", "metadata"]))] = random_value(rng)
    case = {"election": serialize_election(election), "doc": doc}
    try:
        aset = import_assertions(json.loads(json.dumps(doc)), election)
    except ValueError as exc:
        return case, *fault(exc)
    return case, "escalation" if aset.full_hand_count else "ok", plain(aset)


def _random_claim(rng: np.random.Generator, k: int):
    """A claim of any shape over k >= 2 candidates; a ranking comparison ranks a subset of two or more."""
    shape = int(rng.integers(0, 3))
    if shape == 0:
        return PairwisePositive(*map(int, rng.choice(k, 2, replace=False)))
    if shape == 1:
        hi, lo = tuple(map(int, rng.choice(k, 2, replace=False))), tuple(map(int, rng.choice(k, 2, replace=False)))
        return ScoreComparison(hi, lo) if hi != lo else PairwisePositive(*hi)
    preferred = [int(c) for c in rng.permutation(k)[: int(rng.integers(2, k + 1))]]
    other = [int(c) for c in rng.permutation(preferred)]
    return RankingComparison(preferred, other if other[0] != preferred[0] else other[1:] + other[:1])


def score_case(rng: np.random.Generator):
    """A generated set and a few random claims, scored as one stack, as an audit scores a set, in each audit
    style: each claim's values on the profile's signatures and three random ballots, and its reported mean."""
    election = election_of(rng)
    k = election.num_candidates
    method = str(rng.choice(GENERATED))
    case = {"election": serialize_election(election), "method": method}
    try:
        claims = list(method_assertions(method, election).assertions)
    except ValueError as exc:
        return case, *fault(exc)
    claims += [_random_claim(rng, k) for _ in range(int(rng.integers(0, 4)))]
    extra = [tuple(int(c) for c in rng.permutation(k)[: int(rng.integers(0, k + 1))]) for _ in range(3)]
    prefs = preference_matrix(sorted(election.profile) + extra, k)
    case["claims"] = [[type(a).__name__, plain(a)] for a in claims]
    case["extra"] = extra
    tallies = pairwise_tallies(election)

    def scored(style: str) -> dict:
        weights, norm = claim_weights(claims, k, style)
        return {"values": digest(claim_values(weights, norm, prefs)),
                "means": digest(claim_means(weights, norm, tallies, election.total_ballots))}

    return case, "set" if claims else "empty", {**scored("polling"), "comparison": scored("comparison")}


def _assertion_set(rng: np.random.Generator, election: Election) -> AssertionSet:
    """A generated set, or now and then one that holds no assertion."""
    if rng.random() < 0.1:
        return AssertionSet("empty", int(rng.integers(0, election.num_candidates)))
    return method_assertions(str(rng.choice(GENERATED)), election)


def _config(rng: np.random.Generator, trials: int) -> AuditConfig:
    return AuditConfig(risk_limit=float(rng.choice([0.01, 0.05, 0.2])),
                       error_rate=float(rng.choice([0.0, 0.002, 0.05])), trials=trials,
                       seed=int(rng.integers(0, 2**31)), style=str(rng.choice(["polling", "comparison"])))


def estimate_case(rng: np.random.Generator):
    election = election_of(rng, max_k=5)
    aset = _assertion_set(rng, election)
    cfg = _config(rng, trials=int(rng.integers(1, 12)))
    case = {"election": serialize_election(election), "set": export_assertions(aset, election), "cfg": plain(cfg)}
    try:
        est = estimate_audit(aset, election, cfg)
    except ValueError as exc:
        return case, *fault(exc)
    result = {"per_assertion": est.per_assertion, "overall": est.overall, "full": est.full_count_flag,
              "population": est.population, "stops": [s.tolist() for s in est.stops]}
    return case, "full-count" if est.full_count_flag else "ok", plain(result)


# Sizes about the walker's chunk edges: 256, 256 + 1,024, 256 + 1,024 + 4,096, and 8,192 draws.
_WALK_SIZES = (1, 255, 256, 257, 1279, 1280, 1281, 5375, 5376, 5377, 8191, 8192, 8193, 13569)


def walk_case(rng: np.random.Generator):
    size = int(rng.choice(_WALK_SIZES))
    population = size + int(rng.integers(0, 3 * size + 1))
    mean = float(rng.uniform(0.45, 0.6))
    x = np.clip(rng.normal(mean, float(rng.uniform(0.0, 0.3)), size), 0.0, 1.0)
    if rng.random() < 0.2:
        x = np.round(x)
    trace = kk_pvalue_trace(x, population)
    crossed = {str(alpha): int(np.argmax(trace <= alpha)) + 1 if (trace <= alpha).any() else None
               for alpha in (0.01, 0.05, 0.2)}
    case = {"size": size, "population": population, "x": digest(x)}
    return case, "crossed" if crossed["0.05"] else "not-crossed", {"trace": digest(trace), "first": crossed}


def audit_case(rng: np.random.Generator):
    """A sample file drawn from the election, now and then corrupted, read and audited."""
    election = election_of(rng, max_k=4)
    aset = _assertion_set(rng, election)
    cfg = _config(rng, trials=1)
    names = election.candidates
    pool = expand(election)
    order = rng.permutation(len(pool))[: int(rng.integers(0, len(pool) + 1))]
    lines = [json.dumps({"reported": [names[c] for c in pool[i]], "audited": [names[c] for c in pool[i]]})
             for i in order]
    if lines and rng.random() < 0.3:
        pos = int(rng.integers(0, len(lines)))
        lines[pos] = ['{"audited": ["A"', '{"reported": []}', '{"audited": ["Z"]}', "",
                      '{"audited": [], "audited": []}', "\ufeff{}", '{"audited": ["A", "A"]}',
                      lines[pos] + "\n" + lines[pos]][int(rng.integers(0, 8))]
    text = "\n".join(lines) + "\n"
    case = {"election": serialize_election(election), "set": export_assertions(aset, election),
            "cfg": plain(cfg), "samples": text}
    draws, expected = reference_samples(text, names, election.total_ballots)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            stream = load_samples(path, election)
        except ValueError as exc:
            agrees = expected is not None and str(exc) == f"line {expected[1]}: {expected[0]}"
            return case, "error" if agrees else "oracle-mismatch", {"error": str(exc)}
    read = [(stream.samples[i].audited, stream.samples[i].reported) for i in stream.order.tolist()]
    if expected is not None or read != draws:
        return case, "oracle-mismatch", {"read": plain(read)}
    try:
        report = run_audit(aset, stream, election, cfg)
    except ValueError as exc:
        return case, *fault(exc)
    records = [{"certified": r.certified, "p_value": r.p_value, "trace": digest(r.p_trace)} for r in report.records]
    return case, report.outcome, {"examined": report.ballots_examined, "records": records}


FAMILIES = {
    "estimate": estimate_case,
    "walk": walk_case,
    "audit": audit_case,
    "parse": parse_case,
    "tabulate": tabulate_case,
    "generate": generate_case,
    "import": import_case,
    "score": score_case,
}


def run(family: str, cases: int):
    """Each case's dump line and outcome, case ``i`` from the seed (family number, i)."""
    key = list(FAMILIES).index(family)
    for i in range(cases):
        case, outcome, result = FAMILIES[family](np.random.default_rng([key, i]))
        line = json.dumps({"family": family, "case": i, "input": case, "outcome": outcome, "result": result},
                          sort_keys=True, ensure_ascii=True)
        yield line, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000, help="cases per family (default 1000)")
    parser.add_argument("--dump", help="write one JSON line per case here")
    args = parser.parse_args(argv)
    dump = open(args.dump, "w", encoding="utf-8") if args.dump else None
    try:
        for family in FAMILIES:
            sha, outcomes = hashlib.sha256(), Counter()
            for line, outcome in run(family, args.cases):
                sha.update(line.encode() + b"\n")
                outcomes[outcome] += 1
                if dump:
                    dump.write(line + "\n")
            counts = " ".join(f"{name}={n}" for name, n in sorted(outcomes.items()))
            print(f"{family:<9} {sha.hexdigest()}  {counts}", flush=True)
    finally:
        if dump:
            dump.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
