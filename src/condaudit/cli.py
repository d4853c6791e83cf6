"""Command-line front end.

Subcommands: ``parse`` (check a ballot file), ``tabulate`` (winner and
method structures), ``assertions`` (emit an assertion-set JSON document),
``estimate`` (simulated audit sample sizes), and ``audit`` (run a batch
audit over a drawn sample).

Exit codes: 0 success, 1 full-hand-count or infeasible-audit outcome,
2 parse/schema errors, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ballots as ballots_io
from .assertions import (
    AssertionSet,
    FullHandCount,
    SchemaError,
    condorcet_assertions,
    describe,
    export_assertions,
    import_assertions,
    kemeny_assertions,
    minimax_assertions,
    ranked_pairs_assertions,
    smith_assertions,
)
from .audit import ASNEstimate, AuditConfig, AuditReport, estimate_audit, load_samples, run_audit
from .ballots import ParseError
from .model import Election, pairwise_tallies, restrict_to, scores
from .tabulation import (
    CapacityError,
    condorcet_winner,
    irv_tabulate,
    kemeny_tabulate,
    minimax_tabulate,
    ranked_pairs_tabulate,
    smith_set,
)

METHODS = ("irv", "condorcet", "ranked-pairs", "minimax", "smith-minimax", "smith-irv", "kemeny")

EXIT_OK = 0
EXIT_FULL_COUNT = 1
EXIT_PARSE = 2
EXIT_USAGE = 64

INFINITY = "∞"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(raw: str) -> int:
    """Parse --seed.  Argparse also passes its string default, $CONDAUDIT_SEED,
    through here, so a malformed variable is a usage error like a malformed flag."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer (from --seed or $CONDAUDIT_SEED), got {raw!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condaudit", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=False, with_audit=False):
        p.add_argument("election", help="election file (.json native format, otherwise Preflib ordinal)")
        p.add_argument("--scale", type=int, default=1, help="multiply every ballot count (default 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_method:
            p.add_argument("--method", choices=METHODS)
        if with_audit:
            p.add_argument("--risk-limit", type=float, default=0.05)
            p.add_argument("--error-rate", type=float, default=0.002)
            p.add_argument("--trials", type=int, default=2000)
            p.add_argument("--seed", type=_seed, default=os.environ.get("CONDAUDIT_SEED", "0"),
                           help="simulation seed (default: $CONDAUDIT_SEED or 0)")
            p.add_argument("--style", choices=("polling", "comparison"), default="polling")
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("parse", help="parse a ballot file and report its shape")
    common(p)

    p = sub.add_parser("tabulate", help="tabulate the election under one method")
    common(p, with_method=True)

    p = sub.add_parser("assertions", help="generate the audit assertion set for one method")
    common(p, with_method=True)
    p.add_argument("--assertions-file", help="imported assertion set (required inner set for smith-irv)")
    p.add_argument("-o", "--output", help="write the assertion-set JSON here instead of stdout")

    p = sub.add_parser("estimate", help="estimate audit sample sizes by simulation")
    common(p, with_method=True, with_audit=True)
    p.add_argument("--assertions-file",
                   help="assertion set to estimate (or the smith-irv inner set when --method is given)")

    p = sub.add_parser("audit", help="run a batch audit over a drawn sample")
    common(p, with_audit=True)
    p.add_argument("--assertions-file", required=True)
    p.add_argument("--samples-file", required=True, help="JSON-lines samples in draw order")
    return parser


def _load_election(args) -> tuple[Election, list[tuple[int, str]]]:
    report = ballots_io.parse_path(args.election)
    election = report.election
    if args.scale != 1:
        election = ballots_io.scale(election, args.scale)
    return election, report.warnings


def _generate_assertions(method: str, election: Election, inner_doc: str | None) -> AssertionSet:
    tallies = pairwise_tallies(election)
    margin = scores(tallies)
    k = election.num_candidates
    if method == "condorcet":
        winner = condorcet_winner(margin)
        if winner is None:
            return AssertionSet("condorcet", None, (FullHandCount("no Condorcet winner exists"),))
        if k == 1:
            return AssertionSet("condorcet", winner, ())
        return condorcet_assertions(winner, k)
    if method == "ranked-pairs":
        return ranked_pairs_assertions(ranked_pairs_tabulate(margin))
    if method == "minimax":
        return minimax_assertions(minimax_tabulate(margin), margin)
    if method == "smith-minimax":
        return smith_assertions(smith_set(tallies), k, "minimax", score_matrix=margin)
    if method == "smith-irv":
        if inner_doc is None:
            raise UsageError(
                "--method smith-irv needs --assertions-file with an imported IRV assertion "
                "set over the Smith set (this tool does not generate IRV assertions)"
            )
        imported = import_assertions(inner_doc, election)
        return smith_assertions(smith_set(tallies), k, "irv-import", imported=imported)
    if method == "kemeny":
        return kemeny_assertions(kemeny_tabulate(tallies))
    if method == "irv":
        raise UsageError(
            "IRV assertion sets are not generated here; import an externally generated "
            "set via 'estimate --assertions-file'"
        )
    raise UsageError(f"unknown method {method!r}")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rendering


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _tabulate_payload(method: str, election: Election) -> tuple[dict, list[str]]:
    names = election.candidates
    tallies = pairwise_tallies(election)
    margin = scores(tallies)
    if method == "irv":
        res = irv_tabulate(election)
        lines = [f"Method: irv", f"Winner: {names[res.winner]}"]
        rounds = []
        for rnd, tally in enumerate(res.round_tallies, start=1):
            rounds.append({names[c]: n for c, n in tally.items()})
            shown = "  ".join(f"{names[c]}={n}" for c, n in tally.items())
            exhausted = election.total_ballots - sum(tally.values())
            lines.append(f"Round {rnd}: {shown}  (exhausted {exhausted})")
        lines.append("Eliminated: " + (", ".join(names[c] for c in res.elimination_order) or "none"))
        if res.tie_flag:
            lines.append("Warning: an elimination tie was broken by candidate order")
        payload = {
            "method": "irv",
            "winner": names[res.winner],
            "rounds": rounds,
            "eliminated": [names[c] for c in res.elimination_order],
            "tie_flag": res.tie_flag,
        }
        return payload, lines
    if method == "condorcet":
        w = condorcet_winner(margin)
        winner = None if w is None else names[w]
        return (
            {"method": "condorcet", "winner": winner},
            ["Method: condorcet", f"Condorcet winner: {winner if winner else 'none'}"],
        )
    if method == "ranked-pairs":
        rp = ranked_pairs_tabulate(margin)
        winner = None if rp.winner is None else names[rp.winner]
        lines = ["Method: ranked-pairs"]
        if rp.winner is None:
            lines.append(f"Winner: {INFINITY} (full hand count: {rp.reason})")
        else:
            lines.append(f"Winner: {winner}")
        lines.append("Committed pairs (score):")
        for pair in rp.commits:
            lines.append(f"  {names[pair.winner]} > {names[pair.loser]}  ({pair.score})")
        lines.append("Transitive inferences:")
        for inf in rp.inferences:
            via = ", ".join(f"{names[i]} > {names[j]}" for i, j in inf.basis)
            lines.append(f"  {names[inf.winner]} > {names[inf.loser]}  via  {via}")
        payload = {
            "method": "ranked-pairs",
            "winner": winner,
            "full_hand_count": rp.winner is None,
            "reason": rp.reason,
            "commits": [
                {"winner": names[p.winner], "loser": names[p.loser], "score": p.score}
                for p in rp.commits
            ],
            "inferences": [
                {
                    "winner": names[i.winner],
                    "loser": names[i.loser],
                    "basis": [[names[a], names[b]] for a, b in i.basis],
                }
                for i in rp.inferences
            ],
            "tie_flag": rp.tie_flag,
        }
        return payload, lines
    if method == "minimax":
        mm = minimax_tabulate(margin)
        winner = None if mm.winner is None else names[mm.winner]
        lines = ["Method: minimax"]
        if mm.winner is None:
            lines.append(f"Winner: {INFINITY} (full hand count: {mm.reason})")
        else:
            lines.append(f"Winner: {winner}")
        for c in range(election.num_candidates):
            if c in mm.worst_loss:
                d = mm.strongest_defeater.get(c)
                extra = f" (beaten by {names[d]})" if d is not None else ""
                lines.append(f"  worst loss {names[c]}: {mm.worst_loss[c]}{extra}")
        payload = {
            "method": "minimax",
            "winner": winner,
            "full_hand_count": mm.winner is None,
            "reason": mm.reason,
            "condorcet_case": mm.condorcet_case,
            "worst_loss": {names[c]: v for c, v in mm.worst_loss.items()},
            "strongest_defeater": {names[c]: names[d] for c, d in mm.strongest_defeater.items()},
        }
        return payload, lines
    if method in ("smith-minimax", "smith-irv"):
        sm = smith_set(tallies)
        members = [names[c] for c in sm.smith_set]
        lines = [f"Method: {method}", "Smith set: {" + ", ".join(members) + "}"]
        for c, (d, m) in sorted(sm.inner_defeats.items()):
            lines.append(f"  {names[c]} beaten in-set by {names[d]} (margin {m})")
        if sm.tie_flag:
            lines.append(f"Winner: {INFINITY} (full hand count: pairwise tie within the Smith set)")
            payload_winner = None
        elif method == "smith-minimax":
            sub = margin[np.ix_(sm.smith_set, sm.smith_set)]
            inner = minimax_tabulate(sub)
            if inner.winner is None:
                lines.append(f"Winner: {INFINITY} (full hand count: inner minimax: {inner.reason})")
                payload_winner = None
            else:
                payload_winner = names[sm.smith_set[inner.winner]]
                lines.append(f"Winner: {payload_winner} (minimax over the Smith set)")
        else:
            inner_election = restrict_to(election, sm.smith_set)
            inner = irv_tabulate(inner_election)
            payload_winner = inner_election.candidates[inner.winner]
            lines.append(f"Winner: {payload_winner} (IRV over the Smith set)")
        payload = {
            "method": method,
            "winner": payload_winner,
            "smith_set": members,
            "tie_flag": sm.tie_flag,
            "inner_defeats": {
                names[c]: {"defeater": names[d], "margin": m}
                for c, (d, m) in sm.inner_defeats.items()
            },
        }
        return payload, lines
    if method == "kemeny":
        kr = kemeny_tabulate(tallies)
        ranking = [names[c] for c in kr.best_ranking]
        lines = [
            "Method: kemeny",
            f"Winner: {names[kr.winner]}",
            "Best ranking: " + " > ".join(ranking) + f"  (score {kr.best_score})",
        ]
        if kr.tie_flag:
            lines.append("Warning: another ranking ties the best score")
        payload = {
            "method": "kemeny",
            "winner": names[kr.winner],
            "best_ranking": ranking,
            "best_score": kr.best_score,
            "tie_flag": kr.tie_flag,
        }
        return payload, lines
    raise UsageError(f"unknown method {method!r}")


def _estimate_payload(aset: AssertionSet, est: ASNEstimate, election: Election, cfg: AuditConfig):
    names = election.candidates
    rows = []
    for assertion, asn in zip(aset.assertions, est.per_assertion):
        full = isinstance(assertion, FullHandCount)
        rows.append(
            {
                "assertion": describe(assertion, names),
                "asn": None if full else asn,
                "pct": None if full else round(100.0 * asn / est.population, 2) if est.population else 0.0,
            }
        )
    payload = {
        "method": aset.method,
        "winner": None if aset.winner is None else names[aset.winner],
        "population": est.population,
        "style": cfg.style,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "risk_limit": cfg.risk_limit,
        "error_rate": cfg.error_rate,
        "full_hand_count": est.full_count_flag,
        "overall_asn": None if est.full_count_flag else est.overall,
        "overall_pct": None if est.full_count_flag else round(est.percentage, 2),
        "per_assertion": rows,
    }
    width = max([len(r["assertion"]) for r in rows] + [len("Assertion"), len("Overall")])
    lines = [
        f"Method: {aset.method}   winner: {payload['winner'] if payload['winner'] else INFINITY}",
        f"Population: {est.population} ballots   style: {cfg.style}   trials: {cfg.trials}   "
        f"risk limit: {cfg.risk_limit:g}   error rate: {cfg.error_rate:g}   seed: {cfg.seed}",
        f"{'Assertion':<{width}}  {'ASN':>8}  {'(%)':>8}",
    ]
    for r in rows:
        if r["asn"] is None:
            lines.append(f"{r['assertion']:<{width}}  {INFINITY:>8}  {INFINITY:>8}")
        else:
            lines.append(f"{r['assertion']:<{width}}  {r['asn']:>8}  {r['pct']:>7.2f}%")
    if est.full_count_flag:
        lines.append(f"{'Overall':<{width}}  {INFINITY:>8}  {INFINITY:>8}")
    else:
        lines.append(f"{'Overall':<{width}}  {est.overall:>8}  {est.percentage:>7.2f}%")
    return payload, lines


def _audit_payload(report: AuditReport, election: Election):
    names = election.candidates
    rows = [
        {
            "assertion": describe(rec.assertion, names),
            "certified": rec.certified,
            "p_value": rec.p_value,
            "p_trace": list(rec.p_trace),
        }
        for rec in report.records
    ]
    payload = {
        "outcome": report.outcome,
        "ballots_examined": report.ballots_examined,
        "risk_limit": report.risk_limit,
        "assertions": rows,
    }
    width = max([len(r["assertion"]) for r in rows] + [len("Assertion")], default=len("Assertion"))
    lines = [
        f"Outcome: {report.outcome}",
        f"Ballots examined: {report.ballots_examined}",
        f"{'Assertion':<{width}}  {'p-value':>10}  certified",
    ]
    for r in rows:
        lines.append(f"{r['assertion']:<{width}}  {r['p_value']:>10.4g}  {'yes' if r['certified'] else 'no'}")
    return payload, lines


# ---------------------------------------------------------------------------
# Entry point


def _cfg_from_args(args) -> AuditConfig:
    try:
        return AuditConfig(
            risk_limit=args.risk_limit,
            error_rate=args.error_rate,
            trials=args.trials,
            seed=args.seed,
            style=args.style,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FULL_COUNT


def _dispatch(args) -> int:
    election, warnings = _load_election(args)

    if args.command == "parse":
        payload = {
            "candidates": list(election.candidates),
            "total_ballots": election.total_ballots,
            "distinct_signatures": len(election.profile),
            "warnings": [{"line": ln, "message": msg} for ln, msg in warnings],
        }
        lines = [
            f"Candidates ({election.num_candidates}): " + ", ".join(election.candidates),
            f"Total ballots: {election.total_ballots}",
            f"Distinct signatures: {len(election.profile)}",
        ]
        for ln, msg in warnings:
            lines.append(f"warning: line {ln}: {msg}" if ln else f"warning: {msg}")
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "tabulate":
        if not args.method:
            raise UsageError("tabulate needs --method")
        payload, lines = _tabulate_payload(args.method, election)
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "assertions":
        if not args.method:
            raise UsageError("assertions needs --method")
        inner_doc = _read_optional(args.assertions_file)
        aset = _generate_assertions(args.method, election, inner_doc)
        doc = export_assertions(aset, election)
        text = json.dumps(doc, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {len(aset.assertions)} assertions to {args.output}")
        else:
            print(text)
        return EXIT_OK

    if args.command == "estimate":
        cfg = _cfg_from_args(args)
        if args.method:
            inner_doc = _read_optional(args.assertions_file) if args.method == "smith-irv" else None
            aset = _generate_assertions(args.method, election, inner_doc)
        elif args.assertions_file:
            aset = import_assertions(_read_optional(args.assertions_file), election)
        else:
            raise UsageError("estimate needs --method or --assertions-file")
        est = estimate_audit(aset, election, cfg, workers=args.workers)
        payload, lines = _estimate_payload(aset, est, election, cfg)
        _emit(args, payload, lines)
        return EXIT_FULL_COUNT if est.full_count_flag else EXIT_OK

    if args.command == "audit":
        cfg = _cfg_from_args(args)
        aset = import_assertions(_read_optional(args.assertions_file), election)
        samples = load_samples(args.samples_file, election)
        report = run_audit(aset, samples, election, cfg)
        payload, lines = _audit_payload(report, election)
        _emit(args, payload, lines)
        return EXIT_OK if report.certified else EXIT_FULL_COUNT

    raise UsageError(f"unknown command {args.command!r}")


def _read_optional(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


if __name__ == "__main__":
    sys.exit(main())
