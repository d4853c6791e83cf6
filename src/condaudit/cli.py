"""Command-line front end.

Subcommands: ``parse`` (check a ballot file), ``tabulate`` (winner and
method structures), ``assertions`` (emit an assertion-set JSON document),
``estimate`` (simulated audit sample sizes), and ``audit`` (run a batch
audit over a drawn sample).  Methods come from the library's
``assertions.METHODS``; this module renders results and reports usage
errors.  Ingest warnings go to stderr (``parse`` reports them on stdout).

Exit codes: 0 success, 1 full-hand-count or infeasible-audit outcome,
2 parse/schema errors, 64 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from . import ballots as ballots_io
from .assertions import (
    METHODS,
    AssertionSet,
    SchemaError,
    describe,
    export_assertions,
    import_assertions,
    method_assertions,
)
from .audit import AUDIT_STYLES, ASNEstimate, AuditConfig, AuditReport, estimate_audit, load_samples, run_audit
from .ballots import ParseError
from .model import Election, pairwise_tallies
from .tabulation import CapacityError

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
    """Parse --seed, or $CONDAUDIT_SEED in its absence (see :func:`main`),
    so a malformed variable is a usage error like a malformed flag."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer (from --seed or $CONDAUDIT_SEED), got {raw!r}"
        ) from None


def _positive_int(raw: str) -> int:
    """Parse --scale and --workers: an integer of at least 1."""
    if not (raw.isdecimal() and int(raw) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condaudit", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_audit=False):
        p.add_argument("election", help="election file (.json native format, otherwise Preflib ordinal)")
        p.add_argument("--scale", type=_positive_int, default=1, help="multiply every ballot count (default 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_audit:
            p.add_argument("--risk-limit", type=float, default=0.05)
            p.add_argument("--style", choices=AUDIT_STYLES, default="polling")
            p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("parse", help="parse a ballot file and report its shape")
    common(p)

    p = sub.add_parser("tabulate", help="tabulate the election under one method")
    common(p)
    p.add_argument("--method", choices=METHODS, required=True)

    p = sub.add_parser("assertions", help="generate the audit assertion set for one method")
    common(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--assertions-file", help="imported inner set over the Smith set (smith-irv only, required)")
    p.add_argument("-o", "--output", help="write the assertion-set JSON here instead of stdout")

    p = sub.add_parser("estimate", help="estimate audit sample sizes by simulation")
    common(p, with_audit=True)
    p.add_argument("--error-rate", type=float, default=0.002)
    p.add_argument("--trials", type=int, default=2000)
    # No default here: main reads $CONDAUDIT_SEED at each call, so the parser is built once.
    p.add_argument("--seed", type=_seed, help="simulation seed (default: $CONDAUDIT_SEED or 0)")
    p.set_defaults(subparser=p)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--assertions-file",
                   help="assertion set to estimate (or the inner set with --method smith-irv)")

    p = sub.add_parser("audit", help="run a batch audit over a drawn sample")
    common(p, with_audit=True)
    p.add_argument("--assertions-file", required=True)
    p.add_argument("--samples-file", required=True, help="JSON-lines samples in draw order")
    return parser


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Methods: RENDER maps each name of assertions.METHODS to render(result, election) ->
# (JSON payload, text lines), where result is the method's tabulation of the election.


def _winner_line(winner: str | None, reason: str | None, how: str = "") -> str:
    return f"Winner: {INFINITY} (full hand count: {reason})" if winner is None else f"Winner: {winner}{how}"


def _render_irv(res, election):
    names = election.candidates
    payload = {
        "method": "irv",
        "winner": names[res.winner],
        "rounds": [{names[c]: n for c, n in tally.items()} for tally in res.round_tallies],
        "eliminated": [names[c] for c in res.elimination_order],
        "tie_flag": res.tie_flag,
    }
    lines = ["Method: irv", f"Winner: {payload['winner']}"]
    for rnd, tally in enumerate(payload["rounds"], start=1):
        shown = "  ".join(f"{name}={n}" for name, n in tally.items())
        lines.append(f"Round {rnd}: {shown}  (exhausted {election.total_ballots - sum(tally.values())})")
    lines.append("Eliminated: " + (", ".join(payload["eliminated"]) or "none"))
    if res.tie_flag:
        lines.append("Warning: an elimination tie was broken by candidate order")
    return payload, lines


def _render_condorcet(w, election):
    winner = None if w is None else election.candidates[w]
    lines = ["Method: condorcet", f"Condorcet winner: {winner or 'none'}"]
    return {"method": "condorcet", "winner": winner}, lines


def _render_ranked_pairs(rp, election):
    names = election.candidates
    payload = {
        "method": "ranked-pairs",
        "winner": None if rp.winner is None else names[rp.winner],
        "full_hand_count": rp.winner is None,
        "reason": rp.reason,
        "commits": [{"winner": names[p.winner], "loser": names[p.loser], "score": p.score} for p in rp.commits],
        "inferences": [
            {"winner": names[i.winner], "loser": names[i.loser],
             "basis": [[names[a], names[b]] for a, b in i.basis]}
            for i in rp.inferences
        ],
        "tie_flag": rp.tie_flag,
    }
    lines = ["Method: ranked-pairs", _winner_line(payload["winner"], rp.reason), "Committed pairs (score):"]
    lines += [f"  {p['winner']} > {p['loser']}  ({p['score']})" for p in payload["commits"]]
    lines.append("Transitive inferences:")
    for inf in payload["inferences"]:
        via = ", ".join(f"{a} > {b}" for a, b in inf["basis"])
        lines.append(f"  {inf['winner']} > {inf['loser']}  via  {via}")
    return payload, lines


def _render_minimax(mm, election):
    names = election.candidates
    payload = {
        "method": "minimax",
        "winner": None if mm.winner is None else names[mm.winner],
        "full_hand_count": mm.winner is None,
        "reason": mm.reason,
        "condorcet_case": mm.condorcet_case,
        "worst_loss": {names[c]: v for c, v in mm.worst_loss.items()},
        "strongest_defeater": {names[c]: names[d] for c, d in mm.strongest_defeater.items()},
    }
    lines = ["Method: minimax", _winner_line(payload["winner"], mm.reason)]
    for name, loss in payload["worst_loss"].items():
        d = payload["strongest_defeater"].get(name)
        lines.append(f"  worst loss {name}: {loss}" + ("" if d is None else f" (beaten by {d})"))
    return payload, lines


def _render_smith(method, how, sm, election):
    names = election.candidates
    payload = {
        "method": method,
        "winner": None if sm.winner is None else names[sm.winner],
        "smith_set": [names[c] for c in sm.smith_set],
        "tie_flag": sm.tie_flag,
        "inner_defeats": {names[c]: {"defeater": names[d], "margin": m} for c, (d, m) in sm.inner_defeats.items()},
    }
    lines = [f"Method: {method}", "Smith set: {" + ", ".join(payload["smith_set"]) + "}"]
    for name, defeat in payload["inner_defeats"].items():
        lines.append(f"  {name} beaten in-set by {defeat['defeater']} (margin {defeat['margin']})")
    lines.append(_winner_line(payload["winner"], sm.reason, f" ({how} over the Smith set)"))
    return payload, lines


def _render_kemeny(kr, election):
    names = election.candidates
    payload = {
        "method": "kemeny",
        "winner": names[kr.winner],
        "best_ranking": [names[c] for c in kr.best_ranking],
        "best_score": kr.best_score,
        "tie_flag": kr.tie_flag,
    }
    ranking = " > ".join(payload["best_ranking"])
    lines = ["Method: kemeny", f"Winner: {payload['winner']}", f"Best ranking: {ranking}  (score {kr.best_score})"]
    if kr.tie_flag:
        lines.append("Warning: another ranking ties the best score")
    return payload, lines


RENDER = {
    "irv": _render_irv,
    "condorcet": _render_condorcet,
    "ranked-pairs": _render_ranked_pairs,
    "minimax": _render_minimax,
    "smith-minimax": functools.partial(_render_smith, "smith-minimax", "minimax"),
    "smith-irv": functools.partial(_render_smith, "smith-irv", "IRV"),
    "kemeny": _render_kemeny,
}


def _method_assertions(args, election: Election) -> AssertionSet:
    """The --method assertion set.  Usage errors are raised before any tabulation."""
    if args.method == "irv":
        raise UsageError(
            "IRV assertion sets are not generated here; import an externally generated "
            "set via 'estimate --assertions-file'"
        )
    # Only smith-irv reads --assertions-file: its inner IRV set over the Smith set.
    if args.assertions_file is None and args.method == "smith-irv":
        raise UsageError(
            "--method smith-irv needs --assertions-file with an imported IRV assertion "
            "set over the Smith set (this tool does not generate IRV assertions)"
        )
    if args.assertions_file is not None and args.method != "smith-irv":
        raise UsageError(f"--method {args.method} reads no --assertions-file (only smith-irv does)")
    imported = None if args.assertions_file is None else import_assertions(
        ballots_io.read_text(args.assertions_file), election)
    return method_assertions(args.method, election, imported)


# ---------------------------------------------------------------------------
# Rendering


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _estimate_payload(aset: AssertionSet, est: ASNEstimate, election: Election, cfg: AuditConfig):
    names = election.candidates
    full = aset.full_hand_count
    rows = []
    for assertion, asn in zip(aset.assertions, est.per_assertion):
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
    """The subcommand's audit settings; a field it takes no option for keeps its default."""
    try:
        return AuditConfig(**{f.name: getattr(args, f.name) for f in fields(AuditConfig) if hasattr(args, f.name)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:  # --seed absent: $CONDAUDIT_SEED, or 0 if it is unset
        try:
            args.seed = _seed(os.environ.get("CONDAUDIT_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            args.subparser.error(f"argument --seed: {exc}")
    try:
        return _dispatch(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FULL_COUNT


def _dispatch(args) -> int:
    parsed = ballots_io.parse_path(args.election)
    election = parsed.election if args.scale == 1 else ballots_io.scale(parsed.election, args.scale)
    notes = [f"warning: line {ln}: {msg}" if ln else f"warning: {msg}" for ln, msg in parsed.warnings]

    if args.command == "parse":
        payload = {
            "candidates": list(election.candidates),
            "total_ballots": election.total_ballots,
            "distinct_signatures": len(election.profile),
            "warnings": [{"line": ln, "message": msg} for ln, msg in parsed.warnings],
        }
        lines = [
            f"Candidates ({election.num_candidates}): " + ", ".join(election.candidates),
            f"Total ballots: {election.total_ballots}",
            f"Distinct signatures: {len(election.profile)}",
        ]
        _emit(args, payload, lines + notes)
        return EXIT_OK
    for note in notes:  # parse reports them in its output; every other command on stderr
        print(note, file=sys.stderr)

    if args.command == "tabulate":
        tabulate, _ = METHODS[args.method]
        _emit(args, *RENDER[args.method](tabulate(election, pairwise_tallies(election)), election))
        return EXIT_OK

    if args.command == "assertions":
        aset = _method_assertions(args, election)
        text = json.dumps(export_assertions(aset, election), indent=2)
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
            aset = _method_assertions(args, election)
        elif args.assertions_file:
            aset = import_assertions(ballots_io.read_text(args.assertions_file), election)
        else:
            raise UsageError("estimate needs --method or --assertions-file")
        est = estimate_audit(aset, election, cfg, workers=args.workers)
        payload, lines = _estimate_payload(aset, est, election, cfg)
        _emit(args, payload, lines)
        return EXIT_FULL_COUNT if est.full_count_flag else EXIT_OK

    if args.command == "audit":
        cfg = _cfg_from_args(args)
        aset = import_assertions(ballots_io.read_text(args.assertions_file), election)
        samples = load_samples(args.samples_file, election)
        report = run_audit(aset, samples, election, cfg)
        payload, lines = _audit_payload(report, election)
        _emit(args, payload, lines)
        return EXIT_OK if report.certified else EXIT_FULL_COUNT


if __name__ == "__main__":
    sys.exit(main())
