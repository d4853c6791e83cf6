"""Command-line front end.

Subcommands: ``parse`` (check a ballot file), ``tabulate`` (winner and
method structures), ``assertions`` (emit an assertion-set JSON document),
``estimate`` (simulated audit sample sizes), and ``audit`` (run a batch
audit over a drawn sample).  Methods come from the library's
``assertions.METHODS``; this module renders results and reports usage
errors.  Ingest warnings go to stderr (``parse`` reports them on stdout).
Settings come from the command line only: the simulation seed is ``--seed``
(default 0), and no environment variable is read.

Exit codes: 0 success; 1 full-hand-count outcome, infeasible audit
(``InfeasibleAuditError``), capacity limit (``CapacityError``) or out of
memory; 2 a bad input file of any kind (``ParseError``); 64 usage errors,
and text output that standard output cannot encode (none of it is written);
70 internal error (any other exception, reported with its traceback).
``--format json`` output is ``json.dumps(obj, indent=2)`` byte for byte,
where ``obj`` is the payload with each float64 array (an audit's p-value
traces) read as its ``tolist()``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import fields
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import ballots as ballots_io
from .assertions import (
    METHODS,
    AssertionSet,
    describe,
    export_assertions,
    import_assertions,
    method_assertions,
)
from .audit import (
    AUDIT_STYLES,
    ASNEstimate,
    AuditConfig,
    AuditReport,
    InfeasibleAuditError,
    _escalates,
    estimate_audit,
    load_samples,
    run_audit,
)
from .ballots import ParseError
from .model import CapacityError, Election, pairwise_tallies
from .tabulation import IrvResult

EXIT_OK = 0
EXIT_FULL_COUNT = 1
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

INFINITY = "∞"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(read, message: str, least: float = float("-inf")):
    """An argparse type: a number of at least ``least``, read by ``read`` (:func:`~condaudit.ballots.parse_int`
    or :func:`~condaudit.ballots.parse_decimal`); any other value is a usage error, ``message`` formatted with it."""
    def parse(raw: str):
        try:
            if (value := read(raw)) >= least:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message.format(raw))
    return parse


_int = _number(ballots_io.parse_int, "invalid int value: {!r}")  # --trials and --seed
_positive_int = _number(ballots_io.parse_int, "must be a positive integer, got {!r}", least=1)  # --scale, --workers
_float = _number(ballots_io.parse_decimal, "invalid float value: {!r}")  # --risk-limit and --error-rate


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condaudit", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_audit=False, with_format=True):
        p.add_argument(
            "election", help="election file: .json native, .soi/.soc Preflib ordinal, any other native if it starts with '{'"
        )
        p.add_argument("--scale", type=_positive_int, default=1, help="multiply every ballot count (default 1)")
        if with_format:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if with_audit:
            p.add_argument("--risk-limit", type=_float, default=AuditConfig.risk_limit)
            p.add_argument("--style", choices=AUDIT_STYLES, default=AuditConfig.style)
            p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("parse", help="parse a ballot file and report its shape")
    common(p)

    p = sub.add_parser("tabulate", help="tabulate the election under one method")
    common(p)
    p.add_argument("--method", choices=METHODS, required=True)

    p = sub.add_parser("assertions", help="generate the audit assertion set for one method")
    common(p, with_format=False)  # always JSON
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--assertions-file", help="imported inner set over the Smith set (smith-irv only, required)")
    p.add_argument("-o", "--output", help="write the assertion-set JSON here instead of stdout")

    p = sub.add_parser("estimate", help="estimate audit sample sizes by simulation")
    common(p, with_audit=True)
    p.add_argument("--error-rate", type=_float, default=AuditConfig.error_rate)
    p.add_argument("--trials", type=_int, default=AuditConfig.trials)
    p.add_argument("--seed", type=_int, default=AuditConfig.seed)
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
    if sm.winner is not None and isinstance(sm.inner, IrvResult) and sm.inner.tie_flag:
        lines.append("Warning: an elimination tie was broken by candidate order")
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


# The C encoder for every scalar and non-string key.  Its item separator never
# shows: it writes one value at a time, or a dict of one item.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", ", ", False, False, True)


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for an acyclic ``obj`` whose
    1-D float64 arrays are read as their ``tolist()``, without the pure-Python
    encoder json falls back to whenever ``indent`` is set.

    One walk (:func:`_write`) appends every piece of text to one list, joined once.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is the newline and indent before its closing bracket.

    Each item of a dict, list or tuple is written one level deeper.  Scalars
    go through the C encoder.  A 1-D float64 array is written as its
    ``tolist()``, formatting each run of equal bit patterns once, as
    ``float.__repr__`` costs the same whoever calls it: an audit's p-value
    trace is a running minimum, so its runs are its few distinct values.  Bit
    patterns, not values, mark the runs: ``0.0 == -0.0``, and NaN equals
    nothing.  Any other array raises ``TypeError``, as ``json.dumps`` does.
    """
    floats = isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64
    if not (floats or isinstance(obj, (dict, list, tuple))):
        out += _encode(obj, 0)
        return
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not len(obj):
        out.append(brackets)
        return
    inner = newline + "  "
    out.append(brackets[0] + inner)
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            out.append(f",{inner}{_key(key)}: " if i else f"{_key(key)}: ")
            _write(value, inner, out)
    elif floats:
        bits = obj.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        texts = np.array(json.dumps(bits[starts].view(np.float64).tolist())[1:-1].split(", "), dtype=object)
        out.append(("," + inner).join(np.repeat(texts, np.diff(starts, append=bits.size)).tolist()))
    else:
        for i, value in enumerate(obj):
            if i:
                out.append("," + inner)
            _write(value, inner, out)
    out.append(newline + brackets[1])


def _key(key) -> str:
    """A dict key as json writes it: a string, or a float, int, bool or None turned into one."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return "".join(_encode({key: None}, 0))[1 : -len(": null}")]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    # One print: a stream that cannot encode a character of the text receives none of it.
    print(_dumps(payload) if args.format == "json" else "\n".join(text_lines))


def _escalation_rows(aset: AssertionSet, election: Election, **row) -> list[dict]:
    """The one row that says why a set certifies nothing, beside its assertions; none for any other set."""
    if not _escalates(aset, election):
        return []
    reason = "no assertion" if aset.escalation is None else aset.escalation
    return [{"assertion": f"full hand count: {reason}" if reason else "full hand count", **row}]


def _estimate_payload(aset: AssertionSet, est: ASNEstimate, election: Election, cfg: AuditConfig):
    names = election.candidates
    rows = [
        {"assertion": describe(a, names), "asn": asn,
         "pct": round(100.0 * asn / est.population, 2) if est.population else 0.0}
        for a, asn in zip(aset.assertions, est.per_assertion)
    ] + _escalation_rows(aset, election, asn=None, pct=None)
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
    table = [(r["assertion"], r["asn"], r["pct"]) for r in rows] + [("Overall", payload["overall_asn"], est.percentage)]
    for label, asn, pct in table:
        shown = f"{INFINITY:>8}  {INFINITY:>8}" if asn is None else f"{asn:>8}  {pct:>7.2f}%"
        lines.append(f"{label:<{width}}  {shown}")
    return payload, lines


def _audit_payload(aset: AssertionSet, report: AuditReport, election: Election):
    names = election.candidates
    rows = [
        {
            "assertion": describe(rec.assertion, names),
            "certified": rec.certified,
            "p_value": rec.p_value,
            "p_trace": rec.p_trace,
        }
        for rec in report.records
    ] + _escalation_rows(aset, election, certified=False, p_value=1.0, p_trace=[])
    payload = {
        "outcome": report.outcome,
        "ballots_examined": report.ballots_examined,
        "risk_limit": report.risk_limit,
        "assertions": rows,
    }
    width = max([len(r["assertion"]) for r in rows] + [len("Assertion")])
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
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeEncodeError as exc:
        print(f"error: standard output cannot encode the text output ({exc.encoding}); use --format json",
              file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, InfeasibleAuditError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FULL_COUNT
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE


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
    if not election.candidates:  # parse describes such a file; no other command can count it
        raise ParseError("the election names no candidates")

    if args.command == "tabulate":
        tabulate, _ = METHODS[args.method]
        _emit(args, *RENDER[args.method](tabulate(election, pairwise_tallies(election)), election))
        return EXIT_OK

    if args.command == "assertions":
        aset = _method_assertions(args, election)
        text = _dumps(export_assertions(aset, election))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            count = len(aset.assertions)
            written = f"{count} assertion{'s' * (count != 1)}"
            if aset.full_hand_count:
                written = "a full-hand-count escalation"
            print(f"wrote {written} to {args.output}")
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
        stream = load_samples(args.samples_file, election)
        report = run_audit(aset, stream, election, cfg)
        payload, lines = _audit_payload(aset, report, election)
        _emit(args, payload, lines)
        return EXIT_OK if report.certified else EXIT_FULL_COUNT


if __name__ == "__main__":
    sys.exit(main())
