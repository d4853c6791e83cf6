"""Parsers and serializers for ranked-ballot election files.

Two input formats are supported:

* Preflib ordinal files in the metadata-header dialect: ``#``-prefixed
  ``KEY: VALUE`` lines (``NUMBER ALTERNATIVES``, ``ALTERNATIVE NAME i``, ...)
  followed by vote lines ``count: c1,c2,...`` with 1-based candidate numbers.
  Only strict orders (``soc``/``soi``) are accepted; dialects with ties are
  rejected.
* A native JSON format:
  ``{"candidates": [names...], "ballots": [{"ranking": [names...], "count": n}, ...]}``.

Parsing never repairs a line silently: anything normalized on ingest (merged
duplicate signatures, metadata mismatches) is surfaced as a warning.

This module is the one input boundary: :func:`read_text` reads every input
file (elections, sample files, assertion sets) and :func:`resolve_names`
turns every JSON list of candidate names into a ballot, so a malformed file
or name is a :class:`ParseError` wherever it arrives.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .model import Ballot, Election


class ParseError(ValueError):
    """Malformed election input.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class ParseReport:
    """A parsed election plus any (line, message) ingest warnings."""

    election: Election
    warnings: list[tuple[int, str]] = field(default_factory=list)


_METADATA_RE = re.compile(r"^#\s*([A-Z][A-Z0-9 ]*?)\s*:\s*(.*?)\s*$")
_ALT_NAME_RE = re.compile(r"^ALTERNATIVE NAME (\d+)$")


def read_text(path: str | Path) -> str:
    """The text of an input file, its line ends as they are; bytes that are not UTF-8 are a :class:`ParseError`."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def roster_index(names: Sequence[str]) -> dict[str, int]:
    """Candidate index by name; a name given twice is a :class:`ParseError`."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        repeated = next(name for pos, name in enumerate(names) if name in names[:pos])
        raise ParseError(f"duplicate candidate name {repeated!r}")
    return index


def resolve_names(names, index: dict[str, int], where: str = "ballot") -> Ballot:
    """The ballot a JSON list of candidate names denotes, given ``index`` by name.

    A value that is not a list, a name that is not a string, an unknown name
    and a repeated name are each a :class:`ParseError` naming ``where``.
    """
    if not isinstance(names, list):
        raise ParseError(f"{where} must be a list of candidate names")
    sig: list[int] = []
    for name in names:
        if not isinstance(name, str):
            raise ParseError(f"{where}: candidate name {name!r} is not a string")
        if name not in index:
            raise ParseError(f"{where}: unknown candidate name {name!r}")
        if index[name] in sig:
            raise ParseError(f"{where}: duplicate candidate {name!r}")
        sig.append(index[name])
    return tuple(sig)


def parse_preflib(text: str) -> ParseReport:
    """Parse a Preflib ordinal file (strict orders only) into an election."""
    num_alternatives: int | None = None
    declared_voters: int | None = None
    declared_orders: int | None = None
    alt_names: dict[int, tuple[int, str]] = {}  # number -> (line, name)
    votes: list[tuple[int, int, tuple[int, ...]]] = []  # (line, count, 1-based ranking)
    warnings: list[tuple[int, str]] = []

    # Not splitlines(): line numbers count "\n" alone, and strip() drops the "\r" of "\r\n".
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _METADATA_RE.match(stripped)
            if not m:
                continue  # free-form comment
            key, value = m.group(1), m.group(2)
            if key == "NUMBER ALTERNATIVES":
                num_alternatives = _parse_int(value, lineno, "NUMBER ALTERNATIVES")
            elif key == "NUMBER VOTERS":
                declared_voters = _parse_int(value, lineno, "NUMBER VOTERS")
            elif key == "NUMBER UNIQUE ORDERS":
                declared_orders = _parse_int(value, lineno, "NUMBER UNIQUE ORDERS")
            elif key == "DATA TYPE":
                if value.lower() not in ("soc", "soi"):
                    raise ParseError(
                        f"unsupported data type {value!r}: only strict orders "
                        "(soc/soi) are accepted, rankings with ties are not",
                        lineno,
                    )
            else:
                m2 = _ALT_NAME_RE.match(key)
                if m2:
                    i = int(m2.group(1))
                    if i in alt_names:
                        raise ParseError(f"ALTERNATIVE NAME {i} repeats line {alt_names[i][0]}", lineno)
                    alt_names[i] = (lineno, value)
            continue

        if "{" in stripped or "}" in stripped:
            raise ParseError("tied ranks are not supported (strict orders only)", lineno)
        count_part, sep, rank_part = stripped.partition(":")
        if not sep:
            raise ParseError("expected 'count: c1,c2,...'", lineno)
        count = _parse_int(count_part.strip(), lineno, "vote count")
        if count < 0:
            raise ParseError(f"negative vote count {count}", lineno)
        rank_part = rank_part.strip()
        ranking: list[int] = []
        if rank_part:
            for tok in rank_part.split(","):
                tok = tok.strip()
                if not tok:
                    raise ParseError("empty candidate field in ranking", lineno)
                ranking.append(_parse_int(tok, lineno, "candidate number"))
        if len(set(ranking)) != len(ranking):
            raise ParseError("duplicate candidate within one ranking", lineno)
        votes.append((lineno, count, tuple(ranking)))

    max_seen = max((max(r) for _, _, r in votes if r), default=0)
    if num_alternatives is None:
        num_alternatives = max_seen
        if votes:
            warnings.append((votes[0][0], f"NUMBER ALTERNATIVES missing; inferred {max_seen}"))
    for lineno, _, ranking in votes:
        for c in ranking:
            if not 1 <= c <= num_alternatives:
                raise ParseError(f"candidate number {c} out of range 1..{num_alternatives}", lineno)

    for i, (lineno, _) in alt_names.items():
        if not 1 <= i <= num_alternatives:
            raise ParseError(f"ALTERNATIVE NAME {i} out of range 1..{num_alternatives}", lineno)
    names = tuple(alt_names[i][1] if i in alt_names else f"C{i}" for i in range(1, num_alternatives + 1))
    roster_index(names)
    profile: dict[Ballot, int] = {}
    first_line: dict[Ballot, int] = {}
    for lineno, count, ranking in votes:
        sig = tuple(c - 1 for c in ranking)
        if sig in profile:
            warnings.append(
                (lineno, f"duplicate signature (first seen on line {first_line[sig]}); counts merged")
            )
        else:
            first_line[sig] = lineno
        profile[sig] = profile.get(sig, 0) + count

    election = Election(names, profile)
    if declared_voters is not None and declared_voters != election.total_ballots:
        warnings.append((0, f"NUMBER VOTERS declares {declared_voters} but votes sum to {election.total_ballots}"))
    if declared_orders is not None and declared_orders != len(profile):
        warnings.append((0, f"NUMBER UNIQUE ORDERS declares {declared_orders} but found {len(profile)}"))
    return ParseReport(election, warnings)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"malformed {what}: {token!r}", lineno) from None


def parse_native(text: str) -> ParseReport:
    """Parse the native election JSON format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    names = doc.get("candidates")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError("'candidates' must be a list of names")
    index = roster_index(names)

    warnings: list[tuple[int, str]] = []
    profile: dict[Ballot, int] = {}
    entries = doc.get("ballots", [])
    if not isinstance(entries, list):
        raise ParseError("'ballots' must be a list")
    for pos, entry in enumerate(entries):
        where = f"ballots[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        sig = resolve_names(entry.get("ranking"), index, where=f"{where}.ranking")
        count = entry.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ParseError(f"{where}.count must be a nonnegative integer")
        if sig in profile:
            warnings.append((0, f"{where}: duplicate signature; counts merged"))
        profile[sig] = profile.get(sig, 0) + count

    return ParseReport(Election(tuple(names), profile), warnings)


def parse_path(path: str | Path) -> ParseReport:
    """Parse an election file, choosing the format from the extension.

    ``.json`` files use the native format and ``.soi``/``.soc`` files the
    Preflib ordinal format; any other file is native if its text starts with
    ``{``, and Preflib otherwise.
    """
    path = Path(path)
    text = read_text(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return parse_native(text)
    if suffix in (".soi", ".soc"):
        return parse_preflib(text)
    head = text.lstrip()[:1]
    return parse_native(text) if head == "{" else parse_preflib(text)


def election_to_dict(election: Election) -> dict:
    """Native-format dictionary for an election (deterministic ordering)."""
    return {
        "candidates": list(election.candidates),
        "ballots": [
            {"ranking": [election.candidates[c] for c in sig], "count": n}
            for sig, n in sorted(election.profile.items())
        ],
    }


def serialize_election(election: Election) -> str:
    return json.dumps(election_to_dict(election), indent=2)


def scale(election: Election, factor: int) -> Election:
    """Multiply every signature count by a positive integer factor."""
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"scale factor must be a positive integer, got {factor!r}")
    return Election(election.candidates, {sig: n * factor for sig, n in election.profile.items()})
