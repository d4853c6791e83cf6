"""Parsers and serializers for ranked-ballot election files.

Two input formats are supported:

* Preflib ordinal files in the metadata-header dialect: ``#``-prefixed
  ``KEY: VALUE`` lines and vote lines ``count: c1,c2,...`` with 1-based
  candidate numbers.  The header keys read, in any letter case and each at
  most once, are the nonnegative counts ``NUMBER ALTERNATIVES``, ``NUMBER
  VOTERS`` and ``NUMBER UNIQUE ORDERS``, ``DATA TYPE`` and ``ALTERNATIVE NAME
  i``.  A ``#`` line whose text before its first ``:``, upper-cased and
  with each run of whitespace, ``_`` and ``-`` read as one space, starts
  with one of them but is not one (``ALTERNATIVE NAME1``, ``ALTERNATIVE_NAME
  1``, ``ALTERNATIVE  NAME 1``) is a malformed key; other keys and comments
  are skipped.  Only strict orders (``soc``/``soi``) are accepted; dialects
  with ties are rejected.
* A native JSON format:
  ``{"candidates": [names...], "ballots": [{"ranking": [names...], "count": n}, ...]}``.

Parsing never repairs a line silently: anything normalized on ingest (merged
duplicate signatures, metadata mismatches) is surfaced as a warning, at its
1-based line, or at line ``None`` when no line holds it (a declared count, a
native file's repeated ranking).

This module is the one input boundary: :func:`read_text` reads every input
file (elections, sample files, assertion sets) and :func:`decode_json`
decodes every JSON document in them, the only code that sees a
``json.JSONDecodeError``.  :func:`resolve_names` turns every JSON list of
candidate names into a ballot, :func:`parse_int` reads every integer written
as text (Preflib counts and candidate numbers, and integer flags) and
:func:`parse_decimal` every decimal flag.  A fault in any input file,
whichever module finds it, is a :class:`ParseError`, the one error for bad
input, raised where it is found.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .model import Ballot, Election, as_integer


class ParseError(ValueError):
    """A malformed or inconsistent input file of any kind: ``reason``, at 1-based ``line`` when known."""

    def __init__(self, reason: str, line: int | None = None):
        self.reason, self.line = reason, line
        super().__init__(reason if line is None else f"line {line}: {reason}")


@dataclass
class ParseReport:
    """A parsed election plus any (line, message) ingest warnings, ``line`` 1-based or ``None`` as in ParseError."""

    election: Election
    warnings: list[tuple[int | None, str]] = field(default_factory=list)


_METADATA_RE = re.compile(r"^#\s*([A-Za-z][A-Za-z0-9 ]*?)\s*:\s*(.*?)\s*$")
_ALT_NAME_RE = re.compile(r"^ALTERNATIVE NAME (\d+)$")


def read_text(path: str | Path) -> str:
    """The text of an input file, its line ends as they are; bytes that are not UTF-8 are a :class:`ParseError`."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _unique(pairs: list[tuple], what: str) -> dict:
    """The dict of (key, value) ``pairs``; a key given twice is a :class:`ParseError` naming ``what``."""
    table = dict(pairs)
    if len(table) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"{what} {next(key for pos, key in enumerate(keys) if key in keys[:pos])!r}")
    return table


_DECODER = json.JSONDecoder(object_pairs_hook=lambda pairs: _unique(pairs, "repeated key"))


def decode_json(text: str):
    """``json.loads(text)``, except that every fault is a :class:`ParseError`: text that is not JSON
    (a leading UTF-8 BOM too) names its line, and a key given twice in one object names the key."""
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None


def roster_index(names: Sequence[str]) -> dict[str, int]:
    """Candidate index by name; a name given twice is a :class:`ParseError`."""
    return _unique([(name, i) for i, name in enumerate(names)], "duplicate candidate name")


def resolve_names(names, index: dict[str, int], where: str) -> Ballot:
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


def _count(token: str, lineno: int, what: str) -> int:
    count = _parse_int(token, lineno, what)
    if count < 0:
        raise ParseError(f"negative {what} {count}", lineno)
    return count


def _data_type(value: str, lineno: int, _: str) -> str:
    if value.lower() not in ("soc", "soi"):
        raise ParseError(f"unsupported data type {value!r}: only strict orders "
                         "(soc/soi) are accepted, rankings with ties are not", lineno)
    return value


# The Preflib header keys read, each with the check of its value, besides ALTERNATIVE NAME i.
_HEADER_CHECKS = {"NUMBER ALTERNATIVES": _count, "NUMBER VOTERS": _count, "NUMBER UNIQUE ORDERS": _count,
                  "DATA TYPE": _data_type}
_READ_KEYS = ("ALTERNATIVE NAME", *_HEADER_CHECKS)


def parse_preflib(text: str) -> ParseReport:
    """Parse a Preflib ordinal file (strict orders only) into an election."""
    header: dict[str | int, tuple[int, int | str]] = {}  # key -> (line, value)
    votes: list[tuple[int, int, tuple[int, ...]]] = []  # (line, count, 1-based ranking)
    warnings: list[tuple[int | None, str]] = []

    # Not splitlines(): line numbers count "\n" alone, and strip() drops the "\r" of "\r\n".
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _METADATA_RE.match(stripped)
            key, value = (m.group(1).upper(), m.group(2)) if m else ("", "")
            alt = _ALT_NAME_RE.match(key)
            if alt:
                key = int(alt.group(1))
            elif key in _HEADER_CHECKS:
                value = _HEADER_CHECKS[key](value, lineno, key)
            else:
                # A near miss ("ALTERNATIVE NAME1", "ALTERNATIVE_NAME 1") is not skipped as unread.
                head, colon, _ = stripped[1:].partition(":")
                if colon and re.sub(r"[\s_-]+", " ", head.upper()).strip().startswith(_READ_KEYS):
                    raise ParseError(f"malformed header key {head.strip()!r}", lineno)
                continue  # a free-form comment or a key that is not read
            if key in header:
                name = key if alt is None else f"ALTERNATIVE NAME {key}"
                raise ParseError(f"{name} repeats line {header[key][0]}", lineno)
            header[key] = (lineno, value)
            continue

        if "{" in stripped or "}" in stripped:
            raise ParseError("tied ranks are not supported (strict orders only)", lineno)
        count_part, sep, rank_part = stripped.partition(":")
        if not sep:
            raise ParseError("expected 'count: c1,c2,...'", lineno)
        count = _count(count_part.strip(), lineno, "vote count")
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

    if "NUMBER ALTERNATIVES" in header:
        _, k = header["NUMBER ALTERNATIVES"]
    else:
        k = max((max(r) for _, _, r in votes if r), default=0)
        if votes:
            warnings.append((votes[0][0], f"NUMBER ALTERNATIVES missing; inferred {k}"))
    for lineno, _, ranking in votes:
        for c in ranking:
            if not 1 <= c <= k:
                raise ParseError(f"candidate number {c} out of range 1..{k}", lineno)

    for i, (lineno, _) in header.items():
        if isinstance(i, int) and not 1 <= i <= k:
            raise ParseError(f"ALTERNATIVE NAME {i} out of range 1..{k}", lineno)
    names = tuple(header[i][1] if i in header else f"C{i}" for i in range(1, k + 1))
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
    for key, found, phrase in (("NUMBER VOTERS", election.total_ballots, "votes sum to"),
                               ("NUMBER UNIQUE ORDERS", len(profile), "found")):
        if key in header and header[key][1] != found:
            warnings.append((None, f"{key} declares {header[key][1]} but {phrase} {found}"))
    return ParseReport(election, warnings)


def parse_int(token: str) -> int:
    """``int(token)`` for ASCII digits after an optional ``-``, the one integer spelling of every input."""
    if not (token.removeprefix("-").isdigit() and token.isascii()):  # int() also reads "+1", "1_0", other digits
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


_DECIMAL_RE = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def parse_decimal(token: str) -> float:
    """``float(token)`` for ASCII digits with at most one ``.`` and an optional exponent, after an optional
    ``-``: the one decimal spelling of every input."""
    if not _DECIMAL_RE.fullmatch(token):  # float() also reads "+1", "1_0", " 1", "nan", "inf", other digits
        raise ValueError(f"not a decimal: {token!r}")
    return float(token)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise ParseError(f"malformed {what}: {token!r}", lineno) from None


def parse_native(text: str) -> ParseReport:
    """Parse the native election JSON format."""
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    names = doc.get("candidates")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError("'candidates' must be a list of names")
    index = roster_index(names)

    warnings: list[tuple[int | None, str]] = []
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
            warnings.append((None, f"{where}: duplicate signature; counts merged"))
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


def serialize_election(election: Election) -> str:
    """Native-format JSON text for an election, its ballots in signature order."""
    names = election.candidates
    ballots = [{"ranking": [names[c] for c in sig], "count": n} for sig, n in sorted(election.profile.items())]
    return json.dumps({"candidates": list(names), "ballots": ballots}, indent=2)


def scale(election: Election, factor: int) -> Election:
    """Multiply every signature count by a positive integer factor (a numpy integer too, not a bool)."""
    times = as_integer(factor)
    if times is None or times < 1:
        raise ValueError(f"scale factor must be a positive integer, got {factor!r}")
    return Election(election.candidates, {sig: n * times for sig, n in election.profile.items()})
