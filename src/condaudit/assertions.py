"""Audit assertions and their assorters.

An assertion is a claimed inequality over ballot tallies; jointly, a
method's assertion set implies its reported winner won.  Every assertion is
scored per ballot by an *assorter*: a value in [0, 1] whose population mean
exceeds 1/2 exactly when the claimed inequality holds.

Each claim is integer weights ``W`` over ordered candidate pairs
(:func:`pair_weights`): a ballot contributes ``g = sum_ij W[i, j] *
prefers(i, j)`` and scores ``(g - a) / (-2a)`` with ``a = -h``.  The
normaliser ``h`` is 1 for a pairwise claim and 2 for a score comparison,
where ``-h`` is the minimum of ``g``; for a ranking comparison over k
candidates it is ``k(k-1)/2``, below the minimum of ``g`` whenever the two
rankings order some pair alike.  A claim's reported mean is exact: with its
integer margin ``M = sum_ij W[i, j] * tallies[i, j]`` over ``N`` ballots it is
``(M + hN) / 2hN`` (:func:`claim_mean`), above 1/2 exactly when ``M > 0``.

Three claim shapes are supported:

* ``PairwisePositive(w, l)`` — more ballots prefer w over l than l over w.
* ``ScoreComparison(hi, lo)`` — the pairwise margin of ``hi`` exceeds the
  pairwise margin of ``lo``.
* ``RankingComparison(preferred, other)`` — the sum of pairwise tallies
  agreeing with the complete ranking ``preferred`` exceeds that of
  ``other``.

Each shape is declared once, on its class: its JSON ``tag``, its candidate
fields (an ``int`` field is one candidate, a tuple field several), its
``text`` form (formatted with each field's candidate names joined by ``,``)
and its ``claim()``: the pairs ``W`` weights +1, the pairs it weights -1,
and ``h``.  Weights, relabelling, text, export and import read these
declarations and nothing else about a shape.

``FullHandCount`` is a sentinel "assertion" marking outcomes no ballot
sample can verify (unresolvable ties, capacity limits); it always escalates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from typing import ClassVar, Sequence, Union, get_args

import numpy as np

from .ballots import ParseError, resolve_names, roster_index
from .model import Election, pairwise_tallies
from .tabulation import (
    KEMENY_MAX_K,
    CapacityError,
    KemenyResult,
    MinimaxResult,
    RankedPairsResult,
    SmithResult,
    minimax_tabulate,
)


class SchemaError(ValueError):
    """Malformed or inconsistent assertion-set document."""


@dataclass(frozen=True)
class PairwisePositive:
    winner: int
    loser: int
    tag: ClassVar[str] = "pairwise_positive"
    text: ClassVar[str] = "s({winner},{loser}) > 0"

    def __post_init__(self):
        if self.winner == self.loser:
            raise ValueError("pairwise assertion needs two distinct candidates")

    def claim(self) -> tuple[list, list, int]:
        return [(self.winner, self.loser)], [(self.loser, self.winner)], 1


@dataclass(frozen=True)
class ScoreComparison:
    hi: tuple[int, int]
    lo: tuple[int, int]
    tag: ClassVar[str] = "score_comparison"
    text: ClassVar[str] = "s({hi}) > s({lo})"

    def __post_init__(self):
        object.__setattr__(self, "hi", tuple(self.hi))
        object.__setattr__(self, "lo", tuple(self.lo))
        for pair in (self.hi, self.lo):
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"malformed candidate pair {pair}")
        if self.hi == self.lo:
            raise ValueError("score comparison needs two distinct ordered pairs")

    def claim(self) -> tuple[list, list, int]:
        (i, j), (k, l) = self.hi, self.lo
        return [(i, j), (l, k)], [(k, l), (j, i)], 2


@dataclass(frozen=True)
class RankingComparison:
    preferred: tuple[int, ...]
    other: tuple[int, ...]
    tag: ClassVar[str] = "ranking_comparison"
    text: ClassVar[str] = "T([{preferred}]) > T([{other}])"

    def __post_init__(self):
        object.__setattr__(self, "preferred", tuple(self.preferred))
        object.__setattr__(self, "other", tuple(self.other))
        for ranking in (self.preferred, self.other):
            if len(set(ranking)) != len(ranking):
                raise ValueError("rankings may not repeat candidates")
        if set(self.preferred) != set(self.other):
            raise ValueError("rankings must cover the same candidates")
        if not self.preferred or self.preferred[0] == self.other[0]:
            raise ValueError("compared rankings must start with different candidates")

    def claim(self) -> tuple[list, list, int]:
        plus = list(itertools.combinations(self.preferred, 2))
        return plus, list(itertools.combinations(self.other, 2)), len(plus)


@dataclass(frozen=True)
class FullHandCount:
    reason: str = ""
    tag: ClassVar[str] = "full_hand_count"

    def claim(self):
        raise ValueError("a full-hand-count sentinel has no assorter")


Assertion = Union[PairwisePositive, ScoreComparison, RankingComparison, FullHandCount]


@dataclass(frozen=True)
class AssertionSet:
    """A method's assertions for one reported outcome.

    ``winner`` is None only for full-hand-count outcomes.  A set containing
    a ``FullHandCount`` contains nothing else.
    """

    method: str
    winner: int | None
    assertions: tuple[Assertion, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "assertions", tuple(self.assertions))
        if any(isinstance(a, FullHandCount) for a in self.assertions) and len(self.assertions) != 1:
            raise ValueError("a full-hand-count sentinel must be the set's only member")

    @property
    def full_hand_count(self) -> bool:
        return any(isinstance(a, FullHandCount) for a in self.assertions)


# ---------------------------------------------------------------------------
# Assorters


def pair_weights(assertion: Assertion, num_candidates: int) -> tuple[np.ndarray, int]:
    """The claim as integer weights ``W`` over ordered pairs, plus its normaliser ``h``.

    A ballot's signed contribution is ``g = sum_ij W[i, j] * prefers(i, j)``
    and its assorter is ``(g + h) / 2h``.
    """
    if not isinstance(assertion, get_args(Assertion)):
        raise TypeError(f"not an assertion: {assertion!r}")
    plus, minus, h = assertion.claim()
    weights = np.zeros((num_candidates, num_candidates), dtype=np.int64)
    for pair in plus:
        weights[pair] += 1
    for pair in minus:
        weights[pair] -= 1
    return weights, h


def assorter_values(assertion: Assertion, prefs: np.ndarray) -> np.ndarray:
    """Assorter of every signature in a :func:`preference_matrix`; each in [0, 1]."""
    weights, h = pair_weights(assertion, prefs.shape[-1])
    return (np.tensordot(prefs, weights, axes=2) + h) / (2 * h)


def claim_mean(assertion: Assertion, tallies: np.ndarray, total: int) -> float:
    """Population mean of the assorter, exactly, from the pairwise tallies of ``total`` ballots.

    The claim's integer margin ``M = sum(W * tallies)`` gives the mean
    ``(M + h*N) / 2hN``, correctly rounded; it exceeds 1/2 exactly when
    ``M > 0``.  An empty election has mean 1/2: no evidence either way.
    """
    if total == 0:
        return 0.5
    weights, h = pair_weights(assertion, tallies.shape[0])
    return (int((weights * tallies).sum()) + h * total) / (2 * h * total)


def assorter_mean(assertion: Assertion, election: Election) -> float:
    """Population mean of the assorter over every ballot in the election."""
    return claim_mean(assertion, pairwise_tallies(election), election.total_ballots)


# ---------------------------------------------------------------------------
# Per-method assertion generation


def _dedupe(assertions: Sequence[Assertion]) -> tuple[Assertion, ...]:
    seen: set[Assertion] = set()
    out: list[Assertion] = []
    for a in assertions:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return tuple(out)


def condorcet_assertions(winner: int, num_candidates: int, method: str = "condorcet") -> AssertionSet:
    """The k-1 pairwise claims that the winner beats every other candidate."""
    if num_candidates < 2:
        raise ValueError("condorcet assertions need at least two candidates")
    if not 0 <= winner < num_candidates:
        raise ValueError(f"winner index {winner} out of range")
    assertions = tuple(
        PairwisePositive(winner, c) for c in range(num_candidates) if c != winner
    )
    return AssertionSet(method, winner, assertions)


def ranked_pairs_assertions(rp: RankedPairsResult) -> AssertionSet:
    """Assertions verifying a Ranked Pairs outcome.

    Two groups: a positive-majority claim for each committed pair led by the
    winner, and, for each preference the winner holds only through a path,
    claims that every pair on the path outscores the opposing pair.
    """
    if rp.winner is None:
        return AssertionSet("ranked-pairs", None, (FullHandCount(rp.reason or "unresolved tie"),))
    w = rp.winner
    out: list[Assertion] = []
    for pair in rp.commits:
        if pair.winner == w:
            out.append(PairwisePositive(w, pair.loser))
    for inf in rp.inferences:
        if inf.winner != w:
            continue
        c = inf.loser
        for (i, j) in inf.basis:
            out.append(ScoreComparison((i, j), (c, w)))
    return AssertionSet("ranked-pairs", w, _dedupe(out))


def minimax_assertions(mm: MinimaxResult, score_matrix: np.ndarray) -> AssertionSet:
    """Assertions verifying a Minimax (margins) outcome.

    With a Condorcet winner this is the plain winner-beats-all set.
    Otherwise the winner's strongest defeat is compared against their other
    losses, and against the strongest defeat of every other candidate.
    """
    s = np.asarray(score_matrix)
    k = s.shape[0]
    if mm.winner is None:
        return AssertionSet("minimax", None, (FullHandCount(mm.reason or "tie"),))
    w = mm.winner
    if k == 1:
        return AssertionSet("minimax", w, ())
    if mm.condorcet_case:
        return condorcet_assertions(w, k, method="minimax")
    d_w = mm.strongest_defeater.get(w)
    if d_w is None or any(x != w and x not in mm.strongest_defeater for x in range(k)):
        # Some candidate has no strict loss, so a strongest defeat cannot be
        # named for it and the margin comparisons below cannot be formed.
        return AssertionSet(
            "minimax", None,
            (FullHandCount("a candidate has no strict pairwise loss to compare"),),
        )
    out: list[Assertion] = []
    for c in range(k):
        if c != w and c != d_w:
            out.append(ScoreComparison((d_w, w), (c, w)))
    for x in range(k):
        if x == w:
            continue
        out.append(ScoreComparison((mm.strongest_defeater[x], x), (d_w, w)))
    return AssertionSet("minimax", w, _dedupe(out))


def smith_assertions(
    sm: SmithResult,
    num_candidates: int,
    *,
    score_matrix: np.ndarray | None = None,
    imported: AssertionSet | None = None,
) -> AssertionSet:
    """Assertions verifying a Smith-set outcome plus an inner winner.

    Stage one claims every member beats every non-member; stage two claims
    each member is beaten by the in-set opponent with the largest margin,
    which shows no member can be dropped.  The winner among the members is
    then justified by inner assertions: Minimax assertions computed over the
    member-restricted margins of ``score_matrix`` (method ``smith-minimax``),
    or an ``imported`` set over the members (method ``smith-irv``).  Exactly
    one of the two must be given.
    """
    if (score_matrix is None) == (imported is None):
        raise ValueError("give exactly one of score_matrix (inner minimax) and imported (inner IRV)")
    method = "smith-minimax" if imported is None else "smith-irv"
    members = sm.smith_set
    if imported is not None and not imported.full_hand_count:
        mentioned = {c for a in imported.assertions for c in _candidates_of(a)}
        if imported.winner is None or imported.winner not in members or not mentioned <= set(members):
            raise ValueError("imported inner assertions must be over Smith-set members only")
    if sm.tie_flag:
        return AssertionSet(method, None, (FullHandCount("pairwise tie within the Smith set"),))

    stage1: list[Assertion] = [
        PairwisePositive(c, o)
        for c in members
        for o in range(num_candidates)
        if o not in members
    ]
    if len(members) == 1:
        return AssertionSet(method, members[0], tuple(stage1))

    stage2: list[Assertion] = []
    for c in members:
        if c not in sm.inner_defeats:
            return AssertionSet(
                method, None,
                (FullHandCount("a Smith-set member has no in-set defeat"),),
            )
        stage2.append(PairwisePositive(sm.inner_defeats[c][0], c))

    if imported is None:
        s = np.asarray(score_matrix)
        sub = s[np.ix_(members, members)]
        inner_mm = minimax_tabulate(sub)
        inner_set = minimax_assertions(inner_mm, sub)
        if inner_set.full_hand_count:
            reason = inner_set.assertions[0].reason
            return AssertionSet(method, None, (FullHandCount(f"inner minimax: {reason}"),))
        winner = members[inner_set.winner]
        inner_assertions = [_relabel(a, members) for a in inner_set.assertions]
    elif imported.full_hand_count:
        return AssertionSet(method, None, (FullHandCount("imported inner set escalates"),))
    else:
        winner = imported.winner
        inner_assertions = list(imported.assertions)

    return AssertionSet(method, winner, _dedupe(stage1 + stage2 + inner_assertions))


def _relabel(assertion: Assertion, mapping: Sequence[int]) -> Assertion:
    """Map a claim's local candidate indices through ``mapping``."""
    return type(assertion)(**_map_candidates(assertion, mapping.__getitem__))


def _candidates_of(assertion: Assertion) -> set[int]:
    plus, minus, _ = assertion.claim()
    return {c for pair in plus + minus for c in pair}


def kemeny_assertions(kr: KemenyResult) -> AssertionSet:
    """One ranking-tally comparison per complete ranking led by a different candidate.

    The count grows as k! - (k-1)!, so k is capped at ``KEMENY_MAX_K``; beyond it a
    :class:`CapacityError` is raised rather than emitting an impractical set.
    """
    ranking = kr.best_ranking
    k = len(ranking)
    if k > KEMENY_MAX_K:
        raise CapacityError(
            f"kemeny audit over {k} candidates needs {k}!-({k}-1)! assertions; limit is {KEMENY_MAX_K}"
        )
    if k == 1:
        return AssertionSet("kemeny", kr.winner, ())
    out = [
        RankingComparison(ranking, perm)
        for perm in itertools.permutations(range(k))
        if perm[0] != kr.winner
    ]
    return AssertionSet("kemeny", kr.winner, tuple(out))


# ---------------------------------------------------------------------------
# Text and JSON interchange


def _one_candidate(f) -> bool:
    """An ``int`` field holds one candidate; a tuple field holds several."""
    return f.type == "int"  # annotations are strings: this module postpones their evaluation


def _map_candidates(claim: Assertion, fn, several=list) -> dict:
    """Each field of a claim with ``fn`` applied to its one candidate, or ``several`` over its candidates."""
    out = {}
    for f in fields(claim):
        value = getattr(claim, f.name)
        out[f.name] = fn(value) if _one_candidate(f) else several(fn(c) for c in value)
    return out


def describe(assertion: Assertion, names: Sequence[str]) -> str:
    """Human-readable one-liner for an assertion, using candidate names."""
    if isinstance(assertion, FullHandCount):
        return f"full hand count: {assertion.reason}" if assertion.reason else "full hand count"
    return assertion.text.format(**_map_candidates(assertion, names.__getitem__, ",".join))


def export_assertions(aset: AssertionSet, election: Election) -> dict:
    """Assertion-set document with candidate indices resolved to names."""
    names = election.candidates

    def enc(a: Assertion) -> dict:
        if isinstance(a, FullHandCount):
            return {"type": a.tag, "reason": a.reason}
        return {"type": a.tag, **_map_candidates(a, names.__getitem__)}

    metadata = dict(aset.metadata)
    metadata.setdefault("election_sha256", election.digest())
    return {
        "method": aset.method,
        "winner": None if aset.winner is None else names[aset.winner],
        "assertions": [enc(a) for a in aset.assertions],
        "metadata": metadata,
    }


def export_assertions_json(aset: AssertionSet, election: Election) -> str:
    return json.dumps(export_assertions(aset, election), indent=2)


_BY_TAG = {cls.tag: cls for cls in get_args(Assertion)}


def import_assertions(doc: dict | str, election: Election) -> AssertionSet:
    """Load an assertion-set document, resolving names against the election.

    An unknown type tag, and a candidate field that
    :func:`~condaudit.ballots.resolve_names` rejects, raise
    :class:`SchemaError`.  When the document carries an election digest, a
    mismatch with this election is an error.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("assertion document must be an object")
    index = roster_index(election.candidates)

    def resolve(value, key: str, one: bool):
        """One candidate (``one``, an ``int`` field) or a tuple of them."""
        try:
            sig = resolve_names([value] if one else value, index, where=repr(key))
        except ParseError as exc:
            raise SchemaError(str(exc)) from None
        return sig[0] if one else sig

    method = doc.get("method")
    if not isinstance(method, str):
        raise SchemaError("'method' must be a string")
    raw_winner = doc.get("winner")
    winner = None if raw_winner is None else resolve(raw_winner, "winner", True)

    assertions: list[Assertion] = []
    entries = doc.get("assertions")
    if not isinstance(entries, list):
        raise SchemaError("'assertions' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("each assertion must be an object")
        tag = entry.get("type")
        cls = _BY_TAG.get(tag) if isinstance(tag, str) else None
        try:
            if cls is None:
                raise SchemaError(f"unknown assertion type tag {tag!r}")
            if cls is FullHandCount:
                reason = entry.get("reason", "")
                if not isinstance(reason, str):
                    raise SchemaError("a full-hand-count 'reason' must be a string")
                assertions.append(FullHandCount(reason))
                continue
            candidates = {f.name: resolve(entry[f.name], f.name, _one_candidate(f)) for f in fields(cls)}
            if cls is RankingComparison and set(candidates["preferred"]) != set(range(election.num_candidates)):
                raise SchemaError("ranking comparisons must rank every candidate")
            assertions.append(cls(**candidates))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed {tag or 'assertion'} entry: {exc}") from None
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(str(exc)) from None

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("'metadata' must be an object")
    declared = metadata.get("election_sha256")
    if declared is not None and declared != election.digest():
        raise SchemaError("assertion set was generated for a different election (digest mismatch)")
    try:
        return AssertionSet(method, winner, tuple(assertions), dict(metadata))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
