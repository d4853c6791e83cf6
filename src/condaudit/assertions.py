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

:data:`METHODS` is the one table of methods, for the library and the CLI: it
maps each method name to ``(tabulate, generate)``.  ``tabulate(election,
tallies)`` returns the method's result, winner included, given ``tallies =
pairwise_tallies(election)``; ``generate(result, tallies, imported)`` returns
the :class:`AssertionSet` certifying that winner, where ``imported`` is the
inner set over the Smith set that only smith-irv reads.  Irv's ``generate`` is
None: its sets are imported.  :func:`method_assertions` chains the two from an
election.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from typing import ClassVar, Sequence, Union, get_args

import numpy as np

from . import tabulation
from .ballots import ParseError, resolve_names, roster_index
from .model import Election, pairwise_tallies, scores


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


def condorcet_assertions(winner: int | None, num_candidates: int) -> AssertionSet:
    """The k-1 pairwise claims that the winner beats every other candidate; no winner escalates."""
    if winner is None:
        return AssertionSet("condorcet", None, (FullHandCount("no Condorcet winner exists"),))
    if not 0 <= winner < num_candidates:
        raise ValueError(f"winner index {winner} out of range")
    assertions = tuple(
        PairwisePositive(winner, c) for c in range(num_candidates) if c != winner
    )
    return AssertionSet("condorcet", winner, assertions)


def ranked_pairs_assertions(rp: tabulation.RankedPairsResult) -> AssertionSet:
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
    return AssertionSet("ranked-pairs", w, tuple(dict.fromkeys(out)))


def minimax_assertions(mm: tabulation.MinimaxResult) -> AssertionSet:
    """Assertions verifying a Minimax (margins) outcome.

    With a Condorcet winner this is the plain winner-beats-all set.
    Otherwise the winner's strongest defeat is compared against their other
    losses, and against the strongest defeat of every other candidate.
    """
    k = len(mm.worst_loss) or 1  # a sole candidate has no worst loss
    if mm.winner is None:
        return AssertionSet("minimax", None, (FullHandCount(mm.reason or "tie"),))
    w = mm.winner
    if mm.condorcet_case:
        return AssertionSet("minimax", w, condorcet_assertions(w, k).assertions)
    d_w = mm.strongest_defeater.get(w)
    if d_w is None:
        # The winner's worst loss is a tie, so its strongest defeat cannot be
        # named and the comparisons below cannot be formed.  (Every other
        # candidate has a strict loss: the winner's worst loss is the unique lowest.)
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
    return AssertionSet("minimax", w, tuple(dict.fromkeys(out)))


def smith_assertions(
    sm: tabulation.SmithResult,
    num_candidates: int,
    imported: AssertionSet | None = None,
) -> AssertionSet:
    """Assertions verifying a Smith-set outcome plus its inner winner, ``sm.winner``.

    Stage one claims every member beats every non-member; stage two claims
    each member is beaten by the in-set opponent with the largest margin,
    which shows no member can be dropped.  The winner among the members is
    then justified by inner assertions: the Minimax assertions of
    ``sm.inner`` (method ``smith-minimax``), or, when ``sm.inner`` is an IRV
    tabulation (method ``smith-irv``), the ``imported`` set over the members.
    An imported set that mentions a non-member, or whose winner is not
    ``sm.winner``, is a :class:`SchemaError`.
    """
    irv = isinstance(sm.inner, tabulation.IrvResult)
    method = "smith-irv" if irv else "smith-minimax"
    members = sm.smith_set
    if irv and imported is None:
        raise ValueError("smith-irv needs an imported inner assertion set over the Smith set")
    if irv and not imported.full_hand_count:
        mentioned = {c for a in imported.assertions for c in _candidates_of(a)}
        if imported.winner is None or imported.winner not in members or not mentioned <= set(members):
            raise SchemaError("imported inner assertions must be over Smith-set members only")
        if sm.winner is not None and imported.winner != sm.winner:
            raise SchemaError("imported inner assertions certify a winner other than IRV over the Smith set")
    if sm.winner is None:
        return AssertionSet(method, None, (FullHandCount(sm.reason),))

    stage1: list[Assertion] = [
        PairwisePositive(c, o)
        for c in members
        for o in range(num_candidates)
        if o not in members
    ]
    if len(members) == 1:
        return AssertionSet(method, members[0], tuple(stage1))

    # Without an in-set tie every member of a set of two or more has an in-set
    # defeat: one without would beat every other member, against minimality.
    stage2: list[Assertion] = [PairwisePositive(sm.inner_defeats[c][0], c) for c in members]
    if not irv:
        inner = [_relabel(a, members) for a in minimax_assertions(sm.inner).assertions]
    elif imported.full_hand_count:
        return AssertionSet(method, None, (FullHandCount("imported inner set escalates"),))
    else:
        inner = list(imported.assertions)
    return AssertionSet(method, sm.winner, tuple(dict.fromkeys(stage1 + stage2 + inner)))


def _relabel(assertion: Assertion, mapping: Sequence[int]) -> Assertion:
    """Map a claim's local candidate indices through ``mapping``."""
    return type(assertion)(**_map_candidates(assertion, mapping.__getitem__))


def _candidates_of(assertion: Assertion) -> set[int]:
    plus, minus, _ = assertion.claim()
    return {c for pair in plus + minus for c in pair}


def kemeny_assertions(kr: tabulation.KemenyResult) -> AssertionSet:
    """One ranking-tally comparison per complete ranking led by a different candidate.

    The count grows as k! - (k-1)!, so k is capped at ``KEMENY_MAX_K``; beyond it a
    :class:`CapacityError` is raised rather than emitting an impractical set.
    """
    ranking = kr.best_ranking
    k = len(ranking)
    if k > tabulation.KEMENY_MAX_K:
        raise tabulation.CapacityError(
            f"kemeny audit over {k} candidates needs {k}!-({k}-1)! assertions; limit is {tabulation.KEMENY_MAX_K}"
        )
    out = [
        RankingComparison(ranking, perm)
        for perm in itertools.permutations(range(k))
        if perm[0] != kr.winner
    ]
    return AssertionSet("kemeny", kr.winner, tuple(out))


# ---------------------------------------------------------------------------
# The method table: each step looks library functions up at call time, so wrappers on module
# attributes see every call.

METHODS = {
    "irv": (lambda e, t: tabulation.irv_tabulate(e), None),
    "condorcet": (lambda e, t: tabulation.condorcet_winner(scores(t)),
                  lambda w, t, _: condorcet_assertions(w, len(t))),
    "ranked-pairs": (lambda e, t: tabulation.ranked_pairs_tabulate(scores(t)),
                     lambda rp, *_: ranked_pairs_assertions(rp)),
    "minimax": (lambda e, t: tabulation.minimax_tabulate(scores(t)), lambda mm, *_: minimax_assertions(mm)),
    "smith-minimax": (lambda e, t: tabulation.smith_set(t), lambda sm, t, _: smith_assertions(sm, len(t))),
    "smith-irv": (lambda e, t: tabulation.smith_set(t, irv=e),
                  lambda sm, t, imported: smith_assertions(sm, len(t), imported)),
    "kemeny": (lambda e, t: tabulation.kemeny_tabulate(t), lambda kr, *_: kemeny_assertions(kr)),
}


def method_assertions(method: str, election: Election, imported: AssertionSet | None = None) -> AssertionSet:
    """The set verifying ``method``'s winner, by :data:`METHODS`; irv raises ``ValueError``.

    ``imported`` is the inner set over the Smith set that smith-irv needs.
    """
    tabulate, generate = METHODS[method]
    if generate is None:
        raise ValueError(f"{method} assertion sets are not generated here")
    tallies = pairwise_tallies(election)
    return generate(tabulate(election, tallies), tallies, imported)


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
