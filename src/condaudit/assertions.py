"""Audit assertions and their assorters.

An assertion is a claimed inequality over ballot tallies; jointly, a
method's assertion set implies its reported winner won.  Every assertion is
scored per ballot by an *assorter*: a value in [0, 1] whose population mean
exceeds 1/2 exactly when the claimed inequality holds.

Each claim is integer weights ``W`` over ordered candidate pairs
(:func:`claim_weights`, which stacks a whole set's claims from one
:func:`~condaudit.model.preference_matrix` of their rankings, where the
preference relation is stated): a ballot whose row of such a matrix is ``P``
contributes ``g = sum_ij W[i, j] * P[i, j]`` and scores ``(g - a) / (-2a)``
with ``a = -h``, for any integer normaliser ``h`` at least the largest
``|g|``, ``d = sum_{i<j} |W[i, j]|``; :func:`claim_weights` gives each the
``h`` of an audit's style.  A comparison audit takes ``h = d``: 1 for a
pairwise claim, 2 for a score comparison and, for a ranking comparison, the
number of pairs its two rankings order differently.  A polling audit takes
the ordered pairs each side of the claim states: ``d`` but ``n(n-1)/2``
for a ranking comparison of n candidates.  A claim's reported mean is exact:
with its integer margin ``M = sum_ij W[i, j] * tallies[i, j]`` over ``N``
ballots it is ``(M + hN) / 2hN`` (:func:`claim_means`), above 1/2 exactly
when ``M > 0``.  ``M`` can pass int64, so it is summed in two int64 limbs,
each tally's ``hi`` and ``lo`` with ``tally = hi * 2**32 + lo``, each sum
exact, and the two sums are joined in Python ints.  A set scores as one
matrix: :func:`claim_values` gives every claim's assorter of every signature
in one float64 product, exact since ``g`` is a small integer.

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
and its ``claim()``: the rankings weighted +1 and the rankings weighted -1.
``W`` is the +1 rankings' preference rows less the -1 rankings': a
ranking's row prefers each of its ordered pairs, and also each candidate it
ranks to each it does not.  Those last entries cancel because the +1 and
the -1 rankings of every claim rank the same candidate sets, counted with
multiplicity, so each side states as many pairs: a polling audit's ``h``.
Weights, normalisers, relabelling, text, export and import read these
declarations and nothing else about a shape.

An outcome no ballot sample can verify is not an assertion: its
:class:`AssertionSet` holds none and says in ``escalation`` why it escalates
to a full hand count.  JSON writes it as one ``full_hand_count`` entry.

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

import functools
import itertools
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence, Union, get_args

import numpy as np

from . import tabulation
from .ballots import ParseError, decode_json, resolve_names, roster_index
from .model import Election, pairwise_tallies, preference_matrix, scores


# Each claim() gives its +1 rankings and its -1 rankings.  Both rank the same candidate sets, counted with multiplicity,
# so W's entries for a ranked over an unranked candidate cancel and each side states as many pairs: a polling audit's h.
@dataclass(frozen=True)
class PairwisePositive:
    winner: int
    loser: int
    tag: ClassVar[str] = "pairwise_positive"
    text: ClassVar[str] = "s({winner},{loser}) > 0"

    def __post_init__(self):
        if self.winner == self.loser:
            raise ValueError("pairwise assertion needs two distinct candidates")

    def claim(self) -> tuple[list, list]:
        return [(self.winner, self.loser)], [(self.loser, self.winner)]


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

    def claim(self) -> tuple[list, list]:
        (i, j), (k, l) = self.hi, self.lo
        return [(i, j), (l, k)], [(k, l), (j, i)]


@dataclass(frozen=True)
class RankingComparison:
    preferred: tuple[int, ...]
    other: tuple[int, ...]
    tag: ClassVar[str] = "ranking_comparison"
    text: ClassVar[str] = "T([{preferred}]) > T([{other}])"

    def __post_init__(self):
        object.__setattr__(self, "preferred", tuple(self.preferred))
        object.__setattr__(self, "other", tuple(self.other))
        preferred, other = set(self.preferred), set(self.other)
        if len(preferred) != len(self.preferred) or len(other) != len(self.other):
            raise ValueError("rankings may not repeat candidates")
        if preferred != other:
            raise ValueError("rankings must cover the same candidates")
        if not self.preferred or self.preferred[0] == self.other[0]:
            raise ValueError("compared rankings must start with different candidates")

    def claim(self) -> tuple[list, list]:
        return [self.preferred], [self.other]


Assertion = Union[PairwisePositive, ScoreComparison, RankingComparison]
# The claim classes of the union, read once.
_CLAIM_CLASSES = get_args(Assertion)


@dataclass(frozen=True)
class AssertionSet:
    """A method's assertions for one reported outcome, or its escalation to a full hand count.

    ``escalation`` is None for a set that can be audited, and otherwise the
    reason no sample can verify the outcome (possibly empty).  An escalated
    set holds no assertions and names no winner.
    """

    method: str
    winner: int | None
    assertions: tuple[Assertion, ...] = ()
    escalation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "assertions", tuple(self.assertions))
        if self.escalation is not None and self.assertions:
            raise ValueError("an escalated set holds no assertions")
        if self.escalation is not None and self.winner is not None:
            raise ValueError("an escalated set names no winner")

    @property
    def full_hand_count(self) -> bool:
        return self.escalation is not None


# ---------------------------------------------------------------------------
# Assorters


def claim_weights(assertions: Sequence[Assertion], num_candidates: int, style: str) -> tuple[np.ndarray, np.ndarray]:
    """Each claim as integer weights ``W`` over ordered pairs, shape (A, k, k), and its normaliser ``h``, shape (A,).

    A ballot's signed contribution to claim ``a`` is ``g = sum_ij W[a, i, j] *
    P[i, j]`` over its row ``P`` of a :func:`preference_matrix`, and its
    assorter is ``(g + h[a]) / 2h[a]``.  ``W`` sums the claim's signed rows
    of one :func:`preference_matrix` of all rankings.

    ``h`` is the normaliser of an audit of ``style``.  Comparison takes ``d =
    sum_{i<j} |W[i, j]|``, the largest ``|g|`` any ballot gives the claim, as
    ``W`` is antisymmetric; a larger normaliser only shrinks the reported
    margin every correct comparison ballot's score rides on.  Polling takes
    the ordered pairs each side of the claim states: half the sum over its
    rankings of the ``m(m-1)/2`` pairs a ranking of ``m`` states, never below
    ``d``.  Either gives values in [0, 1] and a mean above 1/2 exactly when
    the margin is above 0.
    """
    rankings, sides, starts = [], [], []
    for assertion in assertions:
        if not isinstance(assertion, _CLAIM_CLASSES):
            raise TypeError(f"not an assertion: {assertion!r}")
        plus, minus = assertion.claim()
        starts.append(len(rankings))
        rankings += plus + minus
        sides += (len(plus), len(minus))
    # Each claim's +1 rankings, then its -1 rankings: a side's sign is repeated over its rankings.
    signs = np.array([1, -1] * len(starts), dtype=np.int8).repeat(sides)
    signed = preference_matrix(rankings, num_candidates) * signs[:, None, None]
    weights = np.add.reduceat(signed, starts, axis=0, dtype=np.int64)
    if style == "comparison":
        return weights, np.abs(weights).sum(axis=(1, 2)) // 2
    sizes = np.array([len(ranking) for ranking in rankings], dtype=np.int64)
    return weights, np.add.reduceat(sizes * (sizes - 1), starts) // 4


def claim_values(weights: np.ndarray, h: np.ndarray, prefs: np.ndarray) -> np.ndarray:
    """Each claim's assorter ``(g + h) / 2h`` of every signature in a :func:`preference_matrix`: shape (A, S).

    Each value is in [0, 1] for a normaliser ``h`` of at least the comparison ``d`` of :func:`claim_weights`.
    ``g`` is a float64 product: an integer of at most k(k-1) in size, exact in any order of summation.
    """
    k2 = weights.shape[1] * weights.shape[2]
    g = weights.reshape(len(weights), k2).astype(np.float64) @ prefs.reshape(len(prefs), k2).T.astype(np.float64)
    g += h[:, None]  # in place: the IEEE operations of (g + h) / 2h, without two (A, S) temporaries
    g /= 2 * h[:, None]
    return g


def claim_means(weights: np.ndarray, h: np.ndarray, tallies: np.ndarray, total: int) -> np.ndarray:
    """Each claim's population mean under normaliser ``h``, exactly, from the pairwise tallies of ``total`` ballots.

    A claim's integer margin ``M = sum(W * tallies)`` gives the mean
    ``(M + h*N) / 2hN``, correctly rounded; it exceeds 1/2 exactly when
    ``M > 0``.  An empty election has mean 1/2: no evidence either way.

    ``M`` can pass int64: it sums up to k(k-1) tallies of up to N each.  It
    is summed in two int64 limbs and the two sums joined in Python ints.
    Each tally is below 2**63, since :func:`~condaudit.model.ballot_counts`
    raises :class:`~condaudit.model.CapacityError` first, so it is ``hi *
    2**32 + lo`` with both limbs below 2**32.  A claim's entries of ``W``
    are at most 2 in size, ``sum |W| < 2k**2``, so each limb's weighted sum
    is below ``2k**2 * 2**32``: exact in int64 for fewer than 2**15
    candidates.
    """
    if total == 0:
        return np.full(len(h), 0.5)
    limbs = np.array(np.divmod(tallies.reshape(-1), np.int64(1 << 32)))  # each tally's hi, then its lo
    high, low = (limbs @ weights.reshape(len(weights), tallies.size).T).tolist()
    margins = [(hi << 32) + lo for hi, lo in zip(high, low)]
    return np.array([(m + norm * total) / (2 * norm * total) for m, norm in zip(margins, h.tolist())])


# ---------------------------------------------------------------------------
# Per-method assertion generation


def condorcet_assertions(winner: int | None, num_candidates: int) -> AssertionSet:
    """The k-1 pairwise claims that the winner beats every other candidate; no winner escalates."""
    if winner is None:
        return AssertionSet("condorcet", None, escalation="no Condorcet winner exists")
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
        return AssertionSet("ranked-pairs", None, escalation=rp.reason)
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
        return AssertionSet("minimax", None, escalation=mm.reason)
    w = mm.winner
    if mm.condorcet_case:
        return AssertionSet("minimax", w, condorcet_assertions(w, k).assertions)
    d_w = mm.strongest_defeater.get(w)
    if d_w is None:
        # The winner's worst loss is a tie, so its strongest defeat cannot be
        # named and the comparisons below cannot be formed.  (Every other
        # candidate has a strict loss: the winner's worst loss is the unique lowest.)
        return AssertionSet("minimax", None, escalation="a candidate has no strict pairwise loss to compare")
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
    ``sm.winner``, is a :class:`~condaudit.ballots.ParseError`.
    """
    irv = isinstance(sm.inner, tabulation.IrvResult)
    method = "smith-irv" if irv else "smith-minimax"
    members = sm.smith_set
    if irv and imported is None:
        raise ValueError("smith-irv needs an imported inner assertion set over the Smith set")
    if irv and not imported.full_hand_count:
        mentioned = {c for a in imported.assertions for c in _candidates_of(a)}
        if imported.winner is None or imported.winner not in members or not mentioned <= set(members):
            raise ParseError("imported inner assertions must be over Smith-set members only")
        if sm.winner is not None and imported.winner != sm.winner:
            raise ParseError("imported inner assertions certify a winner other than IRV over the Smith set")
    if sm.winner is None:
        return AssertionSet(method, None, escalation=sm.reason)

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
    # The inner set numbers candidates as the election does (imported) or as the members do (Minimax).
    inner, labels = (imported, range(num_candidates)) if irv else (minimax_assertions(sm.inner), members)
    if inner.full_hand_count:
        reason = "imported inner set escalates" if irv else f"inner minimax: {inner.escalation}"
        return AssertionSet(method, None, escalation=reason)
    claims = [_relabel(a, labels) for a in inner.assertions]
    return AssertionSet(method, sm.winner, tuple(dict.fromkeys(stage1 + stage2 + claims)))


def _relabel(assertion: Assertion, mapping: Sequence[int]) -> Assertion:
    """Map a claim's local candidate indices through ``mapping``."""
    return type(assertion)(**_map_candidates(assertion, mapping.__getitem__))


def _candidates_of(assertion: Assertion) -> set[int]:
    plus, minus = assertion.claim()
    return {c for ranking in plus + minus for c in ranking}


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


@functools.cache
def _layout(cls) -> tuple[tuple[str, bool], ...]:
    """Each field of a claim class: its name, and whether it holds one candidate (an ``int`` field) or several."""
    return tuple((f.name, f.type == "int") for f in fields(cls))  # annotations are strings here


def _map_candidates(claim: Assertion, fn, several=list) -> dict:
    """Each field of a claim with ``fn`` applied to its one candidate, or ``several`` over its candidates."""
    return {name: fn(getattr(claim, name)) if one else several(map(fn, getattr(claim, name)))
            for name, one in _layout(type(claim))}


def describe(assertion: Assertion, names: Sequence[str]) -> str:
    """Human-readable one-liner for an assertion, using candidate names."""
    return assertion.text.format(**_map_candidates(assertion, names.__getitem__, ",".join))


def export_assertions(aset: AssertionSet, election: Election) -> dict:
    """Assertion-set document with candidate indices resolved to names."""
    names = election.candidates
    if aset.full_hand_count:
        entries = [{"type": _ESCALATION_TAG, "reason": aset.escalation}]
    else:
        entries = [{"type": a.tag, **_map_candidates(a, names.__getitem__)} for a in aset.assertions]
    return {
        "method": aset.method,
        "winner": None if aset.winner is None else names[aset.winner],
        "assertions": entries,
        "metadata": {"election_sha256": election.digest()},
    }


_BY_TAG = {cls.tag: cls for cls in _CLAIM_CLASSES}

# The type tag of the one entry that writes an escalated set, with its reason.
_ESCALATION_TAG = "full_hand_count"


def import_assertions(doc: dict | str, election: Election) -> AssertionSet:
    """Load an assertion-set document, resolving names against the election.

    A ``full_hand_count`` entry, which must be the only entry of a document
    with a null winner, gives an escalated set with its ``reason``; any other
    document names its winner.  Every fault of the document is a
    :class:`~condaudit.ballots.ParseError`, raised where it is found: JSON
    that does not parse (by :func:`~condaudit.ballots.decode_json`, naming
    its line), an unknown type tag, a candidate field that
    :func:`~condaudit.ballots.resolve_names` rejects, a claim its class
    refuses, a missing winner, and an election digest that does not match
    this election.
    """
    if isinstance(doc, str):
        doc = decode_json(doc)
    if not isinstance(doc, dict):
        raise ParseError("assertion document must be an object")
    index = roster_index(election.candidates)

    def resolve(value, key: str, one: bool):
        """One candidate (``one``, an ``int`` field) or a tuple of them."""
        sig = resolve_names([value] if one else value, index, where=repr(key))
        return sig[0] if one else sig

    method = doc.get("method")
    if not isinstance(method, str):
        raise ParseError("'method' must be a string")
    raw_winner = doc.get("winner")
    winner = None if raw_winner is None else resolve(raw_winner, "winner", True)

    assertions: list[Assertion] = []
    escalations: list[str] = []
    entries = doc.get("assertions")
    if not isinstance(entries, list):
        raise ParseError("'assertions' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError("each assertion must be an object")
        tag = entry.get("type")
        if tag == _ESCALATION_TAG:
            reason = entry.get("reason", "")
            if not isinstance(reason, str):
                raise ParseError("a full-hand-count 'reason' must be a string")
            escalations.append(reason)
            continue
        cls = _BY_TAG.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise ParseError(f"unknown assertion type tag {tag!r}")
        try:
            candidates = {name: resolve(entry[name], name, one) for name, one in _layout(cls)}
        except KeyError as exc:
            raise ParseError(f"malformed {tag} entry: {exc}") from None
        if cls is RankingComparison and set(candidates["preferred"]) != set(range(election.num_candidates)):
            raise ParseError("ranking comparisons must rank every candidate")
        try:
            assertions.append(cls(**candidates))
        except ValueError as exc:  # the claim's own check
            raise ParseError(str(exc)) from None

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("'metadata' must be an object")
    declared = metadata.get("election_sha256")
    if declared is not None and declared != election.digest():
        raise ParseError("assertion set was generated for a different election (digest mismatch)")
    if escalations and len(entries) != 1:
        raise ParseError("a full-hand-count sentinel must be the set's only member")
    if escalations and winner is not None:
        raise ParseError("a full-hand-count set names no winner")
    if not escalations and winner is None:
        raise ParseError("a set that does not escalate names its winner")
    return AssertionSet(method, winner, tuple(assertions), escalations[0] if escalations else None)
