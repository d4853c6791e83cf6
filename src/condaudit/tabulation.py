"""Winner tabulation for ranked-ballot election methods.

Implements instant-runoff voting and five Condorcet-family rules: Condorcet
winner detection, Ranked Pairs, Minimax (margins), the Smith set with an
inner Minimax or IRV winner over its members, and Kemeny-Young.  Beyond the
winner, each tabulation returns the structures an audit of the method needs
(committed pairs, inference paths, strongest defeats, in-set defeats and the
inner tabulation, best ranking).

Outcomes that the method cannot resolve without external tie-breaking are
reported with ``winner=None`` plus a reason; downstream auditing turns those
into a full-hand-count escalation rather than guessing.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import CapacityError, Election, preference_matrix, restrict_to, scores, tally_sums

# Winner-stability search over orderings of equal-score blocks gives up past
# this many tabulation runs and escalates instead.
MAX_TIE_ORDERINGS = 10_000

# Kemeny enumerates k! rankings and its audit k! - (k-1)! assertions; both give up past this k.
KEMENY_MAX_K = 8


# ---------------------------------------------------------------------------
# Instant-runoff voting


@dataclass(frozen=True)
class IrvResult:
    winner: int
    elimination_order: tuple[int, ...]
    round_tallies: tuple[dict[int, int], ...]
    tie_flag: bool


def irv_tabulate(election: Election) -> IrvResult:
    """Tabulate an election under instant-runoff rules.

    Each round credits every ballot to its highest-ranked continuing
    candidate; a candidate holding a strict majority of the ballots still in
    play wins.  Otherwise the candidate with the smallest tally is eliminated
    and their ballots move to the next continuing preference (ballots with
    none left are exhausted).  Elimination ties are broken toward the lowest
    candidate index, and the result is flagged as ambiguous.
    """
    k = election.num_candidates
    if k < 1:
        raise ValueError("IRV requires at least one candidate")

    continuing = set(range(k))
    rounds: list[dict[int, int]] = []
    eliminated: list[int] = []
    tie_flag = False

    while True:
        tallies = {c: 0 for c in continuing}
        for sig, count in election.profile.items():
            for c in sig:
                if c in continuing:
                    tallies[c] += count
                    break
        rounds.append(dict(sorted(tallies.items())))
        active = sum(tallies.values())
        leader = max(tallies, key=lambda c: (tallies[c], -c))
        if len(continuing) == 1 or 2 * tallies[leader] > active:
            return IrvResult(leader, tuple(eliminated), tuple(rounds), tie_flag)
        low = min(tallies.values())
        lowest = sorted(c for c in continuing if tallies[c] == low)
        if len(lowest) > 1:
            tie_flag = True
        loser = lowest[0]
        continuing.discard(loser)
        eliminated.append(loser)


# ---------------------------------------------------------------------------
# Condorcet winner


def _undominated(s: np.ndarray) -> tuple[int, ...]:
    """The smallest set of candidates who each beat every outsider under margins ``s``.

    Its members reach every candidate in the transitive closure of "does not lose to" (``s >= 0``).
    """
    reach = s >= 0
    for m in range(s.shape[0]):  # Warshall: admit chains through m
        reach |= reach[:, m, None] & reach[m]
    return tuple(np.flatnonzero(reach.all(axis=1)).tolist())


def condorcet_winner(score_matrix: np.ndarray) -> int | None:
    """The candidate with a positive margin over every other, the undominated set's sole member, if one exists."""
    members = _undominated(np.asarray(score_matrix))
    return members[0] if len(members) == 1 else None


# ---------------------------------------------------------------------------
# Ranked Pairs


@dataclass(frozen=True)
class CommittedPair:
    """A pairwise preference locked into the graph, with its margin."""

    winner: int
    loser: int
    score: int


@dataclass(frozen=True)
class TransitiveInference:
    """A preference ``winner > loser`` implied by a path of committed pairs.

    ``basis`` lists the committed (winner, loser) pairs along one witnessing
    path, in path order.
    """

    winner: int
    loser: int
    basis: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RankedPairsResult:
    """A Ranked Pairs outcome, with the commits and inferences of the pass over majorities in index order.

    ``winner`` is None exactly when ``reason`` is set: no candidate is dominant, an ordering of equal-score
    majorities elects another candidate, or the search would take over ``MAX_TIE_ORDERINGS`` passes.
    ``tie_flag`` is set when that pass found a winner and a block of two or more equal-score majorities came
    into play in it or in an ordering searched: on both search escalations, never when none is dominant.
    """

    winner: int | None
    commits: tuple[CommittedPair, ...]
    inferences: tuple[TransitiveInference, ...]
    tie_flag: bool
    reason: str | None = None


def _positive_pairs(s: np.ndarray) -> list[tuple[int, int, int]]:
    """Strictly positive majorities as (score, winner, loser), strongest first."""
    k = s.shape[0]
    pairs = [(int(s[i, j]), i, j) for i in range(k) for j in range(k) if i != j and s[i, j] > 0]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    return pairs


def _inference(adj: list[set[int]], winner: int, loser: int) -> TransitiveInference:
    """``winner > loser`` through the shortest path of committed edges."""
    parent: dict[int, int] = {winner: winner}
    queue = deque([winner])
    while queue:
        node = queue.popleft()
        if node == loser:
            break
        for nxt in adj[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = [loser]
    while path[-1] != winner:
        path.append(parent[path[-1]])
    path.reverse()
    return TransitiveInference(winner, loser, tuple(zip(path, path[1:])))


def _run_ranked_pairs(k: int, ordered: list[tuple[int, int, int]]):
    """One Ranked Pairs pass over pairs in the given order.

    Returns (winner, commits, inferences, pairs consumed).  Stops
    as soon as some candidate can reach every other through committed edges.
    """
    adj: list[set[int]] = [set() for _ in range(k)]
    reach = [1 << i for i in range(k)]  # descendants incl. self, as bitmasks
    full = (1 << k) - 1
    commits: list[CommittedPair] = []
    inferences: list[TransitiveInference] = []

    consumed = 0
    for score, i, j in ordered:
        if full in reach:
            break
        consumed += 1
        if reach[j] >> i & 1:
            # i > j contradicts stronger, already-committed preferences;
            # record the opposite inference with one witnessing path.  Each
            # pair comes once, so no inference repeats.
            inferences.append(_inference(adj, j, i))
            continue
        adj[i].add(j)
        commits.append(CommittedPair(i, j, score))
        for a in range(k):
            if reach[a] >> i & 1:
                reach[a] |= reach[j]

    winner = reach.index(full) if full in reach else None
    if winner is not None:
        # Preferences of the winner established only through paths are part
        # of what declared them the winner; record those inferences too.
        inferred = {(t.winner, t.loser) for t in inferences}
        inferences += [
            _inference(adj, winner, c)
            for c in range(k)
            if c != winner and c not in adj[winner] and (winner, c) not in inferred
        ]

    return winner, tuple(commits), tuple(inferences), consumed


def ranked_pairs_tabulate(score_matrix: np.ndarray) -> RankedPairsResult:
    """Tabulate a Ranked Pairs election from a pairwise margin matrix.

    Positive majorities are considered strongest first; each is committed to
    an acyclic preference graph unless the opposite preference is already
    implied, in which case the implied preference and its witnessing path are
    recorded instead.  Tabulation stops the moment one candidate reaches all
    others.

    Equal-score majorities are ordered by candidate index.
    Whenever tied majorities come into play before the winner is settled, the
    tabulation is re-run over alternative orderings of the tied groups; if
    any ordering changes the winner, or the search exceeds
    ``MAX_TIE_ORDERINGS`` runs, the result is a full-hand-count outcome
    (``winner=None``).  Ties that merely occur are reported via ``tie_flag``.
    """
    s = np.asarray(score_matrix)
    k = s.shape[0]
    if k == 0:
        raise ValueError("ranked pairs requires at least one candidate")
    pairs = _positive_pairs(s)

    winner, commits, inferences, consumed = _run_ranked_pairs(k, pairs)
    reason = "tied pairwise contests leave no candidate dominant" if winner is None else None

    # Group equal-score majorities; only groups that actually came into play
    # can influence the outcome.
    blocks = [list(group) for _, group in itertools.groupby(pairs, key=lambda p: p[0])]
    starts = [0, *itertools.accumulate(map(len, blocks))]

    def touched_blocks(n_consumed: int) -> set[int]:
        return {b for b, block in enumerate(blocks) if starts[b] < n_consumed and len(block) > 1}

    relevant = touched_blocks(consumed) if reason is None else set()
    # A Condorcet winner never has an incoming edge (every margin against it
    # is negative), so no processing order can stop any of its majorities
    # from committing: the outcome is order-independent and the search below
    # is unnecessary.
    searched = set(relevant) if relevant and condorcet_winner(s) is not None else set()
    runs = 0
    while reason is None and relevant != searched:
        searched = set(relevant)
        runs += math.prod(math.factorial(len(blocks[b])) for b in searched)
        if runs > MAX_TIE_ORDERINGS:
            reason = f"too many orderings of equal-score majorities to verify (> {MAX_TIE_ORDERINGS})"
            break
        perm_sets = [itertools.permutations(block) if b in searched else [block] for b, block in enumerate(blocks)]
        for arrangement in itertools.product(*perm_sets):
            ordering = [pair for block in arrangement for pair in block]
            alt_winner, *_, alt_consumed = _run_ranked_pairs(k, ordering)
            if alt_winner != winner:
                reason = "ordering of equal-score majorities can change the winner"
                break
            relevant |= touched_blocks(alt_consumed)
    return RankedPairsResult(winner if reason is None else None, commits, inferences, bool(relevant), reason)


# ---------------------------------------------------------------------------
# Minimax (margins)


@dataclass(frozen=True)
class MinimaxResult:
    """Minimax outcome: each candidate's worst pairwise loss and its source.

    ``worst_loss[c]`` is the largest margin by which any opponent beats c
    (negative when nobody does).  ``strongest_defeater`` maps each candidate
    with at least one strict loss to the opponent inflicting it.
    ``winner`` is None, and ``reason`` set, when candidates share the
    smallest worst loss.  ``condorcet_case`` is set when that loss is
    negative (the winner loses to no one) or k = 1; never on a tie.
    """

    winner: int | None
    worst_loss: dict[int, int]
    strongest_defeater: dict[int, int]
    condorcet_case: bool
    reason: str | None = None


def minimax_tabulate(score_matrix: np.ndarray) -> MinimaxResult:
    """Elect the candidate whose largest margin of pairwise loss is smallest.

    When a Condorcet winner exists it is the unique candidate with no loss
    and wins outright.  Ties for the smallest worst-loss cannot be resolved
    by the method and yield ``winner=None``.  Among opponents beating a
    candidate by its worst loss, the lowest-index one is its strongest
    defeater.
    """
    s = np.asarray(score_matrix)
    k = s.shape[0]
    if k == 0:
        raise ValueError("minimax requires at least one candidate")
    if k == 1:
        return MinimaxResult(0, {}, {}, condorcet_case=True)

    # Row c of ``against``: the margins s[o, c] of every opponent o != c, in order of o.
    against = s.T[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    losses = against.max(axis=1)
    slot = against.argmax(axis=1)  # the first maximum: the lowest-index defeater
    defeaters = slot + (slot >= np.arange(k))
    beaten = np.flatnonzero(losses > 0)
    worst_loss = dict(enumerate(losses.tolist()))
    strongest_defeater = dict(zip(beaten.tolist(), defeaters[beaten].tolist()))

    low = min(worst_loss.values())
    tied = np.count_nonzero(losses == low) > 1
    # Two candidates cannot both lose to no one, so a tie has low >= 0.
    return MinimaxResult(None if tied else int(losses.argmin()), worst_loss, strongest_defeater, low < 0,
                         "tie for the smallest worst pairwise loss" if tied else None)


# ---------------------------------------------------------------------------
# Smith set


@dataclass(frozen=True)
class SmithResult:
    """The Smith set, each member's largest-margin in-set defeat, and the inner winner.

    ``inner_defeats[c] = (d, margin)`` names the in-set opponent d beating c
    by the largest margin.  ``tie_flag`` is set when two members of the set
    tie pairwise, which no assertion can distinguish from a defeat.
    ``inner`` tabulates the members alone (Minimax over their margins, or
    IRV over the election restricted to them), in member-local indices:
    its candidate ``i`` is ``smith_set[i]``.
    """

    smith_set: tuple[int, ...]
    inner_defeats: dict[int, tuple[int, int]]
    tie_flag: bool
    inner: MinimaxResult | IrvResult

    @property
    def winner(self) -> int | None:
        """The inner winner as a candidate of the whole election; None when the outcome escalates."""
        if self.tie_flag or self.inner.winner is None:
            return None
        return self.smith_set[self.inner.winner]

    @property
    def reason(self) -> str | None:
        """Why the outcome escalates, or None when it has a winner."""
        if self.tie_flag:
            return "pairwise tie within the Smith set"
        if self.inner.winner is None:  # only Minimax leaves its winner open
            return f"inner minimax: {self.inner.reason}"
        return None


def smith_set(tallies: np.ndarray, *, irv: Election | None = None) -> SmithResult:
    """Compute the smallest candidate set beating everyone outside it, and its inner winner.

    The members are the candidates that reach every other through a chain of
    pairwise contests they do not lose (the transitive closure of margin
    >= 0); a Condorcet winner is the sole member.  Minimax over the members'
    margins names each member's largest in-set defeat.  The inner winner is
    IRV over ``irv`` restricted to the members when that election (the one
    ``tallies`` counts) is given, and that Minimax otherwise.
    """
    s = scores(tallies)
    if s.shape[0] == 0:
        raise ValueError("smith set requires at least one candidate")

    ordered = _undominated(s)
    tie_flag = any(
        s[c, d] == 0 for c, d in itertools.combinations(ordered, 2)
    )
    mm = minimax_tabulate(s[np.ix_(ordered, ordered)])
    inner_defeats = {ordered[c]: (ordered[d], mm.worst_loss[c]) for c, d in mm.strongest_defeater.items()}
    inner = mm if irv is None else irv_tabulate(restrict_to(irv, ordered))
    return SmithResult(ordered, inner_defeats, tie_flag, inner)


# ---------------------------------------------------------------------------
# Kemeny-Young


@dataclass(frozen=True)
class KemenyResult:
    best_ranking: tuple[int, ...]
    best_score: int
    winner: int
    tie_flag: bool


def kemeny_tabulate(tallies: np.ndarray) -> KemenyResult:
    """Find the complete ranking maximizing the sum of agreeing pairwise tallies.

    Enumerates all k! rankings, so k is capped at ``KEMENY_MAX_K``; larger
    fields raise :class:`CapacityError` since the factorial search (and the
    audit built on it) is impractical.  Of equal-scoring best rankings the
    lexicographically first is kept, and ``tie_flag`` is set when the best
    score occurs more than once.

    A ranking's score is the sum of the tallies its row of a
    :func:`~condaudit.model.preference_matrix` prefers: its k(k-1)/2 ordered
    pairs.  It can pass int64, so it is
    :func:`~condaudit.model.tally_sums`'s exact sum.
    """
    t = np.asarray(tallies)
    k = t.shape[0]
    if k == 0:
        raise ValueError("kemeny requires at least one candidate")
    if k > KEMENY_MAX_K:
        raise CapacityError(f"kemeny enumeration over {k} candidates needs {k}! rankings; limit is {KEMENY_MAX_K}")
    rankings = list(itertools.permutations(range(k)))
    scores = tally_sums(preference_matrix(rankings, k), t)
    best_score = max(scores)
    best_ranking = rankings[scores.index(best_score)]
    return KemenyResult(best_ranking, best_score, best_ranking[0], scores.count(best_score) > 1)
