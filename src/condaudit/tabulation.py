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

from .model import Election, restrict_to

# Winner-stability search over orderings of equal-score blocks gives up past
# this many tabulation runs and escalates instead.
MAX_TIE_ORDERINGS = 10_000

# Kemeny enumerates k! rankings and its audit k! - (k-1)! assertions; both give up past this k.
KEMENY_MAX_K = 8


class CapacityError(ValueError):
    """Raised when an enumeration-based method would blow up combinatorially."""


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


def condorcet_winner(score_matrix: np.ndarray) -> int | None:
    """The candidate with a positive margin over every other, if one exists."""
    s = np.asarray(score_matrix)
    k = s.shape[0]
    for w in range(k):
        if all(s[w, c] > 0 for c in range(k) if c != w):
            return w
    return None


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


def _bfs_path(adj: list[set[int]], start: int, goal: int) -> list[int]:
    """Shortest edge path start -> goal over committed edges."""
    parent: dict[int, int] = {start: start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt in adj[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


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
    inferred: set[tuple[int, int]] = set()

    if k == 1:
        return 0, (), (), 0

    consumed = 0
    winner: int | None = None
    for score, i, j in ordered:
        consumed += 1
        if reach[j] >> i & 1:
            # i > j contradicts stronger, already-committed preferences;
            # record the opposite inference with one witnessing path.
            if (j, i) not in inferred:
                path = _bfs_path(adj, j, i)
                basis = tuple(zip(path, path[1:]))
                inferences.append(TransitiveInference(j, i, basis))
                inferred.add((j, i))
            continue
        adj[i].add(j)
        commits.append(CommittedPair(i, j, score))
        gained = reach[j]
        for a in range(k):
            if reach[a] >> i & 1:
                reach[a] |= gained
        for w in range(k):
            if reach[w] == full:
                winner = w
                break
        if winner is not None:
            break

    if winner is not None:
        # Preferences of the winner established only through paths are part
        # of what declared them the winner; record those inferences too.
        for c in range(k):
            if c != winner and c not in adj[winner] and (winner, c) not in inferred:
                path = _bfs_path(adj, winner, c)
                basis = tuple(zip(path, path[1:]))
                inferences.append(TransitiveInference(winner, c, basis))
                inferred.add((winner, c))

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
    if winner is None:
        return RankedPairsResult(
            None, commits, inferences, tie_flag=False,
            reason="tied pairwise contests leave no candidate dominant",
        )

    # Group equal-score majorities; only groups that actually came into play
    # can influence the outcome.
    blocks: list[list[tuple[int, int, int]]] = []
    for _, group in itertools.groupby(pairs, key=lambda p: p[0]):
        blocks.append(list(group))
    block_spans: list[tuple[int, int]] = []
    start = 0
    for block in blocks:
        block_spans.append((start, start + len(block)))
        start += len(block)

    def touched_blocks(n_consumed: int) -> set[int]:
        return {
            b for b, (lo, hi) in enumerate(block_spans)
            if lo < n_consumed and len(blocks[b]) > 1
        }

    relevant = touched_blocks(consumed)
    if not relevant:
        return RankedPairsResult(winner, commits, inferences, tie_flag=False)

    # A Condorcet winner never has an incoming edge (every margin against it
    # is negative), so no processing order can stop any of its majorities
    # from committing: the outcome is order-independent and the search below
    # is unnecessary.
    if condorcet_winner(s) is not None:
        return RankedPairsResult(winner, commits, inferences, tie_flag=True)

    escalate = RankedPairsResult(
        None, commits, inferences, tie_flag=True,
        reason="ordering of equal-score majorities can change the winner",
    )
    runs = 0
    while True:
        total = math.prod(math.factorial(len(blocks[b])) for b in sorted(relevant))
        if runs + total > MAX_TIE_ORDERINGS:
            return RankedPairsResult(
                None, commits, inferences, tie_flag=True,
                reason=f"too many orderings of equal-score majorities to verify (> {MAX_TIE_ORDERINGS})",
            )
        grew = False
        perm_sets = [
            itertools.permutations(blocks[b]) if b in relevant else [tuple(blocks[b])]
            for b in range(len(blocks))
        ]
        for arrangement in itertools.product(*perm_sets):
            runs += 1
            ordering = [pair for block in arrangement for pair in block]
            alt_winner, *_, alt_consumed = _run_ranked_pairs(k, ordering)
            if alt_winner != winner:
                return escalate
            fresh = touched_blocks(alt_consumed) - relevant
            if fresh:
                relevant |= fresh
                grew = True
        if not grew:
            return RankedPairsResult(winner, commits, inferences, tie_flag=True)


# ---------------------------------------------------------------------------
# Minimax (margins)


@dataclass(frozen=True)
class MinimaxResult:
    """Minimax outcome: each candidate's worst pairwise loss and its source.

    ``worst_loss[c]`` is the largest margin by which any opponent beats c
    (negative when nobody does).  ``strongest_defeater`` maps each candidate
    with at least one strict loss to the opponent inflicting it.
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
    by the method and yield ``winner=None``.
    """
    s = np.asarray(score_matrix)
    k = s.shape[0]
    if k == 0:
        raise ValueError("minimax requires at least one candidate")
    if k == 1:
        return MinimaxResult(0, {}, {}, condorcet_case=True)

    worst_loss: dict[int, int] = {}
    strongest_defeater: dict[int, int] = {}
    for c in range(k):
        against = [(int(s[o, c]), o) for o in range(k) if o != c]
        loss, defeater = max(against, key=lambda od: (od[0], -od[1]))
        worst_loss[c] = loss
        if loss > 0:
            strongest_defeater[c] = defeater

    low = min(worst_loss.values())
    lowest = [c for c in range(k) if worst_loss[c] == low]
    if len(lowest) > 1:
        return MinimaxResult(
            None, worst_loss, strongest_defeater, condorcet_case=False,
            reason="tie for the smallest worst pairwise loss",
        )
    winner = lowest[0]
    return MinimaxResult(winner, worst_loss, strongest_defeater, condorcet_case=low < 0)


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

    Starts from the candidates with the most pairwise wins and grows the set
    with any outsider who beats or ties a member, to a fixpoint.  The inner
    winner is IRV over ``irv`` restricted to the members when that election
    (the one ``tallies`` counts) is given, and Minimax over the members'
    margins otherwise.
    """
    t = np.asarray(tallies)
    k = t.shape[0]
    if k == 0:
        raise ValueError("smith set requires at least one candidate")
    s = t - t.T

    wins = [sum(1 for j in range(k) if j != i and s[i, j] > 0) for i in range(k)]
    best = max(wins)
    members = {i for i in range(k) if wins[i] == best}
    changed = True
    while changed:
        changed = False
        for outsider in range(k):
            if outsider in members:
                continue
            if any(s[inner, outsider] <= 0 for inner in members):
                members.add(outsider)
                changed = True

    ordered = tuple(sorted(members))
    tie_flag = any(
        s[c, d] == 0 for c, d in itertools.combinations(ordered, 2)
    )
    inner_defeats: dict[int, tuple[int, int]] = {}
    if len(ordered) > 1:
        for c in ordered:
            defeats = [(int(s[d, c]), d) for d in ordered if d != c and s[d, c] > 0]
            if defeats:
                margin, defender = max(defeats, key=lambda md: (md[0], -md[1]))
                inner_defeats[c] = (defender, margin)
    inner = minimax_tabulate(s[np.ix_(ordered, ordered)]) if irv is None else irv_tabulate(restrict_to(irv, ordered))
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
    audit built on it) is impractical.  Equal-scoring rankings are resolved
    lexicographically and flagged.
    """
    t = np.asarray(tallies)
    k = t.shape[0]
    if k == 0:
        raise ValueError("kemeny requires at least one candidate")
    if k > KEMENY_MAX_K:
        raise CapacityError(
            f"kemeny enumeration over {k} candidates needs {k}! rankings; limit is {KEMENY_MAX_K}"
        )
    rows = t.tolist()
    best_ranking: tuple[int, ...] | None = None
    best_score = 0
    tie_flag = False
    for perm in itertools.permutations(range(k)):
        score = 0
        for p in range(k):
            row = rows[perm[p]]
            for q in range(p + 1, k):
                score += row[perm[q]]
        if best_ranking is None or score > best_score:
            best_ranking, best_score, tie_flag = perm, score, False
        elif score == best_score:
            tie_flag = True  # lexicographically earliest ranking kept
    assert best_ranking is not None
    return KemenyResult(best_ranking, int(best_score), best_ranking[0], tie_flag)
