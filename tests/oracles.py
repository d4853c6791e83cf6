"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written from the definitions, not from the
library's implementations: subset enumeration for the Smith set, full
permutation enumeration for Kemeny, integer signed-contribution sums for
assorter means, claim weights added up pair by pair, a direct-product
version of the sequential test, each audit style's normaliser, a per-cell
scorer of (reported, audited) cells, a per-ballot simulation of audit sample
sizes, Ranked Pairs and Minimax tabulations that decide each outcome in its
own exit, claim means and Kemeny scores summed in Python ints over object
arrays, and a line-by-line reader of sample files from the README's rules.  ``json_values`` draws arbitrary JSON
values to put in the fields of an input document.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from condaudit import (
    AuditConfig,
    Election,
    KemenyResult,
    MinimaxResult,
    PairwisePositive,
    RankedPairsResult,
    RankingComparison,
    ScoreComparison,
    condorcet_winner,
    kk_pvalue_trace,
)
from condaudit.tabulation import MAX_TIE_ORDERINGS, _positive_pairs, _run_ranked_pairs


def brute_force_smith(score_matrix: np.ndarray) -> frozenset[int]:
    """Smallest candidate set all of whose members strictly beat all outsiders."""
    s = np.asarray(score_matrix)
    k = s.shape[0]
    for size in range(1, k + 1):
        found = [
            set(sub)
            for sub in itertools.combinations(range(k), size)
            if all(s[c, o] > 0 for c in sub for o in range(k) if o not in sub)
        ]
        if found:
            assert len(found) == 1, "dominant sets of one size should be unique"
            return frozenset(found[0])
    return frozenset(range(k))


def reference_ranked_pairs(score_matrix: np.ndarray) -> RankedPairsResult:
    """Ranked Pairs with each outcome built at its own exit and its own literal ``tie_flag``.

    The reference that ``ranked_pairs_tabulate`` must match field for field:
    no dominant candidate (no tie flag), no tied block in play (no tie
    flag), a Condorcet winner, too many orderings to search, an ordering
    that elects another candidate, and a winner every ordering keeps.
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

    blocks = [list(group) for _, group in itertools.groupby(pairs, key=lambda p: p[0])]
    starts = [0, *itertools.accumulate(map(len, blocks))]

    def touched_blocks(n_consumed: int) -> set[int]:
        return {b for b, block in enumerate(blocks) if starts[b] < n_consumed and len(block) > 1}

    relevant = touched_blocks(consumed)
    if not relevant:
        return RankedPairsResult(winner, commits, inferences, tie_flag=False)
    if condorcet_winner(s) is not None:
        return RankedPairsResult(winner, commits, inferences, tie_flag=True)

    runs = 0
    searched: set[int] = set()
    while relevant != searched:
        searched = set(relevant)
        runs += math.prod(math.factorial(len(blocks[b])) for b in searched)
        if runs > MAX_TIE_ORDERINGS:
            return RankedPairsResult(
                None, commits, inferences, tie_flag=True,
                reason=f"too many orderings of equal-score majorities to verify (> {MAX_TIE_ORDERINGS})",
            )
        perm_sets = [itertools.permutations(block) if b in searched else [block] for b, block in enumerate(blocks)]
        for arrangement in itertools.product(*perm_sets):
            ordering = [pair for block in arrangement for pair in block]
            alt_winner, *_, alt_consumed = _run_ranked_pairs(k, ordering)
            if alt_winner != winner:
                return RankedPairsResult(
                    None, commits, inferences, tie_flag=True,
                    reason="ordering of equal-score majorities can change the winner",
                )
            relevant |= touched_blocks(alt_consumed)
    return RankedPairsResult(winner, commits, inferences, tie_flag=True)


def reference_minimax(score_matrix: np.ndarray) -> MinimaxResult:
    """Minimax with a tie and a winner each built at its own exit, the tie's ``condorcet_case`` a literal False.

    The reference that ``minimax_tabulate`` must match field for field.
    """
    s = np.asarray(score_matrix)
    k = s.shape[0]
    if k == 0:
        raise ValueError("minimax requires at least one candidate")
    if k == 1:
        return MinimaxResult(0, {}, {}, condorcet_case=True)

    against = s.T[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    losses = against.max(axis=1)
    slot = against.argmax(axis=1)
    defeaters = slot + (slot >= np.arange(k))
    beaten = np.flatnonzero(losses > 0)
    worst_loss = dict(enumerate(losses.tolist()))
    strongest_defeater = dict(zip(beaten.tolist(), defeaters[beaten].tolist()))

    low = min(worst_loss.values())
    if np.count_nonzero(losses == low) > 1:
        return MinimaxResult(None, worst_loss, strongest_defeater, condorcet_case=False,
                             reason="tie for the smallest worst pairwise loss")
    return MinimaxResult(int(losses.argmin()), worst_loss, strongest_defeater, condorcet_case=low < 0)


def brute_force_kemeny(tallies: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Highest-scoring complete ranking, lexicographically earliest on ties."""
    t = np.asarray(tallies)
    k = t.shape[0]
    best_ranking = None
    best_score = None
    for perm in itertools.permutations(range(k)):
        score = sum(
            int(t[perm[p], perm[q]]) for p in range(k) for q in range(p + 1, k)
        )
        if best_score is None or score > best_score:
            best_ranking, best_score = perm, score
    return best_ranking, best_score


def object_kemeny(tallies: np.ndarray) -> KemenyResult:
    """Kemeny-Young with every ranking's score summed in Python ints over an object array.

    The reference that ``kemeny_tabulate``'s int64 limbs must match field for
    field: the same enumeration order and the same tie-break (``max``, the
    first ``index``, ``count``).
    """
    t = np.asarray(tallies)
    k = t.shape[0]
    rankings = list(itertools.permutations(range(k)))
    above, below = np.triu_indices(k, 1)
    order = np.array(rankings, dtype=np.intp)
    totals = t.astype(object)[order[:, above], order[:, below]].sum(axis=1).tolist()
    best_score = max(totals)
    best_ranking = rankings[totals.index(best_score)]
    return KemenyResult(best_ranking, best_score, best_ranking[0], totals.count(best_score) > 1)


def object_claim_means(weights: np.ndarray, h: np.ndarray, tallies: np.ndarray, total: int) -> np.ndarray:
    """Each claim's mean ``(M + hN) / 2hN`` with its margin ``M`` summed in Python ints over an object array.

    The reference that ``claim_means``'s int64 limbs must match bit for bit.
    """
    if total == 0:
        return np.full(len(h), 0.5)
    margins = (weights * tallies.astype(object)).sum(axis=(1, 2)).tolist()
    return np.array([(m + norm * total) / (2 * norm * total) for m, norm in zip(margins, h.tolist())])


def ranking_tally(ranking, tallies: np.ndarray) -> int:
    t = np.asarray(tallies)
    k = len(ranking)
    return sum(int(t[ranking[p], ranking[q]]) for p in range(k) for q in range(p + 1, k))


def _ballot_prefers(ballot, i, j) -> bool:
    if i in ballot:
        return j not in ballot or ballot.index(i) < ballot.index(j)
    return False


def signed_contribution(assertion, ballot) -> int:
    """Integer signed indicator sum g for one ballot, from the definitions."""
    if isinstance(assertion, PairwisePositive):
        w, l = assertion.winner, assertion.loser
        return int(_ballot_prefers(ballot, w, l)) - int(_ballot_prefers(ballot, l, w))
    if isinstance(assertion, ScoreComparison):
        (i, j), (c, w) = assertion.hi, assertion.lo
        return (
            int(_ballot_prefers(ballot, i, j))
            + int(_ballot_prefers(ballot, w, c))
            - int(_ballot_prefers(ballot, c, w))
            - int(_ballot_prefers(ballot, j, i))
        )
    if isinstance(assertion, RankingComparison):
        total = 0
        for ranking, sign in ((assertion.preferred, 1), (assertion.other, -1)):
            for p, x in enumerate(ranking):
                for y in ranking[p + 1:]:
                    if _ballot_prefers(ballot, x, y):
                        total += sign
        return total
    raise TypeError(f"no contribution for {assertion!r}")


def pair_weights(assertions, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each claim's weights ``W`` (A, k, k) and ``h`` (A,), added up one ordered pair at a time from the definitions."""
    weights = np.zeros((len(assertions), k, k), dtype=np.int64)
    hs = []
    for row, assertion in enumerate(assertions):
        if isinstance(assertion, PairwisePositive):
            w, l = assertion.winner, assertion.loser
            plus, minus, h = [(w, l)], [(l, w)], 1
        elif isinstance(assertion, ScoreComparison):
            (i, j), (c, w) = assertion.hi, assertion.lo
            plus, minus, h = [(i, j), (w, c)], [(c, w), (j, i)], 2
        else:
            plus = list(itertools.combinations(assertion.preferred, 2))
            minus, h = list(itertools.combinations(assertion.other, 2)), len(plus)
        for pairs, sign in ((plus, 1), (minus, -1)):
            for i, j in pairs:
                weights[row, i, j] += sign
        hs.append(h)
    return weights, np.array(hs, dtype=np.int64)


def comparison_normalizer(assertion) -> int:
    """The largest |g| one ballot can give the assertion: 1, 2, or the pairs its two rankings order differently."""
    if isinstance(assertion, PairwisePositive):
        return 1
    if isinstance(assertion, ScoreComparison):
        return 2
    if isinstance(assertion, RankingComparison):
        place = {c: p for p, c in enumerate(assertion.other)}
        return sum(place[x] > place[y] for x, y in itertools.combinations(assertion.preferred, 2))
    raise TypeError(f"no normalizer for {assertion!r}")


def normalizer(assertion, style: str) -> int:
    """-2a for the assertion's proto-assorter in an audit of ``style``: the mean shift denominator, twice h."""
    if style == "comparison":
        return 2 * comparison_normalizer(assertion)
    if isinstance(assertion, PairwisePositive):
        return 2
    if isinstance(assertion, ScoreComparison):
        return 4
    if isinstance(assertion, RankingComparison):
        k = len(assertion.preferred)
        return k * (k - 1)
    raise TypeError(f"no normalizer for {assertion!r}")


def weighted_g_sum(assertion, election: Election) -> int:
    return sum(
        count * signed_contribution(assertion, sig)
        for sig, count in election.profile.items()
    )


def claim_margin(assertion, tallies: np.ndarray) -> int:
    """Exact tally margin of the claimed inequality (positive iff it holds)."""
    t = np.asarray(tallies)
    if isinstance(assertion, PairwisePositive):
        return int(t[assertion.winner, assertion.loser] - t[assertion.loser, assertion.winner])
    if isinstance(assertion, ScoreComparison):
        (i, j), (c, w) = assertion.hi, assertion.lo
        s = t - t.T
        return int(s[i, j] - s[c, w])
    if isinstance(assertion, RankingComparison):
        return ranking_tally(assertion.preferred, t) - ranking_tally(assertion.other, t)
    raise TypeError(f"no claim margin for {assertion!r}")


def independent_kk(xs, population, null_mean=0.5, padding=0.1):
    """Direct-product transcription of the sequential test; returns p per draw."""
    padded_sum = 0.0
    mart = 1.0
    peak = 0.0
    ps = []
    for n, x in enumerate(xs):
        y = x + padding
        m = (population * (null_mean + padding) - padded_sum) / (population - n)
        if m <= 0:
            mart = math.inf
        elif mart != math.inf:
            mart = mart * (y / m)
        peak = max(peak, mart)
        ps.append(1.0 if peak == 0 else min(1.0, 1.0 / peak))
        padded_sum += y
    return ps


def per_cell_scores(values: np.ndarray, means: np.ndarray, reported, audited, style: str):
    """Every assertion's score of each (reported, audited) cell, one column per cell, and the identity columns.

    The reference scorer that ``audit._cell_scores`` must match byte for byte:
    each cell is scored on its own, as its audited signature's assorter for
    polling and as ``(1 - (a(reported) - a(audited))) / (2 - (2 * mean - 1))``
    for comparison, and cell ``c`` reads column ``c``.
    """
    scores = np.take(values, audited, axis=1)
    if style == "comparison":
        scores = (1 - (np.take(values, reported, axis=1) - scores)) / (2 - (2 * means[:, None] - 1))
    return scores, np.arange(len(audited))


def per_ballot_stops(assertions, election: Election, cfg: AuditConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-trial stops of each assertion under the per-ballot error model: shape (assertions, trials).

    Each trial lays out all N ballots, replaces each one, with probability
    ``cfg.error_rate``, by a uniformly random other signature, permutes all
    N and stops at the first draw whose p-value over the full trace is at or
    below the risk limit; ``N + 1`` if none is.  Assorter values come from
    the signed contributions, normalised for ``cfg.style``, and a comparison
    draw scores ``(1 - (reported - audited)) / (2 - margin)`` against the
    reported mean.
    """
    sigs = sorted(election.profile)
    population = np.repeat(np.arange(len(sigs)), [election.profile[s] for s in sigs])
    n = population.size
    values = [np.array([0.5 + signed_contribution(a, s) / normalizer(a, cfg.style) for s in sigs]) for a in assertions]
    means = [0.5 + weighted_g_sum(a, election) / (normalizer(a, cfg.style) * n) for a in assertions]
    stops = np.empty((len(assertions), cfg.trials), dtype=np.int64)
    for trial in range(cfg.trials):
        audited = population.copy()
        hit = np.flatnonzero(rng.random(n) < cfg.error_rate)
        other = rng.integers(0, len(sigs) - 1, size=hit.size)
        audited[hit] = other + (other >= population[hit])
        order = rng.permutation(n)
        for i, (v, mean) in enumerate(zip(values, means)):
            x = v[audited[order]]
            if cfg.style == "comparison":
                x = (1 - (v[population[order]] - x)) / (2 - (2 * mean - 1))
            crossed = np.flatnonzero(kk_pvalue_trace(x, n) <= cfg.risk_limit)
            stops[i, trial] = crossed[0] + 1 if crossed.size else n + 1
    return stops


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the two empirical CDFs."""
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def random_election(rng: np.random.Generator, max_k: int = 6, max_signatures: int = 9,
                    max_count: int = 60) -> Election:
    """Small random election: partial rankings with integer counts."""
    k = int(rng.integers(1, max_k + 1))
    names = tuple("ABCDEFGH"[:k])
    profile: dict[tuple[int, ...], int] = {}
    for _ in range(int(rng.integers(0, max_signatures + 1))):
        size = int(rng.integers(0, k + 1))
        sig = tuple(int(c) for c in rng.permutation(k)[:size])
        count = int(rng.integers(1, max_count + 1))
        profile[sig] = profile.get(sig, 0) + count
    return Election(names, profile)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def expand(election: Election) -> list[tuple[int, ...]]:
    """The election's ballots as an explicit list."""
    out: list[tuple[int, ...]] = []
    for sig, count in sorted(election.profile.items()):
        out.extend([sig] * count)
    return out


class _RepeatedKey(Exception):
    """A JSON object names one key twice."""


def _refuse_repeated_keys(pairs):
    """A JSON object's dict, refusing its first key that an earlier pair already names."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise _RepeatedKey(key)
        seen.add(key)
    return dict(pairs)


def reference_samples(text: str, candidates, total: int):
    """A sample file read line by line from the README's rules.

    Returns the (audited, reported) ballots of every draw in draw order and
    no fault, or no draws and the (message, line number) of the first line
    at fault.
    """
    draws = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if len(draws) == total:
            return None, (f"more samples than the {total} ballots of the election", lineno)
        try:
            doc = json.loads(line, object_pairs_hook=_refuse_repeated_keys)
        except json.JSONDecodeError as exc:
            return None, (f"invalid JSON: {exc.msg}", lineno)
        except _RepeatedKey as exc:
            return None, (f"repeated key {exc.args[0]!r}", lineno)
        if not isinstance(doc, dict) or "audited" not in doc:
            return None, ("each sample needs an 'audited' ballot", lineno)
        ballots = []
        for key in ("audited", "reported"):
            names = doc.get(key)
            if key not in doc:
                ballots.append(None)
                continue
            if not isinstance(names, list):
                return None, (f"'{key}' must be a list of candidate names", lineno)
            for pos, name in enumerate(names):
                if not isinstance(name, str):
                    return None, (f"'{key}': candidate name {name!r} is not a string", lineno)
                if name not in candidates:
                    return None, (f"'{key}': unknown candidate name {name!r}", lineno)
                if name in names[:pos]:
                    return None, (f"'{key}': duplicate candidate {name!r}", lineno)
            ballots.append(tuple(candidates.index(name) for name in names))
        draws.append(tuple(ballots))
    return draws, None
