import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaudit import (
    CapacityError,
    Election,
    condorcet_winner,
    irv_tabulate,
    kemeny_tabulate,
    minimax_tabulate,
    pairwise_tallies,
    ranked_pairs_tabulate,
    scores,
    restrict_to,
    smith_set,
)
from condaudit.tabulation import _run_ranked_pairs

from oracles import (
    brute_force_kemeny,
    brute_force_smith,
    random_election,
    ranking_tally,
    reference_minimax,
    reference_ranked_pairs,
)

# 3-candidate cycle from the minimax worked example:
# A beats B by 2000, B beats C by 5000, C beats A by 8000.
CYCLE_SCORES = np.array(
    [[0, 2000, -8000], [-2000, 0, 5000], [8000, -5000, 0]]
)


def margin(election):
    return scores(pairwise_tallies(election))


class TestIrv:
    def test_election1_first_round_majority(self, election1):
        res = irv_tabulate(election1)
        assert res.winner == 0
        assert res.elimination_order == ()
        assert res.round_tallies[0] == {0: 5000, 1: 2800, 2: 500}

    def test_election2_exhausted_ballots(self, election2):
        res = irv_tabulate(election2)
        assert res.winner == 0
        assert res.elimination_order == (2,)
        # C's 5000 ballots leave play entirely after the elimination
        assert res.round_tallies[1] == {0: 20000, 1: 19000}

    def test_election3_two_eliminations(self, election3):
        res = irv_tabulate(election3)
        assert res.elimination_order == (3, 0)
        assert res.winner == 1
        assert res.round_tallies[0] == {0: 9000, 1: 10000, 2: 9000, 3: 1000}
        assert res.round_tallies[2] == {1: 17000, 2: 12000}

    def test_round_conservation(self, election2, election3):
        for election in (election2, election3):
            res = irv_tabulate(election)
            exhausted_by_round = [
                election.total_ballots - sum(t.values()) for t in res.round_tallies
            ]
            assert all(x >= 0 for x in exhausted_by_round)
            # ballots only ever leave play
            assert exhausted_by_round == sorted(exhausted_by_round)
        res2 = irv_tabulate(election2)
        assert election2.total_ballots - sum(res2.round_tallies[1].values()) == 5000

    def test_zero_candidates_rejected(self):
        with pytest.raises(ValueError):
            irv_tabulate(Election((), {}))

    def test_tie_policies(self):
        # Both rounds tie for last; the lower index goes first and the result is flagged.
        tied = irv_tabulate(Election(("A", "B", "C"), {(0,): 2, (1,): 2, (2, 0): 1, (2, 1): 1}))
        assert tied.tie_flag
        assert tied.elimination_order == (0, 1)
        assert tied.winner == 2


class TestCondorcetWinner:
    def test_worked_examples(self, election1, election2, election3):
        assert condorcet_winner(margin(election1)) == 0
        assert condorcet_winner(margin(election2)) == 2
        assert condorcet_winner(margin(election3)) is None

    def test_matches_definition(self):
        # Small tallies tie often; the winner is the one candidate with a positive margin over every other.
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(0, 7))
            s = scores(rng.integers(0, 3, size=(k, k)))
            winners = [w for w in range(k) if all(s[w, c] > 0 for c in range(k) if c != w)]
            assert condorcet_winner(s) == (winners[0] if winners else None)


class TestRankedPairs:
    def test_election1_structures(self, election1):
        rp = ranked_pairs_tabulate(margin(election1))
        assert rp.winner == 0
        assert [(p.winner, p.loser) for p in rp.commits] == [(1, 2), (0, 1)]
        assert [(i.winner, i.loser) for i in rp.inferences] == [(0, 2)]
        assert rp.inferences[0].basis == ((0, 1), (1, 2))
        assert not rp.tie_flag

    def test_election2_structures(self, election2):
        rp = ranked_pairs_tabulate(margin(election2))
        assert rp.winner == 2
        assert [(p.winner, p.loser) for p in rp.commits] == [(2, 1), (2, 0)]
        assert rp.inferences == ()

    def test_election3_structures(self, election3):
        rp = ranked_pairs_tabulate(margin(election3))
        assert rp.winner == 0
        assert [(p.winner, p.loser, p.score) for p in rp.commits] == [
            (1, 3, 13000),
            (0, 1, 9000),
            (1, 2, 5000),
        ]
        inferred = {(i.winner, i.loser): i.basis for i in rp.inferences}
        assert inferred == {
            (0, 3): ((0, 1), (1, 3)),
            (0, 2): ((0, 1), (1, 2)),
        }

    def test_commit_scores_non_increasing(self, election3):
        rp = ranked_pairs_tabulate(margin(election3))
        committed_scores = [p.score for p in rp.commits]
        assert committed_scores == sorted(committed_scores, reverse=True)

    def test_two_way_exact_tie_escalates(self):
        rp = ranked_pairs_tabulate(np.zeros((2, 2), dtype=int))
        assert rp.winner is None

    def test_harmless_equal_scores_keep_winner(self):
        # A>B>C>A cycle with distinct margins plus D losing to everyone by
        # the same margin: the tied block is reached before the outcome is
        # settled, but every ordering of it elects A.
        s = np.array(
            [
                [0, 10, -6, 2],
                [-10, 0, 8, 2],
                [6, -8, 0, 2],
                [-2, -2, -2, 0],
            ]
        )
        rp = ranked_pairs_tabulate(s)
        assert rp.winner == 0
        assert rp.tie_flag

    def test_ties_with_condorcet_winner_never_escalate(self):
        # (A,B) strongest; (A,C) and (B,C) tie; A beats everyone regardless.
        s = np.array([[0, 4, 2], [-4, 0, 2], [-2, -2, 0]])
        rp = ranked_pairs_tabulate(s)
        assert rp.winner == 0
        assert rp.tie_flag

    def test_winner_changing_tie_escalates(self):
        # Perfect three-cycle with all margins equal: the processing order
        # decides the winner.
        s = np.array([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        rp = ranked_pairs_tabulate(s)
        assert rp.winner is None
        assert rp.tie_flag

    def test_single_candidate(self):
        rp = ranked_pairs_tabulate(np.zeros((1, 1), dtype=int))
        assert rp.winner == 0
        assert rp.commits == () and rp.inferences == ()

    # Tie-heavy margin matrices, pinned from a brute-force sweep: the first grows
    # the set of equal-score blocks it searches, the second can elect 0 or 4.
    GROWS = [[0, -2, 3, -2, -3], [2, 0, -2, -3, 2], [-3, 2, 0, 0, 1], [2, 3, 0, 0, 1], [3, -2, -1, -1, 0]]
    SPLITS = [[0, 3, 3, 3, -2], [-3, 0, 1, 3, -3], [-3, -1, 0, -1, 2], [-3, -3, 1, 0, 3], [2, 3, -2, -3, 0]]

    @staticmethod
    def winners_over_every_ordering(s) -> set:
        """One Ranked Pairs pass per ordering of every block of equal-score majorities."""
        k = len(s)
        pairs = sorted(((s[i][j], i, j) for i in range(k) for j in range(k) if s[i][j] > 0), key=lambda p: -p[0])
        blocks = [list(group) for _, group in itertools.groupby(pairs, key=lambda p: p[0])]
        return {
            _run_ranked_pairs(k, [pair for block in arrangement for pair in block])[0]
            for arrangement in itertools.product(*(itertools.permutations(block) for block in blocks))
        }

    def test_pinned_tie_searches(self):
        assert self.winners_over_every_ordering(self.GROWS) == {3}
        rp = ranked_pairs_tabulate(np.array(self.GROWS))
        assert (rp.winner, rp.tie_flag) == (3, True)
        assert self.winners_over_every_ordering(self.SPLITS) == {0, 4}
        rp = ranked_pairs_tabulate(np.array(self.SPLITS))
        assert (rp.winner, rp.tie_flag) == (None, True)
        assert rp.reason == "ordering of equal-score majorities can change the winner"

    def test_tie_search_matches_brute_force(self):
        # The winner stands exactly when every ordering of the tied blocks elects it.
        rng = np.random.default_rng(11)
        for _ in range(150):
            k = int(rng.integers(2, 6))
            upper = np.triu(rng.integers(-3, 4, size=(k, k)), 1)
            s = upper - upper.T
            winners = self.winners_over_every_ordering(s.tolist())
            assert ranked_pairs_tabulate(s).winner == (winners.pop() if len(winners) == 1 else None)

    def test_too_many_tie_orderings_escalate(self):
        # A regular tournament on 5 candidates, every margin 2: one block of 10 equal-score
        # majorities, whose 10! orderings exceed the search limit.
        s = np.zeros((5, 5), dtype=int)
        for i in range(5):
            for step in (1, 2):
                s[i, (i + step) % 5], s[(i + step) % 5, i] = 2, -2
        rp = ranked_pairs_tabulate(s)
        assert (rp.winner, rp.tie_flag) == (None, True)
        assert rp.reason == "too many orderings of equal-score majorities to verify (> 10000)"

    def test_dag_acyclic_and_skips_witnessed(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            e = random_election(rng)
            rp = ranked_pairs_tabulate(margin(e))
            g = nx.DiGraph()
            g.add_nodes_from(range(e.num_candidates))
            g.add_edges_from((p.winner, p.loser) for p in rp.commits)
            assert nx.is_directed_acyclic_graph(g)
            committed = {(p.winner, p.loser) for p in rp.commits}
            assert len({(inf.winner, inf.loser) for inf in rp.inferences}) == len(rp.inferences)
            for inf in rp.inferences:
                assert set(inf.basis) <= committed
                # basis is a path from inference winner to loser
                assert inf.basis[0][0] == inf.winner
                assert inf.basis[-1][1] == inf.loser
                for (a, b), (c, d) in zip(inf.basis, inf.basis[1:]):
                    assert b == c
            if rp.winner is not None:
                reachable = nx.descendants(g, rp.winner) | {rp.winner}
                assert reachable == set(range(e.num_candidates))


class TestMinimax:
    def test_cycle_worked_example(self):
        mm = minimax_tabulate(CYCLE_SCORES)
        assert mm.winner == 1
        assert mm.worst_loss == {0: 8000, 1: 2000, 2: 5000}
        assert mm.strongest_defeater == {0: 2, 1: 0, 2: 1}
        assert not mm.condorcet_case

    def test_condorcet_case(self, election1):
        mm = minimax_tabulate(margin(election1))
        assert mm.winner == 0
        assert mm.condorcet_case

    def test_exact_tie_escalates(self):
        mm = minimax_tabulate(np.zeros((2, 2), dtype=int))
        assert mm.winner is None

    def test_election3(self, election3):
        mm = minimax_tabulate(margin(election3))
        assert mm.winner == 2
        assert mm.worst_loss == {0: 7000, 1: 9000, 2: 5000, 3: 13000}

    def test_strongest_defeater_is_lowest_index_among_equal_margins(self):
        # 0 and 1 beat 2 by 2, and 1 and 2 beat 3 by 3.
        s = np.array([[0, 1, 2, 0], [-1, 0, 2, 3], [-2, -2, 0, 3], [0, -3, -3, 0]])
        mm = minimax_tabulate(s)
        assert mm.worst_loss == {0: 0, 1: 1, 2: 2, 3: 3}
        assert mm.strongest_defeater == {1: 0, 2: 0, 3: 1}
        assert (mm.winner, mm.condorcet_case) == (0, False)

    def test_matches_definition(self):
        # Small tallies make equal margins common.
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            s = scores(rng.integers(0, 3, size=(k, k)))
            mm = minimax_tabulate(s)
            losses = {c: max((int(s[o, c]), -o) for o in range(k) if o != c) for c in range(k)}
            assert mm.worst_loss == {c: loss for c, (loss, _) in losses.items()}
            assert mm.strongest_defeater == {c: -neg_o for c, (loss, neg_o) in losses.items() if loss > 0}
            low = min(mm.worst_loss.values())
            lowest = [c for c in range(k) if mm.worst_loss[c] == low]
            assert mm.winner == (lowest[0] if len(lowest) == 1 else None)


class TestSmith:
    def test_condorcet_winner_is_sole_member(self, election1, election2):
        assert smith_set(pairwise_tallies(election1)).smith_set == (0,)
        assert smith_set(pairwise_tallies(election2)).smith_set == (2,)

    def test_election3_everyone(self, election3):
        sm = smith_set(pairwise_tallies(election3))
        assert sm.smith_set == (0, 1, 2, 3)
        assert sm.inner_defeats == {0: (3, 7000), 1: (0, 9000), 2: (1, 5000), 3: (1, 13000)}
        assert not sm.tie_flag

    def test_in_set_tie_flagged(self, smith_tie_election):
        sm = smith_set(pairwise_tallies(smith_tie_election))
        assert sm.smith_set == (0, 1)
        assert sm.tie_flag

    def test_inner_winner(self, election1, election3, smith_tie_election):
        t = pairwise_tallies(election3)
        assert smith_set(t).inner == minimax_tabulate(scores(t))  # every candidate is a member
        assert smith_set(t).winner == 2
        assert smith_set(t, irv=election3).inner == irv_tabulate(election3)
        assert smith_set(t, irv=election3).winner == 1
        sole = smith_set(pairwise_tallies(election1), irv=election1)
        assert sole.inner == irv_tabulate(restrict_to(election1, [0]))
        assert (sole.winner, sole.reason) == (0, None)
        tied = smith_set(pairwise_tallies(smith_tie_election), irv=smith_tie_election)
        assert (tied.winner, tied.reason) == (None, "pairwise tie within the Smith set")

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(250):
            e = random_election(rng)
            t = pairwise_tallies(e)
            assert frozenset(smith_set(t).smith_set) == brute_force_smith(scores(t))

    def test_inner_defeats_match_definition(self):
        # Each member's in-set opponent beating it by the largest margin, the lowest index
        # among equal margins; small tallies make such ties common.
        rng = np.random.default_rng(6)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            t = rng.integers(0, 3, size=(k, k))
            s = scores(t)
            sm = smith_set(t)
            assert frozenset(sm.smith_set) == brute_force_smith(s)
            expected = {}
            for c in sm.smith_set:
                defeats = [(int(s[d, c]), -d) for d in sm.smith_set if s[d, c] > 0]
                if defeats:
                    margin, neg_d = max(defeats)
                    expected[c] = (-neg_d, margin)
            assert sm.inner_defeats == expected


class TestKemeny:
    def test_single_candidate(self):
        kr = kemeny_tabulate(np.zeros((1, 1), dtype=int))
        assert kr.winner == 0 and kr.best_score == 0

    def test_election1(self, election1):
        kr = kemeny_tabulate(pairwise_tallies(election1))
        assert kr.best_ranking == (0, 1, 2)
        assert kr.best_score == 18600
        assert kr.winner == 0

    def test_election3(self, election3):
        kr = kemeny_tabulate(pairwise_tallies(election3))
        assert kr.best_ranking == (0, 1, 2, 3)
        assert kr.best_score == 98000

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            kemeny_tabulate(np.zeros((13, 13), dtype=int))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            e = random_election(rng, max_k=5)
            t = pairwise_tallies(e)
            kr = kemeny_tabulate(t)
            oracle_ranking, oracle_score = brute_force_kemeny(t)
            assert kr.best_score == oracle_score
            if not kr.tie_flag:
                assert kr.best_ranking == oracle_ranking

    def test_tie_flag_marks_a_repeated_best_score(self):
        # Small tallies make equal scores common; the first best ranking in enumeration order is kept.
        rng = np.random.default_rng(13)
        flagged = 0
        for _ in range(200):
            k = int(rng.integers(1, 6))
            t = rng.integers(0, 3, size=(k, k))
            all_scores = [ranking_tally(perm, t) for perm in itertools.permutations(range(k))]
            kr = kemeny_tabulate(t)
            assert kr.best_score == max(all_scores)
            assert kr.best_ranking == list(itertools.permutations(range(k)))[all_scores.index(kr.best_score)]
            assert kr.tie_flag == (all_scores.count(kr.best_score) > 1)
            flagged += kr.tie_flag
        assert 0 < flagged < 200

    def test_score_past_int64_is_exact(self):
        # Ranking (0, 1, 2) sums three tallies of 4e18: 1.2e19, past 2**63 - 1.
        t = np.array([[0, 4, 4], [1, 0, 4], [1, 1, 0]], dtype=np.int64) * 10**18
        kr = kemeny_tabulate(t)
        assert (kr.best_ranking, kr.best_score, kr.tie_flag) == ((0, 1, 2), 12 * 10**18, False)
        assert type(kr.best_score) is int

    def test_best_score_dominates_all(self, election3):
        t = pairwise_tallies(election3)
        kr = kemeny_tabulate(t)
        for perm in itertools.permutations(range(4)):
            score = sum(t[perm[p], perm[q]] for p in range(4) for q in range(p + 1, 4))
            assert kr.best_score >= score


def test_condorcet_coherence_across_methods():
    rng = np.random.default_rng(99)
    seen = 0
    for _ in range(250):
        e = random_election(rng)
        t = pairwise_tallies(e)
        s = scores(t)
        w = condorcet_winner(s)
        if w is None:
            continue
        seen += 1
        assert ranked_pairs_tabulate(s).winner == w
        assert minimax_tabulate(s).winner == w
        assert smith_set(t).smith_set == (w,)
    assert seen > 30


@st.composite
def even_margins(draw):
    """An antisymmetric margin matrix on up to 5 candidates, every margin one of a few even values.

    Few values make equal-score blocks common, and with them winners that depend on the order of a
    block, blocks too large to search, and no dominant candidate at all.
    """
    k = draw(st.integers(1, 5))
    upper = np.zeros((k, k), dtype=np.int64)
    for i, j in itertools.combinations(range(k), 2):
        upper[i, j] = draw(st.sampled_from([-4, -2, 0, 2, 4]))
    return upper - upper.T


@given(even_margins())
@settings(max_examples=200, deadline=None)
def test_results_match_the_references_field_for_field(s):
    # Each field's value and type: a numpy bool in place of a bool would change a JSON rendering.
    def fields(result):
        return [(name, type(value), value) for name, value in vars(result).items()]

    assert fields(ranked_pairs_tabulate(s)) == fields(reference_ranked_pairs(s))
    assert fields(minimax_tabulate(s)) == fields(reference_minimax(s))


@pytest.mark.parametrize(
    "tabulate, message",
    [
        (ranked_pairs_tabulate, "ranked pairs requires at least one candidate"),
        (minimax_tabulate, "minimax requires at least one candidate"),
        (smith_set, "smith set requires at least one candidate"),
        (kemeny_tabulate, "kemeny requires at least one candidate"),
    ],
    ids=["ranked-pairs", "minimax", "smith", "kemeny"],
)
def test_zero_candidates_rejected(tabulate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tabulate(np.zeros((0, 0), dtype=int))
