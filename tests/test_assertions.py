import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaudit import (
    METHODS,
    AssertionSet,
    CapacityError,
    Election,
    FullHandCount,
    KemenyResult,
    PairwisePositive,
    RankingComparison,
    SchemaError,
    ScoreComparison,
    assorter_mean,
    assorter_values,
    condorcet_assertions,
    condorcet_winner,
    describe,
    export_assertions,
    import_assertions,
    kemeny_assertions,
    kemeny_tabulate,
    method_assertions,
    minimax_assertions,
    minimax_tabulate,
    pairwise_tallies,
    preference_matrix,
    ranked_pairs_assertions,
    ranked_pairs_tabulate,
    scores,
    smith_assertions,
    smith_set,
)

from condaudit.assertions import _relabel

from oracles import (
    claim_margin,
    normalizer,
    random_election,
    signed_contribution,
    weighted_g_sum,
)

CYCLE_SCORES = np.array([[0, 2000, -8000], [-2000, 0, 5000], [8000, -5000, 0]])


def margin(election):
    return scores(pairwise_tallies(election))


def as_pairs(aset):
    return {(a.winner, a.loser) for a in aset.assertions}


def ballot_value(assertion, ballot, k=4):
    """The assorter of one ballot, scored as a one-row preference matrix over k candidates."""
    return float(assorter_values(assertion, preference_matrix([ballot], k))[0])


class TestAssorterValue:
    def test_pairwise_direct_preference(self):
        assert ballot_value(PairwisePositive(0, 1), (0, 1)) == 1.0
        assert ballot_value(PairwisePositive(0, 1), (1, 0)) == 0.0
        assert ballot_value(PairwisePositive(0, 1), (2,)) == 0.5

    def test_score_comparison_on_opposing_ballot(self):
        # s(A,B) > s(D,A) scored on [B,C,D,A]: the ballot prefers B over A
        # and D over A, so both negative categories fire.
        a = ScoreComparison((0, 1), (3, 0))
        assert ballot_value(a, (1, 2, 3, 0)) == 0.0

    def test_score_comparison_supporting_ballot(self):
        a = ScoreComparison((0, 1), (3, 0))
        assert ballot_value(a, (0, 1, 3, 2)) == 1.0

    def test_empty_ballot_is_half_for_every_type(self):
        assert ballot_value(PairwisePositive(0, 1), ()) == 0.5
        assert ballot_value(ScoreComparison((0, 1), (3, 0)), ()) == 0.5
        assert ballot_value(RankingComparison((0, 1, 2), (1, 0, 2)), ()) == 0.5

    def test_full_hand_count_has_no_assorter(self):
        with pytest.raises(ValueError):
            ballot_value(FullHandCount("tie"), (0,))

    def test_non_assertion_has_no_assorter(self):
        with pytest.raises(TypeError):
            ballot_value("s(A,B) > 0", (0,))

    def test_ranking_comparison(self):
        a = RankingComparison((0, 1, 2), (2, 1, 0))
        assert ballot_value(a, (0, 1, 2)) == 1.0
        assert ballot_value(a, (2, 1, 0)) == 0.0
        assert ballot_value(a, (1,)) == 0.5  # agrees 1-1 with both rankings

    def test_validation(self):
        with pytest.raises(ValueError):
            PairwisePositive(1, 1)
        with pytest.raises(ValueError):
            ScoreComparison((0, 1), (0, 1))
        with pytest.raises(ValueError):
            RankingComparison((0, 1), (0, 1))  # same first candidate
        with pytest.raises(ValueError):
            RankingComparison((0, 1), (1, 2))  # different candidate sets


class TestCondorcetAssertions:
    def test_election1(self, election1):
        aset = condorcet_assertions(0, 3)
        assert as_pairs(aset) == {(0, 1), (0, 2)}
        assert all(assorter_mean(a, election1) > 0.5 for a in aset.assertions)

    def test_election2(self, election2):
        aset = condorcet_assertions(2, 3)
        assert as_pairs(aset) == {(2, 0), (2, 1)}

    def test_two_candidates(self):
        assert len(condorcet_assertions(0, 2).assertions) == 1

    def test_member_count_is_k_minus_1(self):
        for k in range(2, 7):
            assert len(condorcet_assertions(0, k).assertions) == k - 1

    def test_single_candidate_is_the_empty_set(self):
        assert condorcet_assertions(0, 1) == AssertionSet("condorcet", 0, ())

    def test_no_winner_escalates(self):
        aset = condorcet_assertions(None, 3)
        assert aset == AssertionSet("condorcet", None, (FullHandCount("no Condorcet winner exists"),))
        assert aset.full_hand_count


class TestRankedPairsAssertions:
    def test_election3_verbatim(self, election3):
        aset = ranked_pairs_assertions(ranked_pairs_tabulate(margin(election3)))
        expected = (
            PairwisePositive(0, 1),
            ScoreComparison((0, 1), (3, 0)),
            ScoreComparison((1, 3), (3, 0)),
            ScoreComparison((0, 1), (2, 0)),
            ScoreComparison((1, 2), (2, 0)),
        )
        assert set(aset.assertions) == set(expected)
        assert len(aset.assertions) == 5
        assert aset.winner == 0

    def test_election1(self, election1):
        aset = ranked_pairs_assertions(ranked_pairs_tabulate(margin(election1)))
        assert set(aset.assertions) == {
            PairwisePositive(0, 1),
            ScoreComparison((0, 1), (2, 0)),
            ScoreComparison((1, 2), (2, 0)),
        }

    def test_election2_reduces_to_condorcet(self, election2):
        aset = ranked_pairs_assertions(ranked_pairs_tabulate(margin(election2)))
        assert set(aset.assertions) == {PairwisePositive(2, 1), PairwisePositive(2, 0)}

    def test_sentinel_propagates(self):
        rp = ranked_pairs_tabulate(np.zeros((2, 2), dtype=int))
        aset = ranked_pairs_assertions(rp)
        assert aset.full_hand_count and aset.winner is None

    def test_empty_inferences_equals_condorcet_set(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            e = random_election(rng)
            if e.num_candidates < 2:
                continue
            s = margin(e)
            w = condorcet_winner(s)
            rp = ranked_pairs_tabulate(s)
            if w is None or rp.winner != w or rp.inferences:
                continue
            checked += 1
            aset = ranked_pairs_assertions(rp)
            expected = condorcet_assertions(w, e.num_candidates)
            assert set(aset.assertions) == set(expected.assertions)
        assert checked > 10


class TestMinimaxAssertions:
    def test_cycle_worked_example(self):
        mm = minimax_tabulate(CYCLE_SCORES)
        aset = minimax_assertions(mm)
        assert set(aset.assertions) == {
            ScoreComparison((0, 1), (2, 1)),  # A's defeat of B is B's strongest
            ScoreComparison((1, 2), (0, 1)),  # C's strongest defeat exceeds B's
            ScoreComparison((2, 0), (0, 1)),  # A's strongest defeat exceeds B's
        }
        assert aset.winner == 1

    def test_condorcet_case_reduces(self, election1):
        mm = minimax_tabulate(margin(election1))
        aset = minimax_assertions(mm)
        assert as_pairs(aset) == {(0, 1), (0, 2)}

    def test_two_candidates(self):
        s = np.array([[0, 10], [-10, 0]])
        aset = minimax_assertions(minimax_tabulate(s))
        assert set(aset.assertions) == {PairwisePositive(0, 1)}

    def test_tie_escalates(self):
        s = np.zeros((2, 2), dtype=int)
        aset = minimax_assertions(minimax_tabulate(s))
        assert aset.full_hand_count


class TestSmithAssertions:
    def test_sole_member_reduces_to_condorcet(self, election1):
        t = pairwise_tallies(election1)
        aset = smith_assertions(smith_set(t), 3)
        assert aset.method == "smith-minimax"
        assert as_pairs(aset) == {(0, 1), (0, 2)}
        assert aset.winner == 0

    def test_election3_two_stages_plus_inner(self, election3):
        t = pairwise_tallies(election3)
        aset = smith_assertions(smith_set(t), 4)
        # no outsiders, so stage one is empty; stage two pins the four
        # largest-margin in-set defeats; inner minimax elects C
        stage2 = {
            PairwisePositive(3, 0),
            PairwisePositive(0, 1),
            PairwisePositive(1, 2),
            PairwisePositive(1, 3),
        }
        assert stage2 <= set(aset.assertions)
        assert aset.winner == 2
        inner = set(aset.assertions) - stage2
        assert inner == {
            ScoreComparison((1, 2), (0, 2)),
            ScoreComparison((1, 2), (3, 2)),
            ScoreComparison((3, 0), (1, 2)),
            ScoreComparison((0, 1), (1, 2)),
            ScoreComparison((1, 3), (1, 2)),
        }

    def test_in_set_tie_escalates(self, smith_tie_election):
        t = pairwise_tallies(smith_tie_election)
        aset = smith_assertions(smith_set(t), 3)
        assert aset.full_hand_count

    def test_stage_counts_with_outsiders(self):
        # B beats C beats D beats B (cycle); all of them beat E; A loses to
        # everyone -> Smith set {B,C,D} wait: construct directly via scores.
        s = np.array(
            [
                [0, 4, 2, -2, 6],
                [-4, 0, 6, -4, 8],
                [-2, -6, 0, 8, 4],
                [2, 4, -8, 0, 2],
                [-6, -8, -4, -2, 0],
            ]
        )
        sm = smith_set(np.maximum(s, 0) * 10)  # tallies with the same sign pattern
        members = set(sm.smith_set)
        outsiders = set(range(5)) - members
        aset = smith_assertions(sm, 5)
        stage1 = {
            a for a in aset.assertions
            if isinstance(a, PairwisePositive) and a.winner in members and a.loser in outsiders
        }
        assert len(stage1) == len(members) * len(outsiders)

    def test_irv_import_inner(self, election3):
        t = pairwise_tallies(election3)
        sm = smith_set(t, irv=election3)
        inner = AssertionSet("irv", 1, (PairwisePositive(1, 0), PairwisePositive(1, 2)))
        aset = smith_assertions(sm, 4, imported=inner)
        assert aset.method == "smith-irv"
        assert aset.winner == 1
        assert PairwisePositive(1, 0) in aset.assertions

    def test_irv_import_missing(self, election3):
        sm = smith_set(pairwise_tallies(election3), irv=election3)
        with pytest.raises(ValueError):
            smith_assertions(sm, 4)

    def test_irv_import_outside_smith_set(self, election1):
        sm = smith_set(pairwise_tallies(election1), irv=election1)  # {A}
        inner = AssertionSet("irv", 1, (PairwisePositive(1, 2),))
        with pytest.raises(SchemaError, match="Smith-set members only"):
            smith_assertions(sm, 3, imported=inner)

    def test_irv_import_for_another_winner(self, election3):
        sm = smith_set(pairwise_tallies(election3), irv=election3)
        assert sm.winner == 1  # IRV over the Smith set elects B
        inner = AssertionSet("irv", 0, (PairwisePositive(0, 1), PairwisePositive(0, 2)))
        with pytest.raises(SchemaError, match="winner other than IRV"):
            smith_assertions(sm, 4, imported=inner)

    def test_tabulation_and_assertions_agree_on_the_winner(self):
        rng = np.random.default_rng(5)
        cycles = 0
        for _ in range(600):
            e = random_election(rng, max_signatures=12)
            t = pairwise_tallies(e)
            sm = METHODS["smith-minimax"][0](e, t)
            assert method_assertions("smith-minimax", e).winner == sm.winner
            if not sm.tie_flag and len(sm.smith_set) > 1:
                assert set(sm.inner_defeats) == set(sm.smith_set)
                cycles += 1
            irv = METHODS["smith-irv"][0](e, t)
            if irv.winner is not None:
                inner = AssertionSet("irv", irv.winner, ())
                assert method_assertions("smith-irv", e, inner).winner == irv.winner
        assert cycles >= 20  # tie-free Smith sets of two or more members were exercised


class TestKemenyAssertions:
    def test_two_candidates(self):
        kr = KemenyResult((0, 1), 5, 0, False)
        aset = kemeny_assertions(kr)
        assert aset.assertions == (RankingComparison((0, 1), (1, 0)),)

    def test_three_candidates_four_assertions(self):
        kr = KemenyResult((0, 1, 2), 9, 0, False)
        aset = kemeny_assertions(kr)
        assert len(aset.assertions) == 4
        assert all(a.other[0] != 0 for a in aset.assertions)

    def test_capacity_guard(self):
        kr = KemenyResult(tuple(range(13)), 0, 0, False)
        with pytest.raises(CapacityError):
            kemeny_assertions(kr)

    def test_election1_assertions_true(self, election1):
        t = pairwise_tallies(election1)
        aset = kemeny_assertions(kemeny_tabulate(t))
        for a in aset.assertions:
            assert claim_margin(a, t) > 0
            assert assorter_mean(a, election1) > 0.5


class TestAssertionSetInvariants:
    def test_sentinel_must_be_alone(self):
        with pytest.raises(ValueError):
            AssertionSet("x", None, (FullHandCount("t"), PairwisePositive(0, 1)))


class TestMethodTable:
    def test_one_candidate_gives_the_empty_set(self):
        e = Election(("A",), {(0,): 5})
        for method, (_, generate) in METHODS.items():
            if generate is None:
                continue
            imported = AssertionSet("irv", 0, ()) if method == "smith-irv" else None
            assert method_assertions(method, e, imported) == AssertionSet(method, 0, ())

    def test_irv_is_not_generated(self):
        with pytest.raises(ValueError):
            method_assertions("irv", Election(("A",), {(0,): 5}))


class TestInterchange:
    @pytest.mark.parametrize(
        "make_set",
        [
            lambda e: ranked_pairs_assertions(ranked_pairs_tabulate(margin(e))),
            lambda e: kemeny_assertions(kemeny_tabulate(pairwise_tallies(e))),
            lambda e: AssertionSet("ranked-pairs", None, (FullHandCount("unresolved tie"),)),
        ],
        ids=["ranked-pairs", "kemeny", "full-hand-count"],
    )
    def test_round_trip_election3(self, election3, make_set):
        aset = make_set(election3)
        doc = export_assertions(aset, election3)
        back = import_assertions(doc, election3)
        assert back.method == aset.method
        assert back.winner == aset.winner
        assert back.assertions == aset.assertions

    def test_round_trip_through_json_text(self, election3):
        t = pairwise_tallies(election3)
        aset = smith_assertions(smith_set(t), 4)
        text = json.dumps(export_assertions(aset, election3))
        back = import_assertions(text, election3)
        assert back.assertions == aset.assertions

    def test_unknown_name_rejected(self, election1):
        doc = {
            "method": "condorcet",
            "winner": "A",
            "assertions": [{"type": "pairwise_positive", "winner": "Z", "loser": "B"}],
        }
        with pytest.raises(SchemaError, match="unknown candidate"):
            import_assertions(doc, election1)

    def test_unknown_type_tag_rejected(self, election1):
        doc = {"method": "x", "winner": "A", "assertions": [{"type": "mystery"}]}
        with pytest.raises(SchemaError, match="unknown assertion type"):
            import_assertions(doc, election1)

    def test_hand_written_single_assertion(self, election1):
        doc = {
            "method": "custom",
            "winner": "A",
            "assertions": [{"type": "pairwise_positive", "winner": "A", "loser": "B"}],
        }
        aset = import_assertions(doc, election1)
        assert len(aset.assertions) == 1
        assert assorter_mean(aset.assertions[0], election1) > 0.5

    def test_digest_mismatch_rejected(self, election1, election2):
        doc = export_assertions(condorcet_assertions(0, 3), election1)
        with pytest.raises(SchemaError, match="digest"):
            import_assertions(doc, election2)

    @pytest.mark.parametrize(
        "entry",
        [
            {"type": "score_comparison", "hi": ["A", "B", "D"], "lo": ["D", "A"]},
            {"type": "score_comparison", "hi": ["A", "B"], "lo": ["D"]},
            {"type": "score_comparison", "hi": "AB", "lo": ["D", "A"]},
            {"type": "ranking_comparison", "preferred": "ABCD", "other": ["B", "A", "C", "D"]},
            {"type": "ranking_comparison", "preferred": ["A", "B", "C", "D"], "other": "BACD"},
            {"type": "ranking_comparison", "preferred": ["A", "B"], "other": ["B", "A"]},
            {"type": "full_hand_count", "reason": [1]},
        ],
        ids=[
            "pair-of-three", "pair-of-one", "pair-as-string", "preferred-as-string", "other-as-string",
            "partial-ranking", "reason-as-list",
        ],
    )
    def test_candidate_fields_are_not_repaired(self, election3, entry):
        doc = {"method": "x", "winner": "A", "assertions": [entry]}
        with pytest.raises(SchemaError):
            import_assertions(doc, election3)

    def test_describe(self, election3):
        names = election3.candidates
        assert describe(PairwisePositive(0, 1), names) == "s(A,B) > 0"
        assert describe(ScoreComparison((0, 1), (3, 0)), names) == "s(A,B) > s(D,A)"
        assert describe(RankingComparison((0, 1, 2, 3), (1, 0, 3, 2)), names) == "T([A,B,C,D]) > T([B,A,D,C])"
        assert describe(FullHandCount("tie"), names) == "full hand count: tie"
        assert describe(FullHandCount(), names) == "full hand count"

    def test_relabel_every_claim_shape(self):
        mapping = (2, 0, 3, 1)
        assert _relabel(PairwisePositive(0, 1), mapping) == PairwisePositive(2, 0)
        assert _relabel(ScoreComparison((0, 1), (3, 0)), mapping) == ScoreComparison((2, 0), (1, 2))
        assert _relabel(RankingComparison((0, 1, 2, 3), (1, 0, 3, 2)), mapping) == RankingComparison(
            (2, 0, 3, 1), (0, 2, 1, 3)
        )


# ---------------------------------------------------------------------------
# Soundness: assorter mean sits on the correct side of 1/2 for every claim


def _random_assertion(rng, k):
    kind = rng.integers(0, 3)
    if kind == 0 or k < 3:
        i, j = rng.choice(k, size=2, replace=False)
        return PairwisePositive(int(i), int(j))
    if kind == 1:
        while True:
            i, j = rng.choice(k, size=2, replace=False)
            a, b = rng.choice(k, size=2, replace=False)
            if (int(i), int(j)) != (int(a), int(b)):
                return ScoreComparison((int(i), int(j)), (int(a), int(b)))
    while True:
        p1 = tuple(int(c) for c in rng.permutation(k))
        p2 = tuple(int(c) for c in rng.permutation(k))
        if p1[0] != p2[0]:
            return RankingComparison(p1, p2)


def _check_soundness(assertion, election, tallies):
    g_sum = weighted_g_sum(assertion, election)
    mean = assorter_mean(assertion, election)
    margin_ = claim_margin(assertion, tallies)
    assert g_sum == margin_, (assertion, g_sum, margin_)
    total = election.total_ballots
    if total:
        assert (mean > 0.5) == (margin_ > 0)
        assert (mean == 0.5) == (margin_ == 0) or abs(
            mean - (0.5 + g_sum / (normalizer(assertion) * total))
        ) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_assorter_mean_matches_tally_inequality(seed):
    rng = np.random.default_rng(seed)
    e = random_election(rng, max_k=5)
    if e.num_candidates < 2 or e.total_ballots == 0:
        return
    t = pairwise_tallies(e)
    prefs = preference_matrix(list(e.profile), e.num_candidates)
    for _ in range(4):
        a = _random_assertion(rng, e.num_candidates)
        _check_soundness(a, e, t)
        for sig, batched in zip(e.profile, assorter_values(a, prefs)):
            v = ballot_value(a, sig, e.num_candidates)
            assert 0.0 <= v <= 1.0
            assert v == batched == (signed_contribution(a, sig) + normalizer(a) / 2) / normalizer(a)


def _generated_assertions(election):
    """Every assertion the methods generate for the election, sentinels left out."""
    t = pairwise_tallies(election)
    s = scores(t)
    k = election.num_candidates
    sets = [
        ranked_pairs_assertions(ranked_pairs_tabulate(s)),
        minimax_assertions(minimax_tabulate(s)),
        smith_assertions(smith_set(t), k),
        kemeny_assertions(kemeny_tabulate(t)),
    ]
    w = condorcet_winner(s)
    if w is not None:
        sets.append(condorcet_assertions(w, k))
    return [a for aset in sets for a in aset.assertions if not isinstance(a, FullHandCount)]


def _check_exact_means(election) -> int:
    """Each generated assertion's mean is (M + hN) / 2hN, correctly rounded; returns how many were checked."""
    t = pairwise_tallies(election)
    n = election.total_ballots
    generated = _generated_assertions(election)
    for a in generated:
        two_h = normalizer(a)
        assert assorter_mean(a, election) == float(Fraction(claim_margin(a, t) + two_h // 2 * n, two_h * n)), a
    return len(generated)


class TestExactMean:
    @pytest.mark.parametrize("name", ["election1", "election2", "election3", "smith_tie_election"])
    def test_fixtures(self, request, name):
        assert _check_exact_means(request.getfixturevalue(name)) > 0

    def test_random_elections(self):
        checked = 0
        for seed in range(80):
            e = random_election(np.random.default_rng(seed), max_k=5)
            if e.num_candidates >= 2 and e.total_ballots:
                checked += _check_exact_means(e)
        assert checked >= 500

    def test_tied_claims_read_exactly_half(self, smith_tie_election):
        tied = RankingComparison((0, 1, 2), (1, 0, 2))
        assert claim_margin(tied, pairwise_tallies(smith_tie_election)) == 0
        assert assorter_mean(tied, smith_tie_election) == 0.5
        assert assorter_mean(PairwisePositive(0, 1), Election(("A", "B"), {(0,): 5, (1,): 5})) == 0.5
        assert assorter_mean(PairwisePositive(0, 1), Election(("A", "B"))) == 0.5


def test_theorem_style_falsifiability():
    """Assertion sets forged for a wrong Ranked Pairs winner always contain
    at least one assertion whose assorter mean fails to clear 1/2."""
    rng = np.random.default_rng(31337)
    tested = 0
    for _ in range(400):
        e = random_election(rng, max_k=5)
        if e.num_candidates < 2 or e.total_ballots == 0:
            continue
        t = pairwise_tallies(e)
        s = scores(t)
        rp = ranked_pairs_tabulate(s)
        if rp.winner is None:
            continue
        for wrong in range(e.num_candidates):
            if wrong == rp.winner:
                continue
            # Forge a tabulation record in which `wrong` wins by relabeling
            # the two candidates on every ballot, then audit its assertions
            # against the real ballots.
            swap = {rp.winner: wrong, wrong: rp.winner}
            forged_profile: dict[tuple[int, ...], int] = {}
            for sig, count in e.profile.items():
                fsig = tuple(swap.get(c, c) for c in sig)
                forged_profile[fsig] = forged_profile.get(fsig, 0) + count
            forged = Election(e.candidates, forged_profile)
            forged_rp = ranked_pairs_tabulate(scores(pairwise_tallies(forged)))
            if forged_rp.winner != wrong:
                continue
            aset = ranked_pairs_assertions(forged_rp)
            tested += 1
            means = [assorter_mean(a, e) for a in aset.assertions]
            assert min(means) <= 0.5, (e.profile, wrong, means)
    assert tested > 50
