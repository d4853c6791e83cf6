import itertools
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
    KemenyResult,
    PairwisePositive,
    ParseError,
    RankingComparison,
    ScoreComparison,
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
    scale,
    scores,
    smith_assertions,
    smith_set,
)

from condaudit.assertions import _relabel, claim_means, claim_values, claim_weights

from oracles import (
    claim_margin,
    comparison_normalizer,
    json_values,
    normalizer,
    object_claim_means,
    object_kemeny,
    pair_weights,
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
    """The polling assorter of one ballot: entry (0, 0) of a one-claim set scored on a one-row preference matrix."""
    weights, h = claim_weights([assertion], k, "polling")
    return float(claim_values(weights, h, preference_matrix([ballot], k))[0, 0])


def set_means(assertions, election, style="polling"):
    """Each claim's reported mean in an audit of ``style``, the set scored as one stack, as an audit scores it."""
    weights, h = claim_weights(assertions, election.num_candidates, style)
    return claim_means(weights, h, pairwise_tallies(election), election.total_ballots)


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
        with pytest.raises(ValueError, match="^rankings may not repeat candidates$"):
            RankingComparison((0, 1, 0), (1, 0, 2))


class TestCondorcetAssertions:
    def test_election1(self, election1):
        aset = condorcet_assertions(0, 3)
        assert as_pairs(aset) == {(0, 1), (0, 2)}
        assert (set_means(aset.assertions, election1) > 0.5).all()

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

    def test_out_of_range_winner_rejected(self):
        with pytest.raises(ValueError, match="^winner index 3 out of range$"):
            condorcet_assertions(3, 3)

    def test_no_winner_escalates(self):
        aset = condorcet_assertions(None, 3)
        assert aset == AssertionSet("condorcet", None, escalation="no Condorcet winner exists")
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

    def test_winner_without_a_strict_loss_escalates(self):
        # 3xACB, 2xBAC, 1xCBA: A ties B and beats C, so A wins with no strongest defeat to compare.
        e = Election(("A", "B", "C"), {(0, 2, 1): 3, (1, 0, 2): 2, (2, 1, 0): 1})
        mm = minimax_tabulate(margin(e))
        assert (mm.winner, mm.worst_loss[0]) == (0, 0)
        aset = minimax_assertions(mm)
        assert aset == AssertionSet("minimax", None, escalation="a candidate has no strict pairwise loss to compare")


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
        with pytest.raises(ParseError, match="Smith-set members only"):
            smith_assertions(sm, 3, imported=inner)

    def test_irv_import_for_another_winner(self, election3):
        sm = smith_set(pairwise_tallies(election3), irv=election3)
        assert sm.winner == 1  # IRV over the Smith set elects B
        inner = AssertionSet("irv", 0, (PairwisePositive(0, 1), PairwisePositive(0, 2)))
        with pytest.raises(ParseError, match="winner other than IRV"):
            smith_assertions(sm, 4, imported=inner)

    def test_irv_import_escalated(self, election3):
        sm = smith_set(pairwise_tallies(election3), irv=election3)  # Smith set ABCD, IRV winner B
        assert (sm.smith_set, sm.winner) == ((0, 1, 2, 3), 1)
        aset = smith_assertions(sm, 4, imported=AssertionSet("irv", None, escalation="irv tie"))
        assert aset == AssertionSet("smith-irv", None, escalation="imported inner set escalates")

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
        assert (set_means(aset.assertions, election1) > 0.5).all()


class TestAssertionSetInvariants:
    def test_sentinel_must_be_alone(self):
        with pytest.raises(ValueError):
            AssertionSet("x", None, (PairwisePositive(0, 1),), escalation="t")

    def test_escalation_names_no_winner(self):
        with pytest.raises(ValueError, match="names no winner"):
            AssertionSet("x", 0, escalation="t")


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

    def test_escalation_is_the_sets_outcome(self):
        # Every generated set escalates exactly when it names no winner, then holds no
        # assertions, and comes back unchanged through the JSON interchange.
        rng = np.random.default_rng(12)
        escalated = 0
        for _ in range(300):
            e = random_election(rng, max_k=5)
            irv = METHODS["smith-irv"][0](e, pairwise_tallies(e)).winner
            inner = AssertionSet("irv", None, escalation="") if irv is None else AssertionSet("irv", irv)
            for method, (_, generate) in METHODS.items():
                if generate is None:
                    continue
                aset = method_assertions(method, e, inner if method == "smith-irv" else None)
                assert aset.full_hand_count == (aset.winner is None), (method, e.profile)
                assert not (aset.full_hand_count and aset.assertions)
                assert import_assertions(export_assertions(aset, e), e) == aset
                escalated += aset.full_hand_count
        assert escalated >= 100


class TestInterchange:
    @pytest.mark.parametrize(
        "make_set",
        [
            lambda e: ranked_pairs_assertions(ranked_pairs_tabulate(margin(e))),
            lambda e: kemeny_assertions(kemeny_tabulate(pairwise_tallies(e))),
            lambda e: AssertionSet("ranked-pairs", None, escalation="unresolved tie"),
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
        with pytest.raises(ParseError, match="unknown candidate"):
            import_assertions(doc, election1)

    def test_unknown_type_tag_rejected(self, election1):
        doc = {"method": "x", "winner": "A", "assertions": [{"type": "mystery"}]}
        with pytest.raises(ParseError, match="unknown assertion type"):
            import_assertions(doc, election1)

    def test_hand_written_single_assertion(self, election1):
        doc = {
            "method": "custom",
            "winner": "A",
            "assertions": [{"type": "pairwise_positive", "winner": "A", "loser": "B"}],
        }
        aset = import_assertions(doc, election1)
        assert len(aset.assertions) == 1
        assert set_means(aset.assertions, election1)[0] > 0.5

    @pytest.mark.parametrize(
        "second",
        [{"type": "full_hand_count"}, {"type": "pairwise_positive", "winner": "A", "loser": "B"}],
        ids=["two-escalations", "escalation-and-claim"],
    )
    def test_escalation_entry_stands_alone(self, election1, second):
        doc = {"method": "x", "winner": None, "assertions": [{"type": "full_hand_count", "reason": "tie"}, second]}
        with pytest.raises(ParseError, match=r"^a full-hand-count sentinel must be the set's only member$"):
            import_assertions(doc, election1)

    def test_escalation_names_no_winner(self, election1):
        doc = {"method": "irv", "winner": "B", "assertions": [{"type": "full_hand_count", "reason": "x"}]}
        with pytest.raises(ParseError, match=r"^a full-hand-count set names no winner$"):
            import_assertions(doc, election1)
        doc["winner"] = None
        assert import_assertions(doc, election1) == AssertionSet("irv", None, escalation="x")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("not json", "line 1: invalid JSON: Expecting value"),
            ('{"method": "x",\n "winner": "A",\n "assertions": }', "line 3: invalid JSON: Expecting value"),
            ([], "assertion document must be an object"),
            ({"method": 3, "assertions": []}, "'method' must be a string"),
            ({"method": "x", "assertions": {}}, "'assertions' must be a list"),
            ({"method": "x", "assertions": ["s(A,B) > 0"]}, "each assertion must be an object"),
            (
                {"method": "x", "winner": "A", "assertions": [{"type": "pairwise_positive", "winner": "A"}]},
                "malformed pairwise_positive entry: 'loser'",
            ),
            ({"method": "x", "assertions": [], "metadata": []}, "'metadata' must be an object"),
            ({"method": "x", "assertions": []}, "a set that does not escalate names its winner"),
            (
                {"method": "x", "winner": None,
                 "assertions": [{"type": "pairwise_positive", "winner": "A", "loser": "B"}]},
                "a set that does not escalate names its winner",
            ),
        ],
        ids=[
            "invalid-json", "invalid-json-on-line-3", "not-an-object", "method-not-a-string", "assertions-not-a-list",
            "entry-not-an-object", "entry-missing-a-field", "metadata-not-an-object", "no-winner",
            "claims-without-a-winner",
        ],
    )
    def test_malformed_document_rejected(self, election1, doc, message):
        with pytest.raises(ParseError) as err:
            import_assertions(doc, election1)
        assert str(err.value) == message

    def test_digest_mismatch_rejected(self, election1, election2):
        doc = export_assertions(condorcet_assertions(0, 3), election1)
        with pytest.raises(ParseError, match="digest"):
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
        with pytest.raises(ParseError):
            import_assertions(doc, election3)

    def test_describe(self, election3):
        names = election3.candidates
        assert describe(PairwisePositive(0, 1), names) == "s(A,B) > 0"
        assert describe(ScoreComparison((0, 1), (3, 0)), names) == "s(A,B) > s(D,A)"
        assert describe(RankingComparison((0, 1, 2, 3), (1, 0, 3, 2)), names) == "T([A,B,C,D]) > T([B,A,D,C])"

    def test_relabel_every_claim_shape(self):
        mapping = (2, 0, 3, 1)
        assert _relabel(PairwisePositive(0, 1), mapping) == PairwisePositive(2, 0)
        assert _relabel(ScoreComparison((0, 1), (3, 0)), mapping) == ScoreComparison((2, 0), (1, 2))
        assert _relabel(RankingComparison((0, 1, 2, 3), (1, 0, 3, 2)), mapping) == RankingComparison(
            (2, 0, 3, 1), (0, 2, 1, 3)
        )


_FUZZ_ELECTION = Election(("A", "B", "C", "D"), {(0, 1, 2, 3): 5, (1, 0, 3, 2): 3, (2,): 1})
_NAMES = st.sampled_from(_FUZZ_ELECTION.candidates)
_PAIRS = st.lists(_NAMES, min_size=2, max_size=2)
_RANKINGS = st.permutations(_FUZZ_ELECTION.candidates)
_TAG_FIELDS = {
    "pairwise_positive": {"winner": _NAMES, "loser": _NAMES},
    "score_comparison": {"hi": _PAIRS, "lo": _PAIRS},
    "ranking_comparison": {"preferred": _RANKINGS, "other": _RANKINGS},
    "full_hand_count": {"reason": st.text(max_size=4)},
}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_json_document_loads_or_is_a_parse_error(data):
    # Guard: each field holds a valid value or any JSON value, and nothing but a ParseError escapes.
    def field(valid):  # one field in four holds any JSON value
        return data.draw(json_values if data.draw(st.integers(0, 3)) == 0 else valid)

    entries = []
    for _ in range(data.draw(st.integers(0, 3))):
        tag = data.draw(st.sampled_from(sorted(_TAG_FIELDS)))
        entry = {"type": field(st.just(tag))}
        for key, valid in _TAG_FIELDS[tag].items():
            if data.draw(st.integers(0, 9)):  # a field is sometimes missing
                entry[key] = field(valid)
        entries.append(entry)
    doc = {
        "method": field(st.text(max_size=4)),
        "winner": field(st.none() | _NAMES),
        "assertions": field(st.just(entries)),
        "metadata": field(st.just({"election_sha256": _FUZZ_ELECTION.digest()})),
    }
    for form in (doc, json.dumps(doc)):
        try:
            import_assertions(form, _FUZZ_ELECTION)
        except ParseError:
            pass


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


def _check_soundness(assertions, election, tallies):
    for assertion, mean in zip(assertions, set_means(assertions, election)):
        g_sum = weighted_g_sum(assertion, election)
        margin_ = claim_margin(assertion, tallies)
        assert g_sum == margin_, (assertion, g_sum, margin_)
        total = election.total_ballots
        if total:
            assert (mean > 0.5) == (margin_ > 0)
            assert (mean == 0.5) == (margin_ == 0) or abs(
                mean - (0.5 + g_sum / (normalizer(assertion, "polling") * total))
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
    claims = [_random_assertion(rng, e.num_candidates) for _ in range(4)]
    _check_soundness(claims, e, t)
    weights, h = claim_weights(claims, e.num_candidates, "polling")
    for a, row in zip(claims, claim_values(weights, h, prefs)):
        for sig, batched in zip(e.profile, row):
            v = ballot_value(a, sig, e.num_candidates)
            assert 0.0 <= v <= 1.0
            two_h = normalizer(a, "polling")
            assert v == batched == (signed_contribution(a, sig) + two_h / 2) / two_h


def _generated_assertions(election):
    """Every assertion the methods generate for the election."""
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
    return [a for aset in sets for a in aset.assertions]


def _check_exact_means(election) -> int:
    """Each generated assertion's mean in either style is (M + hN) / 2hN, correctly rounded; returns how many were
    checked."""
    t = pairwise_tallies(election)
    n = election.total_ballots
    generated = _generated_assertions(election)
    for style in ("polling", "comparison"):
        for a, mean in zip(generated, set_means(generated, election, style)):
            two_h = normalizer(a, style)
            assert mean == float(Fraction(claim_margin(a, t) + two_h // 2 * n, two_h * n)), (a, style)
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

    @pytest.mark.parametrize("name", ["election1", "election3"])
    def test_means_hold_up_to_the_int64_bound(self, request, name):
        # A claim's margin sums several tallies, so near 2**63 ballots it is past int64: the mean is
        # still exact, the same at any scale.
        election = request.getfixturevalue(name)
        big = scale(election, (2**63 - 1) // election.total_ballots)
        generated = _generated_assertions(election)
        for style in ("polling", "comparison"):
            assert set_means(generated, big, style).tolist() == set_means(generated, election, style).tolist(), style

    def test_tied_claims_read_exactly_half(self, smith_tie_election):
        tied = RankingComparison((0, 1, 2), (1, 0, 2))
        assert claim_margin(tied, pairwise_tallies(smith_tie_election)) == 0
        even, empty = Election(("A", "B"), {(0,): 5, (1,): 5}), Election(("A", "B"))
        for style in ("polling", "comparison"):
            assert set_means([tied], smith_tie_election, style).tolist() == [0.5]
            assert set_means([PairwisePositive(0, 1)], even, style).tolist() == [0.5]
            assert set_means([PairwisePositive(0, 1)], empty, style).tolist() == [0.5]


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
            means = set_means(aset.assertions, e).tolist()
            assert min(means) <= 0.5, (e.profile, wrong, means)
    assert tested > 50


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: a set implies its winner")
@pytest.mark.parametrize(
    "method, added",
    [
        # D>C>A>B and A>D>C>B: all 5 claims hold, yet B>C turns negative, D>C and C>B lock first and D wins.
        ("ranked-pairs", {(3, 2, 0, 1): 2788, (0, 3, 2, 1): 7081}),
        # C>A>B>D, D>B>A>C and B>A>D>C: all 9 claims hold, yet D beats C, the Smith set shrinks to {A, B, D}
        # and B wins.
        ("smith-minimax", {(2, 0, 1, 3): 882, (3, 1, 0, 2): 1947, (1, 0, 3, 2): 218}),
    ],
    ids=["ranked-pairs", "smith-minimax"],
)
def test_a_set_whose_claims_hold_elects_its_winner(election3, method, added):
    aset = method_assertions(method, election3)
    profile = dict(election3.profile)
    for ballot, count in added.items():
        profile[ballot] = profile.get(ballot, 0) + count
    moved = Election(election3.candidates, profile)
    tallies = pairwise_tallies(moved)
    margins = [claim_margin(a, tallies) for a in aset.assertions]
    winner = METHODS[method][0](moved, tallies).winner
    assert min(margins) <= 0 or winner in (aset.winner, None), (margins, aset.winner, winner)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5: a tie escalates")
@pytest.mark.parametrize(
    "method, election",
    [
        # No ballot ranks anyone: every ranking ties, and the 4 claims against rankings led by B or C have margin 0.
        ("kemeny", Election(("A", "B", "C"), {(): 5})),
        # A's two worst losses, to C and to D, are both 44, so s(C,A) > s(D,A) has margin 0.
        ("minimax", Election(tuple("ABCDE"), {(): 83, (2, 3, 0, 1, 4): 54, (1,): 18, (0, 4, 1, 3): 49,
                                              (4, 1, 3, 2): 39})),
    ],
    ids=["kemeny", "minimax"],
)
def test_a_set_that_does_not_escalate_has_every_margin_above_zero(method, election):
    aset = method_assertions(method, election)
    tallies = pairwise_tallies(election)
    margins = [claim_margin(a, tallies) for a in aset.assertions]
    assert aset.full_hand_count or min(margins) > 0, (aset.winner, margins)


@st.composite
def _claims(draw, k: int):
    """A claim of any shape over k candidates; a ranking comparison ranks a subset of two or more."""
    pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True).map(tuple)
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return PairwisePositive(*draw(pair))
    if shape == 1:
        hi = draw(pair)
        return ScoreComparison(hi, draw(pair.filter(lambda lo: lo != hi)))
    preferred = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=k, unique=True))
    return RankingComparison(preferred, draw(st.permutations(preferred).filter(lambda p: p[0] != preferred[0])))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_claim_weights_match_the_pair_oracle(data):
    k = data.draw(st.integers(2, 7))
    claims = data.draw(st.lists(_claims(k), max_size=8))
    ballot = st.permutations(range(k)).flatmap(lambda p: st.integers(0, k).map(lambda n: tuple(p[:n])))
    prefs = preference_matrix(data.draw(st.lists(ballot, max_size=10)), k)
    weights, h = claim_weights(claims, k, "polling")
    expected_weights, expected_h = pair_weights(claims, k)
    assert weights.dtype == h.dtype == np.int64
    np.testing.assert_array_equal(weights, expected_weights)
    np.testing.assert_array_equal(h, expected_h)
    for row, claim in enumerate(claims):  # a mixed-shape set's rows are its claims' own
        one_weights, one_h = claim_weights([claim], k, "polling")
        np.testing.assert_array_equal(one_weights[0], weights[row])
        assert one_h[0] == h[row]
    # The float64 product gives the integer product's assorters bit for bit.
    g = np.tensordot(weights, prefs, axes=([1, 2], [1, 2]))
    assert claim_values(weights, h, prefs).tobytes() == ((g + h[:, None]) / (2 * h[:, None])).tobytes()


# Tallies up to just below 2**63, the bound ballot_counts keeps, drawn often at an int64 limb's edges: each is
# hi * 2**32 + lo, so 2**32 - 1 and 2**32 fill or carry the low limb and 2**63 - 1 fills both.  Small
# tallies make equal Kemeny scores, and so the tie-break, common.
_TALLIES = st.one_of(
    st.integers(0, 3),
    st.sampled_from([2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 2, 2**63 - 1]),
    st.integers(0, 2**63 - 1),
)


def _tally_matrix(k: int):
    return st.lists(_TALLIES, min_size=k * k, max_size=k * k).map(lambda xs: np.array(xs, dtype=np.int64).reshape(k, k))


# The int64 limbs must give what Python ints give.  Each test fails under either mutation of its function:
# summing one int64 limb (the whole tally), which wraps past 2**63, or joining the limbs with a shift of 31.
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_limbs_give_the_object_sums_means_bit_for_bit(data):
    k = data.draw(st.integers(2, 7))
    claims = data.draw(st.lists(_claims(k), max_size=8))
    tallies = data.draw(_tally_matrix(k))
    total = data.draw(st.one_of(st.just(0), st.integers(1, 2**63 - 1)))
    for style in ("polling", "comparison"):
        weights, h = claim_weights(claims, k, style)
        means = claim_means(weights, h, tallies, total)
        assert means.dtype == np.float64
        assert means.tobytes() == object_claim_means(weights, h, tallies, total).tobytes()


@given(st.integers(1, 6).flatmap(_tally_matrix))
@settings(max_examples=200, deadline=None)
def test_limbs_give_the_object_sums_kemeny_result_field_for_field(tallies):
    # Each field's value and type: a numpy integer in place of an int would change a JSON rendering.
    def fields(result):
        return [(name, type(value), value) for name, value in vars(result).items()]

    assert fields(kemeny_tabulate(tallies)) == fields(object_kemeny(tallies))


@given(st.integers(2, 7).flatmap(_claims))
@settings(max_examples=200, deadline=None)
def test_claim_rankings_rank_the_same_candidate_sets(claim):
    # Guard: W is its +1 rankings' preference rows less its -1 rankings', and a ranking's row also prefers each
    # candidate it ranks to each it does not.  Those entries cancel only when both sides rank the same sets.
    plus, minus = claim.claim()
    assert sorted(sorted(r) for r in plus) == sorted(sorted(r) for r in minus)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_comparison_normaliser_is_the_largest_swing_of_one_ballot(data):
    # Over every strict and partial ballot of k <= 5 candidates: a comparison audit's h is the largest |g|.
    k = data.draw(st.integers(2, 5))
    claims = data.draw(st.lists(_claims(k), min_size=1, max_size=6))
    ballots = list(dict.fromkeys(p[:n] for p in itertools.permutations(range(k)) for n in range(k + 1)))
    weights, d = claim_weights(claims, k, "comparison")
    polling_weights, h = claim_weights(claims, k, "polling")
    np.testing.assert_array_equal(polling_weights, weights)
    assert d.tolist() == [comparison_normalizer(c) for c in claims]
    assert d.tolist() == [max(abs(signed_contribution(c, b)) for b in ballots) for c in claims]
    assert (d >= 1).all()
    assert h.tolist() == [normalizer(c, "polling") // 2 for c in claims]
    values = claim_values(weights, d, preference_matrix(ballots, k))
    assert ((values >= 0) & (values <= 1)).all()
    profile = data.draw(st.dictionaries(st.sampled_from(ballots), st.integers(1, 60), max_size=8))
    election = Election(tuple("ABCDE"[:k]), profile)
    tallies = pairwise_tallies(election)
    means = claim_means(weights, d, tallies, election.total_ballots)
    assert [mean > 0.5 for mean in means] == [claim_margin(c, tallies) > 0 for c in claims]
