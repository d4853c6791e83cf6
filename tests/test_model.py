import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condaudit import (
    CapacityError,
    Election,
    pairwise_tallies,
    preference_matrix,
    ranked_pairs_tabulate,
    restrict_to,
    scale,
    scores,
)

from oracles import _ballot_prefers, random_election


# Table of comparative tallies for the four-candidate example election.
ELECTION3_TALLIES = np.array(
    [
        [0, 19000, 15000, 11000],
        [10000, 0, 17000, 21000],
        [14000, 12000, 0, 15000],
        [18000, 8000, 14000, 0],
    ]
)

ELECTION3_SCORES = np.array(
    [
        [0, 9000, 1000, -7000],
        [-9000, 0, 5000, 13000],
        [-1000, -5000, 0, 1000],
        [7000, -13000, -1000, 0],
    ]
)


class TestPrefers:
    """Entries of one ballot's row of the preference matrix over A, B and C."""

    def test_ranked_before(self):
        row = preference_matrix([(2, 0, 1)], 3)[0]
        assert row[0, 1]       # A before B on [C, A, B]
        assert not row[1, 2]   # C precedes B

    def test_mentioned_vs_unmentioned(self):
        row = preference_matrix([(0, 1)], 3)[0]
        assert row[0, 2]       # A appears, C does not
        assert not row[2, 0]

    def test_empty_ballot_mentions_neither(self):
        assert not preference_matrix([()], 3).any()


def _ballots(k: int):
    """Partial and empty rankings of k candidates."""
    return st.permutations(range(k)).flatmap(lambda p: st.integers(0, k).map(lambda n: tuple(p[:n])))


@given(st.integers(1, 7).flatmap(lambda k: st.tuples(st.just(k), st.lists(_ballots(k), max_size=10))))
@example((3, [(2, 0, 1), (0, 1), ()]))  # ranked before, ranked over unranked, and the empty ballot
@settings(max_examples=200, deadline=None)
def test_preference_matrix_matches_the_ballot_oracle(case):
    k, sigs = case
    prefs = preference_matrix(sigs, k)
    assert prefs.shape == (len(sigs), k, k) and prefs.dtype == bool
    for s, sig in enumerate(sigs):
        for i in range(k):
            assert not prefs[s, i, i]
            for j in range(k):
                if i != j:
                    assert prefs[s, i, j] == _ballot_prefers(sig, i, j), (sig, i, j)


class TestPairwiseTallies:
    def test_election1_worked_values(self, election1):
        t = pairwise_tallies(election1)
        assert t[0, 1] == 5500 and t[1, 0] == 2800
        assert t[0, 2] == 5300 and t[2, 0] == 3000

    def test_election3_full_matrix(self, election3):
        assert np.array_equal(pairwise_tallies(election3), ELECTION3_TALLIES)

    def test_empty_profile(self):
        e = Election(("A", "B"), {})
        assert np.array_equal(pairwise_tallies(e), np.zeros((2, 2), dtype=int))

    def test_tallies_refuse_2_to_the_63_ballots(self, election1):
        # 8,300 x 1.5e15 ballots: an int64 tally would wrap and commit C > B.
        with pytest.raises(CapacityError, match="2\\*\\*63 ballots"):
            pairwise_tallies(scale(election1, 1_500_000_000_000_000))
        with pytest.raises(CapacityError):
            pairwise_tallies(Election(("A", "B"), {(0, 1): 2**62, (1, 0): 2**62}))
        assert pairwise_tallies(Election(("A", "B"), {(0, 1): 2**62, (1, 0): 2**62 - 1}))[0, 1] == 2**62

    def test_margins_scale_exactly_below_the_bound(self, election1):
        factor = 100_000_000_000_000
        big = ranked_pairs_tabulate(scores(pairwise_tallies(scale(election1, factor))))
        small = ranked_pairs_tabulate(scores(pairwise_tallies(election1)))
        assert [(c.winner, c.loser, c.score) for c in big.commits] == [
            (c.winner, c.loser, c.score * factor) for c in small.commits
        ]


class TestScores:
    def test_election1(self, election1):
        s = scores(pairwise_tallies(election1))
        assert s[0, 1] == 2700 and s[0, 2] == 2300 and s[1, 2] == 7300

    def test_election3(self, election3):
        assert np.array_equal(scores(pairwise_tallies(election3)), ELECTION3_SCORES)

    def test_all_zero(self):
        assert np.array_equal(scores(np.zeros((3, 3), dtype=int)), np.zeros((3, 3), dtype=int))


class TestElectionValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            Election(("A", "A"), {})

    def test_duplicate_candidate_in_ballot(self):
        with pytest.raises(ValueError):
            Election(("A", "B"), {(0, 0): 1})

    def test_unknown_candidate_index(self):
        with pytest.raises(ValueError):
            Election(("A", "B"), {(2,): 1})

    def test_negative_count(self):
        with pytest.raises(ValueError):
            Election(("A", "B"), {(0,): -1})

    # True once stored a count of 1.
    @pytest.mark.parametrize("count", [True, False, 2.0, "3"], ids=["true", "false", "float", "str"])
    def test_non_integer_count(self, count):
        with pytest.raises(ValueError, match=r"^ballot count for \(0,\) must be a nonnegative integer$"):
            Election(("A",), {(0,): count})

    def test_numpy_integer_count_is_stored_as_int(self):
        e = Election(("A", "B"), {(0,): np.int64(3), (1, 0): np.uint16(2)})
        assert e.profile == {(0,): 3, (1, 0): 2}
        assert {type(n) for n in e.profile.values()} == {int}

    def test_totals(self, election1, election2, election3):
        assert election1.total_ballots == 8300
        assert election2.total_ballots == 44000
        assert election3.total_ballots == 29000


@st.composite
def elections(draw, max_k=6):
    k = draw(st.integers(1, max_k))
    profile = {}
    for _ in range(draw(st.integers(0, 7))):
        size = draw(st.integers(0, k))
        perm = draw(st.permutations(range(k)))
        count = draw(st.integers(0, 50))
        sig = tuple(perm[:size])
        profile[sig] = profile.get(sig, 0) + count
    return Election(tuple("ABCDEF"[:k]), profile)


@given(elections())
@settings(max_examples=120, deadline=None)
def test_score_matrix_antisymmetric(election):
    s = scores(pairwise_tallies(election))
    assert np.array_equal(s, -s.T)
    assert np.all(np.diag(s) == 0)


@given(elections())
@settings(max_examples=120, deadline=None)
def test_opposing_tallies_bounded_by_total(election):
    t = pairwise_tallies(election)
    k = election.num_candidates
    total = election.total_ballots
    for i in range(k):
        for j in range(k):
            if i != j:
                assert t[i, j] + t[j, i] <= total
                # equality iff every ballot mentions i or j
                mentions_all = all(
                    (i in sig or j in sig) for sig, n in election.profile.items() if n
                )
                assert (t[i, j] + t[j, i] == total) == mentions_all


@given(elections(), elections())
@settings(max_examples=80, deadline=None)
def test_tallies_linear_in_profile(e1, e2):
    k = max(e1.num_candidates, e2.num_candidates)
    names = tuple("ABCDEF"[:k])
    a = Election(names, dict(e1.profile))
    b = Election(names, dict(e2.profile))
    merged_profile = dict(a.profile)
    for sig, n in b.profile.items():
        merged_profile[sig] = merged_profile.get(sig, 0) + n
    merged = Election(names, merged_profile)
    assert np.array_equal(
        pairwise_tallies(merged), pairwise_tallies(a) + pairwise_tallies(b)
    )


def test_restrict_to_filters_and_renumbers(election3):
    reduced = restrict_to(election3, [0, 1])  # keep A and B
    assert reduced.candidates == ("A", "B")
    assert reduced.total_ballots == election3.total_ballots
    t = pairwise_tallies(reduced)
    assert t[0, 1] == 19000 and t[1, 0] == 10000


def test_restrict_to_rejects_unknown_index(election3):
    with pytest.raises(ValueError, match="^unknown candidate index 4$"):
        restrict_to(election3, [0, 4])


def test_digest_tracks_content(election1, election2):
    assert election1.digest() != election2.digest()
    clone = Election(election1.candidates, dict(election1.profile))
    assert election1.digest() == clone.digest()


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_tallies_match_brute_force_prefers(seed):
    e = random_election(np.random.default_rng(seed))
    k = e.num_candidates
    # Every profile also holds an empty and a one-candidate ballot.
    e = Election(e.candidates, {**e.profile, (): 2, (k - 1,): 3})
    expected = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i != j:
                expected[i, j] = sum(n * _ballot_prefers(sig, i, j) for sig, n in e.profile.items())
    assert np.array_equal(pairwise_tallies(e), expected)


def test_random_election_generator_valid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = random_election(rng)
        assert e.total_ballots >= 0
        pairwise_tallies(e)
