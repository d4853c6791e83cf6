"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success).  Expected values for the three worked elections are frozen from
the tabulation tables; statistical criteria run at the stated trial counts
and tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from condaudit import (
    METHODS,
    AssertionSet,
    AuditConfig,
    Election,
    PairwisePositive,
    ScoreComparison,
    condorcet_assertions,
    condorcet_winner,
    estimate_audit,
    irv_tabulate,
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
    serialize_election,
    smith_assertions,
    smith_set,
)
from condaudit.assertions import claim_means, claim_values, claim_weights
from condaudit.cli import main as cli_main

from oracles import (
    brute_force_kemeny,
    brute_force_smith,
    claim_margin,
    expand,
    random_election,
    weighted_g_sum,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number} PASS — {description}")


ELECTION3_TALLIES = np.array(
    [
        [0, 19000, 15000, 11000],
        [10000, 0, 17000, 21000],
        [14000, 12000, 0, 15000],
        [18000, 8000, 14000, 0],
    ]
)

ELECTION3_SCORES = ELECTION3_TALLIES - ELECTION3_TALLIES.T


def test_criterion_1_golden_tabulation(election1, election2, election3):
    with criterion(1, "golden tabulation of the three worked elections"):
        start = time.monotonic()
        fixtures = (election1, election2, election3)

        irv_winners = [irv_tabulate(e).winner for e in fixtures]
        assert irv_winners == [0, 0, 1]  # A, A, B

        margins = [scores(pairwise_tallies(e)) for e in fixtures]
        assert condorcet_winner(margins[0]) == 0
        assert condorcet_winner(margins[1]) == 2
        assert condorcet_winner(margins[2]) is None

        rp_winners = [ranked_pairs_tabulate(m).winner for m in margins]
        assert rp_winners == [0, 2, 0]  # A, C, A

        assert np.array_equal(pairwise_tallies(election3), ELECTION3_TALLIES)
        assert np.array_equal(margins[2], ELECTION3_SCORES)

        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_ranked_pairs_structures(election1, election2, election3):
    with criterion(2, "ranked pairs commit/inference structures"):
        rp1 = ranked_pairs_tabulate(scores(pairwise_tallies(election1)))
        assert {(p.winner, p.loser) for p in rp1.commits} == {(1, 2), (0, 1)}
        assert {(i.winner, i.loser) for i in rp1.inferences} == {(0, 2)}
        assert set(rp1.inferences[0].basis) == {(0, 1), (1, 2)}

        rp2 = ranked_pairs_tabulate(scores(pairwise_tallies(election2)))
        assert {(p.winner, p.loser) for p in rp2.commits} == {(2, 1), (2, 0)}
        assert rp2.inferences == ()

        rp3 = ranked_pairs_tabulate(scores(pairwise_tallies(election3)))
        assert {(p.winner, p.loser) for p in rp3.commits} == {(1, 3), (0, 1), (1, 2)}
        bases = {(i.winner, i.loser): set(i.basis) for i in rp3.inferences}
        assert bases == {
            (0, 3): {(0, 1), (1, 3)},
            (0, 2): {(0, 1), (1, 2)},
        }


def test_criterion_3_assertion_sets(election1, election2, election3):
    with criterion(3, "worked-example assertion sets"):
        rp3 = ranked_pairs_tabulate(scores(pairwise_tallies(election3)))
        aset = ranked_pairs_assertions(rp3)
        assert set(aset.assertions) == {
            PairwisePositive(0, 1),
            ScoreComparison((0, 1), (3, 0)),
            ScoreComparison((1, 3), (3, 0)),
            ScoreComparison((0, 1), (2, 0)),
            ScoreComparison((1, 2), (2, 0)),
        }
        assert len(aset.assertions) == 5

        cycle = np.array([[0, 2000, -8000], [-2000, 0, 5000], [8000, -5000, 0]])
        mm = minimax_tabulate(cycle)
        mm_set = minimax_assertions(mm)
        assert mm.winner == 1
        assert set(mm_set.assertions) == {
            ScoreComparison((0, 1), (2, 1)),
            ScoreComparison((1, 2), (0, 1)),
            ScoreComparison((2, 0), (0, 1)),
        }

        for e, w in ((election1, 0), (election2, 2)):
            aset = condorcet_assertions(w, e.num_candidates)
            assert len(aset.assertions) == e.num_candidates - 1


def _generated_sets(election):
    """Every assertion set the engine generates for this election, by the method table.

    IRV sets are not generated and smith-irv's inner set is imported; Kemeny
    is left out above four candidates, where its sets grow factorially.
    """
    return [
        method_assertions(method, election)
        for method in METHODS
        if method not in ("irv", "smith-irv") and (method != "kemeny" or election.num_candidates <= 4)
    ]


def test_criterion_4_assorter_soundness():
    with criterion(4, "assorter soundness on 500 random elections"):
        rng = np.random.default_rng(20230314)
        checked = 0
        for _ in range(500):
            e = random_election(rng)
            t = pairwise_tallies(e)
            total = e.total_ballots
            prefs = preference_matrix([(), *e.profile], e.num_candidates)
            for aset in _generated_sets(e):
                checked += len(aset.assertions)
                # Each set is scored as one stack, in both audit styles, as an audit scores it.
                margins = [claim_margin(a, t) for a in aset.assertions]
                if total:
                    assert [weighted_g_sum(a, e) for a in aset.assertions] == margins
                for style in ("polling", "comparison"):
                    weights, norm = claim_weights(aset.assertions, e.num_candidates, style)
                    values = claim_values(weights, norm, prefs)
                    assert (values[:, 0] == 0.5).all()
                    assert ((values >= 0.0) & (values <= 1.0)).all()
                    if total == 0:
                        continue
                    for a, mean, margin in zip(aset.assertions, claim_means(weights, norm, t, total), margins):
                        assert (mean > 0.5) == (margin > 0), (a, style, e.profile)
                        if margin == 0:
                            assert mean == pytest.approx(0.5, abs=1e-12)
        assert checked >= 2000


def test_criterion_5_oracle_equivalence():
    with criterion(5, "Smith and Kemeny match brute-force oracles"):
        rng = np.random.default_rng(424242)
        for _ in range(220):
            e = random_election(rng)
            t = pairwise_tallies(e)
            assert frozenset(smith_set(t).smith_set) == brute_force_smith(scores(t))
        for _ in range(220):
            e = random_election(rng)
            t = pairwise_tallies(e)
            kr = kemeny_tabulate(t)
            ranking, score = brute_force_kemeny(t)
            assert kr.best_score == score
            assert kr.best_ranking == ranking  # both break ties lexicographically


def test_criterion_6_condorcet_coherence():
    with criterion(6, "Ranked Pairs, Minimax, Smith all elect the Condorcet winner"):
        rng = np.random.default_rng(606060)
        seen = 0
        for _ in range(400):
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
        assert seen >= 50


def one_assertion_stops(assertion, election, cfg, workers=1):
    """Every trial's stop for a set holding just ``assertion``."""
    aset = AssertionSet("condorcet", None, (assertion,))
    return estimate_audit(aset, election, cfg, workers=workers).stops[0]


def test_criterion_7_risk_validity_on_exact_tie():
    with criterion(7, "tied contest certifies at no more than the risk limit"):
        start = time.monotonic()
        e = Election(("A", "B"), {(0,): 500, (1,): 500})  # s(A,B) = 0 exactly
        cfg = AuditConfig(seed=1234, trials=2000, error_rate=0.0)
        stops = one_assertion_stops(PairwisePositive(0, 1), e, cfg)
        certify_rate = float(np.mean(stops <= e.total_ballots))
        bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 2000)
        assert certify_rate <= bound, f"rate {certify_rate:.4f} > {bound:.4f}"
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_8a_scaling_does_not_raise_sample_fraction(election1):
    with criterion(8, "(a) sample fraction does not grow under x10 scaling"):
        assertion = PairwisePositive(0, 1)
        cfg = AuditConfig(seed=88, trials=2000)
        fractions = {}
        for factor in (1, 10):
            e = scale(election1, factor)
            n = e.total_ballots
            stops = np.minimum(one_assertion_stops(assertion, e, cfg, workers=2), n)
            fractions[factor] = stops / n
        med1, med10 = np.median(fractions[1]), np.median(fractions[10])
        q1 = np.percentile(fractions[1], [25, 75])
        q10 = np.percentile(fractions[10], [25, 75])
        bands_overlap = max(q1[0], q10[0]) <= min(q1[1], q10[1])
        assert med10 <= med1 or bands_overlap, (med1, med10, q1, q10)


def test_criterion_8b_bit_reproducibility(election1):
    with criterion(8, "(b) fixed seed reproduces exactly across runs and thread counts"):
        assertion = PairwisePositive(0, 1)
        cfg = AuditConfig(seed=777, trials=200)
        runs = [one_assertion_stops(assertion, election1, cfg, workers=w) for w in (1, 1, 4)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])
        aset = AssertionSet("condorcet", 0, (assertion,))
        asns = {estimate_audit(aset, election1, cfg, workers=w).per_assertion[0] for w in (1, 4)}
        assert len(asns) == 1


def test_criterion_8c_full_hand_count_renders_infinity(
    tmp_path, capsys, smith_tie_election
):
    with criterion(8, "(c) in-set tie escalates to an infinity estimate"):
        t = pairwise_tallies(smith_tie_election)
        aset = smith_assertions(smith_set(t), 3)
        assert aset.full_hand_count
        est = estimate_audit(aset, smith_tie_election, AuditConfig(seed=0, trials=5))
        assert est.full_count_flag
        assert est.overall == smith_tie_election.total_ballots

        path = tmp_path / "tie.json"
        path.write_text(serialize_election(smith_tie_election))
        code = cli_main(
            ["estimate", "--method", "smith-minimax", str(path), "--trials", "5"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "∞" in out


def test_criterion_9_cli_end_to_end(tmp_path, capsys, election3):
    with criterion(9, "assertions -> estimate -> audit pipeline certifies"):
        start = time.monotonic()
        election_path = tmp_path / "election3.json"
        election_path.write_text(serialize_election(election3))

        set_path = tmp_path / "rp3.json"
        code = cli_main(
            ["assertions", "--method", "ranked-pairs", str(election_path), "-o", str(set_path)]
        )
        capsys.readouterr()
        assert code == 0

        code = cli_main(
            [
                "estimate", str(election_path), "--assertions-file", str(set_path),
                "--style", "comparison", "--trials", "200", "--seed", "7",
                "--format", "json",
            ]
        )
        est_out = capsys.readouterr().out
        assert code == 0
        est = json.loads(est_out)
        assert est["overall_asn"] <= 10_000

        # synthesized error-free sample: a seeded random draw of the ballots,
        # audited interpretation identical to the reported one
        pop = expand(election3)
        order = np.random.default_rng(90).permutation(len(pop))[:10_000]
        sample_path = tmp_path / "samples.jsonl"
        with open(sample_path, "w") as fh:
            for i in order:
                names = [election3.candidates[c] for c in pop[i]]
                fh.write(json.dumps({"reported": names, "audited": names}) + "\n")

        code = cli_main(
            [
                "audit", str(election_path), "--assertions-file", str(set_path),
                "--samples-file", str(sample_path), "--style", "comparison",
                "--format", "json",
            ]
        )
        audit_out = capsys.readouterr().out
        assert code == 0
        report = json.loads(audit_out)
        assert report["outcome"] == "certified"
        assert report["ballots_examined"] <= 10_000
        assert len(report["assertions"]) == 5
        assert all(row["certified"] for row in report["assertions"])
        assert all(row["p_value"] <= 0.05 for row in report["assertions"])

        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"
