import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import condaudit
from condaudit import (
    AssertionSet,
    AuditConfig,
    AuditSample,
    Election,
    FullHandCount,
    PairwisePositive,
    ParseError,
    RankingComparison,
    ScoreComparison,
    assorter_values,
    estimate_audit,
    kk_pvalue_trace,
    load_samples,
    method_assertions,
    preference_matrix,
    run_audit,
)
from condaudit import assertions as assertions_module
from condaudit import audit as audit_module
from condaudit import model as model_module
from condaudit.audit import (
    _FIRST_CHUNK,
    _KK_START,
    NULL_MEAN,
    PADDING,
    _comparison_score,
    _first_crossing,
    _kk_chunk,
)

from oracles import expand, independent_kk, normalizer, signed_contribution, weighted_g_sum

GOLDEN = Path(__file__).parent / "golden"


def per_draw_trace(xs, population):
    """The kernel fed one draw at a time, carrying its state between draws."""
    carry, out = _KK_START, []
    for i, x in enumerate(xs):
        p, carry = _kk_chunk(np.array([x], dtype=np.float64), population, i, carry)
        out.append(float(p[0]))
    return out


def first_crossing(ps, risk_limit=0.05):
    return next(i + 1 for i, p in enumerate(ps) if p <= risk_limit)


class TestKaplanKolmogorov:
    def test_unanimous_ones_cross_quickly(self):
        assert first_crossing(kk_pvalue_trace(np.ones(100), 100)) == 5
        # agrees with a direct-product transcription of the recursion
        assert first_crossing(independent_kk([1.0] * 10, 100)) == 5

    def test_null_mean_samples_never_certify(self):
        n_draws = 5000
        p = kk_pvalue_trace(np.full(n_draws, 0.5), 10_000)
        assert np.all(p[: n_draws // 2] > 0.05)

    def test_null_impossibility_zeroes_p(self):
        # Four draws of 1.0 from a population of 4 exceed the null's total
        # padded mass, so the final conditional mean goes negative.
        assert kk_pvalue_trace(np.ones(4), 4)[-1] == 0.0
        assert independent_kk([1.0] * 4, 4)[-1] == 0.0

    def test_impossible_null_keeps_p_at_zero(self):
        # Six draws of 1.0 pad to 6.6 > N * (t + g) = 6 for N = 10, so m <= 0
        # from the seventh draw on; later zeros cannot revive the null.
        xs = [1.0] * 6 + [0.0] * 4
        padded_before = np.concatenate(([0.0], np.cumsum(np.array(xs) + PADDING)[:-1]))
        m = (10 * (NULL_MEAN + PADDING) - padded_before) / (10 - np.arange(10))
        assert np.all(m[6:] <= 0) and np.all(m[:6] > 0)
        trace = kk_pvalue_trace(np.array(xs), 10)
        assert np.all(trace[6:] == 0.0)
        assert independent_kk(xs, 10)[6:] == [0.0] * 4
        assert trace.tolist() == per_draw_trace(xs, 10)

    def test_scalar_and_batch_traces_agree(self):
        rng = np.random.default_rng(3)
        xs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=200)
        batch = kk_pvalue_trace(xs, 500)
        assert per_draw_trace(xs, 500) == batch.tolist()
        direct = independent_kk(xs, 500)
        assert np.allclose(direct, batch, rtol=1e-12, atol=0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            _kk_chunk(np.array([-0.1]), 10, 0, _KK_START)
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.array([-1.0]), 10)
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.array([1.0, np.nan, 1.0]), 10)

    def test_rejects_exhausted_population(self):
        # The last ballot of a population can be drawn; none after it.
        assert kk_pvalue_trace(np.ones(1), 1).tolist() == pytest.approx([0.6 / 1.1])
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.ones(2), 1)

    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.ones(11), 10)

    @given(arrays(np.float64, st.integers(1, 60), elements=st.floats(0, 2)))
    @settings(max_examples=100, deadline=None)
    def test_p_trace_non_increasing_and_valid(self, xs):
        p = kk_pvalue_trace(xs, 100)
        assert np.all(np.diff(p) <= 1e-15)
        assert np.all((0 <= p) & (p <= 1))


def _kk_sequences():
    """Draw sequences for the chunked trace: their length, kind and seed vary."""
    lengths = st.sampled_from([1, 7, _FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1, 1280, 1281])
    kinds = st.sampled_from(["zeros", "null", "mixed", "spread", "impossible"])
    return st.tuples(lengths | st.integers(1, 3000), kinds, st.integers(0, 2**32 - 1), st.floats(0.2, 0.8))


def _kk_sequence(n, kind, seed, lean):
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "null":
        return np.full(n, NULL_MEAN)  # every factor is exactly 1: never crosses
    if kind == "mixed":
        return rng.choice([0.0, 0.5, 1.0], size=n, p=[(1 - lean) / 2, 0.5, lean / 2])
    if kind == "spread":
        return rng.uniform(0.0, 2 * lean, size=n)
    return rng.uniform(1.0, 3.0, size=n)  # padded mass passes N * (t + g): m <= 0


class TestChunkedTrace:
    @given(_kk_sequences(), st.lists(st.integers(1, 3000), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_chunks_match_whole_trace_bit_for_bit(self, seq, cuts):
        x = _kk_sequence(*seq)
        whole = kk_pvalue_trace(x, x.size)
        edges = [0, *sorted({c for c in cuts if c < x.size}), x.size]
        carry, parts = _KK_START, []
        for start, end in zip(edges, edges[1:]):
            p, carry = _kk_chunk(x[start:end], x.size, start, carry)
            parts.append(p)
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @given(
        _kk_sequences(),
        st.sampled_from([None, _FIRST_CHUNK - 2, _FIRST_CHUNK - 1, _FIRST_CHUNK, 1279, 1280]),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_crossing_equals_full_trace(self, seq, target, risk_limit):
        x = _kk_sequence(*seq)
        n = x.size
        p = kk_pvalue_trace(x, n)
        if target is not None and target < n:
            # A risk limit equal to the p-value at draw target + 1 puts the
            # crossing there, or earlier when the trace is flat before it.
            risk_limit = float(p[target])
        crossed = np.flatnonzero(p <= risk_limit)
        expected = int(crossed[0]) + 1 if crossed.size else n + 1

        calls = []

        def draws(start, end):
            calls.append((start, end))
            return x[start:end]

        assert _first_crossing(draws, n, risk_limit) == expected
        # Chunks are contiguous, and the walk ends with the chunk holding the stop.
        assert [c[0] for c in calls] == [0] + [c[1] for c in calls[:-1]]
        last_start, last_end = calls[-1]
        assert last_start < expected <= last_end if expected <= n else last_end == n


_STOP_VECTORS = json.loads((Path(__file__).parent / "data" / "stop_vectors.json").read_text())


class TestFrozenStopVectors:
    """Every trial's stop, captured before simulation traced draws in chunks."""

    def test_election1_polling(self, election1):
        stops = one_assertion_stops(PairwisePositive(0, 1), election1, AuditConfig(seed=42))
        assert stops.tolist() == _STOP_VECTORS["election1_polling_seed42"]

    def test_election3_ranked_pairs_comparison(self, election3):
        aset = method_assertions("ranked-pairs", election3)
        cfg = AuditConfig(seed=7, trials=50, style="comparison")
        stops = estimate_audit(aset, election3, cfg).stops
        assert [s.tolist() for s in stops] == _STOP_VECTORS["election3_ranked_pairs_comparison_seed7"]


def comparison_value(assertion, reported, audited, reported_mean):
    reported_value, audited_value = assorter_values(assertion, preference_matrix([reported, audited], 2))
    return _comparison_score(reported_value, audited_value, reported_mean)


class TestComparisonAssorter:
    def test_no_error_value(self):
        a = PairwisePositive(0, 1)
        assert comparison_value(a, (0,), (0,), 0.6) == pytest.approx(1 / 1.8)

    def test_maximal_overstatement(self):
        a = PairwisePositive(0, 1)
        assert comparison_value(a, (0,), (1,), 0.6) == 0.0

    def test_maximal_understatement(self):
        a = PairwisePositive(0, 1)
        assert comparison_value(a, (1,), (0,), 0.6) == pytest.approx(2 / 1.8)

    def test_requires_reportedly_true_assertion(self):
        # A reported mean of exactly 1/2 admits no comparison audit.
        tied = Election(("A", "B"), {(0,): 5, (1,): 5})
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        cfg = AuditConfig(seed=5, trials=10, style="comparison")
        with pytest.raises(ValueError, match="mean"):
            run_audit(aset, [AuditSample(audited=(0,), reported=(0,))], tied, cfg)
        est = estimate_audit(aset, tied, cfg)
        assert est.full_count_flag and est.per_assertion == (10,)
        assert est.stops[0].tolist() == [11] * 10


    def test_exact_tie_admits_no_comparison_audit(self, smith_tie_election):
        tied = RankingComparison((0, 1, 2), (1, 0, 2))  # margin 0: the mean is exactly 1/2
        aset = AssertionSet("kemeny", 0, (tied,))
        cfg = AuditConfig(seed=5, trials=10, style="comparison")
        est = estimate_audit(aset, smith_tie_election, cfg)
        assert est.full_count_flag and est.per_assertion == (6,)
        assert est.stops[0].tolist() == [7] * 10
        with pytest.raises(ValueError, match="mean"):
            run_audit(aset, [AuditSample(audited=(0, 1, 2), reported=(0, 1, 2))], smith_tie_election, cfg)


def unanimous_election(n=500):
    return Election(("A", "B"), {(0,): n})


def one_assertion_estimate(assertion, election, cfg, workers=1):
    """The estimate of a set holding just ``assertion``."""
    return estimate_audit(AssertionSet("condorcet", None, (assertion,)), election, cfg, workers=workers)


def one_assertion_asn(assertion, election, cfg, workers=1):
    return one_assertion_estimate(assertion, election, cfg, workers).per_assertion[0]


def one_assertion_stops(assertion, election, cfg, workers=1):
    return one_assertion_estimate(assertion, election, cfg, workers).stops[0]


class TestSimulation:
    def test_unanimous_assertion_certifies_fast(self):
        cfg = AuditConfig(seed=42, trials=100, error_rate=0.0)
        asn = one_assertion_asn(PairwisePositive(0, 1), unanimous_election(), cfg)
        assert asn < 20

    def test_false_assertion_needs_full_count(self):
        cfg = AuditConfig(seed=42, trials=100, error_rate=0.0)
        asn = one_assertion_asn(PairwisePositive(1, 0), unanimous_election(), cfg)
        assert asn == 500

    def test_election1_polling_regression(self, election1):
        # frozen from the first run at these exact settings
        cfg = AuditConfig(seed=42)
        asn = one_assertion_asn(PairwisePositive(0, 1), election1, cfg)
        assert asn == 5383

    def test_deterministic_across_runs_and_workers(self, election1):
        cfg = AuditConfig(seed=7, trials=60)
        a = PairwisePositive(0, 1)
        first = one_assertion_stops(a, election1, cfg)
        second = one_assertion_stops(a, election1, cfg)
        threaded = one_assertion_stops(a, election1, cfg, workers=3)
        assert np.array_equal(first, second)
        assert np.array_equal(first, threaded)
        # Estimates compare by their medians; their stop vectors take no part.
        assert one_assertion_estimate(a, election1, cfg) == one_assertion_estimate(a, election1, cfg, workers=3)

    def test_seed_changes_trials(self, election1):
        a = PairwisePositive(0, 1)
        one = one_assertion_stops(a, election1, AuditConfig(seed=1, trials=40))
        two = one_assertion_stops(a, election1, AuditConfig(seed=2, trials=40))
        assert not np.array_equal(one, two)

    def test_full_hand_count_costs_population(self, election1):
        cfg = AuditConfig(seed=0, trials=10)
        est = one_assertion_estimate(FullHandCount("tie"), election1, cfg)
        assert est.per_assertion == (8300,) and est.full_count_flag
        assert [s.tolist() for s in est.stops] == [[8301] * 10]

    def test_comparison_style_on_reportedly_false_assertion(self):
        cfg = AuditConfig(seed=5, trials=10, style="comparison")
        asn = one_assertion_asn(PairwisePositive(1, 0), unanimous_election(), cfg)
        assert asn == 500


class TestEstimate:
    def test_single_assertion_set(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        cfg = AuditConfig(seed=42, trials=100, error_rate=0.0)
        est = estimate_audit(aset, e, cfg)
        assert est.overall == est.per_assertion[0]
        assert not est.full_count_flag

    def test_full_hand_count_dominates(self, election1):
        aset = AssertionSet("smith-minimax", None, (FullHandCount("tie"),))
        est = estimate_audit(aset, election1, AuditConfig(seed=0, trials=10))
        assert est.full_count_flag
        assert est.overall == 8300
        assert est.percentage == 100.0

    def test_election3_comparison_regression(self, election3):
        # frozen from the first run at these exact settings
        aset = method_assertions("ranked-pairs", election3)
        cfg = AuditConfig(seed=7, trials=50, style="comparison")
        est = estimate_audit(aset, election3, cfg)
        assert est.per_assertion == (22, 206, 68, 40, 68)
        assert est.overall == 206
        assert round(est.percentage, 2) == 0.71

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_tables_built_once_per_set(self, election3, monkeypatch, style):
        calls = []
        build = model_module.preference_matrix

        def counting(sigs, k):
            calls.append(len(sigs))
            return build(sigs, k)

        # Every module that can build a preference matrix looks it up through one of these.
        for module in (model_module, audit_module, assertions_module, condaudit):
            if hasattr(module, "preference_matrix"):
                monkeypatch.setattr(module, "preference_matrix", counting)
        full = method_assertions("ranked-pairs", election3)
        cfg = AuditConfig(seed=7, trials=3, style=style)
        samples = load_samples(GOLDEN / "election3-samples.jsonl", election3)
        counts = []
        for size in (1, len(full.assertions)):
            aset = AssertionSet(full.method, full.winner, full.assertions[:size])
            for run in (lambda: estimate_audit(aset, election3, cfg), lambda: run_audit(aset, samples, election3, cfg)):
                calls.clear()
                run()
                counts.append(len(calls))
        assert len(full.assertions) > 1
        # An audit's second table, in comparison style, is the profile's for the reported tallies.
        audit_tables = 2 if style == "comparison" else 1
        assert counts == [1, audit_tables, 1, audit_tables]


def polling_lines(ballots, names):
    return [json.dumps({"audited": [names[c] for c in b]}) for b in ballots]


def comparison_lines(pairs, names):
    return [
        json.dumps(
            {"reported": [names[c] for c in r], "audited": [names[c] for c in a]}
        )
        for r, a in pairs
    ]


class TestRunAudit:
    def test_agreeing_samples_certify(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        samples = [AuditSample(audited=(0,)) for _ in range(50)]
        report = run_audit(aset, samples, e, AuditConfig())
        assert report.outcome == "certified"
        assert report.ballots_examined < 50
        assert all(rec.certified for rec in report.records)

    def test_zero_samples_do_not_certify(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        report = run_audit(aset, [], e, AuditConfig())
        assert report.outcome == "escalate-full-count"
        assert all(rec.p_value == 1.0 for rec in report.records)

    def test_full_hand_count_escalates_immediately(self, election1):
        aset = AssertionSet("minimax", None, (FullHandCount("tie"),))
        report = run_audit(aset, [AuditSample(audited=(0,))], election1, AuditConfig())
        assert report.outcome == "escalate-full-count"
        assert report.ballots_examined == 0

    def test_p_traces_non_increasing(self, election3):
        aset = method_assertions("ranked-pairs", election3)
        rng = np.random.default_rng(11)
        pop = expand(election3)
        order = rng.permutation(len(pop))[:400]
        samples = [AuditSample(audited=pop[i], reported=pop[i]) for i in order]
        report = run_audit(aset, samples, election3, AuditConfig(style="comparison"))
        for rec in report.records:
            diffs = np.diff(rec.p_trace)
            assert np.all(diffs <= 1e-15)

    def test_comparison_needs_reported_ballots(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        samples = [AuditSample(audited=(0,))]
        with pytest.raises(ValueError, match="reported"):
            run_audit(aset, samples, e, AuditConfig(style="comparison"))

    def test_comparison_rejects_reportedly_false_assertions(self):
        e = unanimous_election()
        aset = AssertionSet("x", 1, (PairwisePositive(1, 0),))
        with pytest.raises(ValueError, match="mean"):
            run_audit(aset, [AuditSample(audited=(0,), reported=(0,))], e, AuditConfig(style="comparison"))

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_matches_independent_kk(self, election3, style):
        aset = method_assertions("ranked-pairs", election3)
        samples = load_samples(GOLDEN / "election3-samples.jsonl", election3)
        cfg = AuditConfig(style=style)
        report = run_audit(aset, samples, election3, cfg)
        n = election3.total_ballots
        expected = []
        for assertion in aset.assertions:
            h2 = normalizer(assertion)
            polling = [0.5 + signed_contribution(assertion, s.audited) / h2 for s in samples]
            xs = polling
            if style == "comparison":
                mean = 0.5 + weighted_g_sum(assertion, election3) / (h2 * n)
                reported = [0.5 + signed_contribution(assertion, s.reported) / h2 for s in samples]
                xs = [(1 - (r - a)) / (2 - (2 * mean - 1)) for r, a in zip(reported, polling)]
            expected.append(independent_kk(xs, n))
        all_crossed = [i + 1 for i, ps in enumerate(zip(*expected)) if max(ps) <= cfg.risk_limit]
        examined = all_crossed[0] if all_crossed else len(samples)
        assert report.ballots_examined == examined
        assert report.certified == bool(all_crossed)
        for rec, ps in zip(report.records, expected):
            assert len(rec.p_trace) == examined
            assert np.allclose(rec.p_trace, ps[:examined], rtol=1e-12, atol=0)
            assert rec.p_value == rec.p_trace[-1]

    def test_comparison_reads_only_consumed_samples(self, election3):
        aset = method_assertions("ranked-pairs", election3)
        samples = load_samples(GOLDEN / "election3-samples.jsonl", election3)
        cfg = AuditConfig(style="comparison")
        report = run_audit(aset, samples, election3, cfg)
        stop = report.ballots_examined
        assert report.certified and stop < len(samples)
        # A sample after the stop without a reported ballot is never read ...
        after = [*samples[:stop], AuditSample(audited=samples[stop].audited), *samples[stop + 1 :]]
        assert run_audit(aset, after, election3, cfg) == report
        # ... but the audit cannot go on to its stop without the last consumed one.
        at = [*samples[: stop - 1], AuditSample(audited=samples[stop - 1].audited), *samples[stop:]]
        with pytest.raises(ValueError, match="reported"):
            run_audit(aset, at, election3, cfg)

    def test_oversized_sample_rejected(self):
        e = Election(("A", "B"), {(0,): 2})
        aset = AssertionSet("x", 0, (PairwisePositive(0, 1),))
        samples = [AuditSample(audited=(0,))] * 3
        with pytest.raises(ValueError, match="exceeds"):
            run_audit(aset, samples, e, AuditConfig())


class TestSampleFiles:
    def test_polling_lines(self, election1):
        lines = polling_lines([(0, 1), (), (2, 0, 1)], election1.candidates)
        samples = load_samples(lines, election1)
        assert [s.audited for s in samples] == [(0, 1), (), (2, 0, 1)]
        assert all(s.reported is None for s in samples)

    def test_comparison_lines(self, election1):
        lines = comparison_lines([((0, 1), (1, 0))], election1.candidates)
        samples = load_samples(lines, election1)
        assert samples[0].reported == (0, 1)
        assert samples[0].audited == (1, 0)

    def test_unknown_candidate_is_data_error(self, election1):
        with pytest.raises(ParseError) as err:
            load_samples(['{"audited": ["Z"]}'], election1)
        assert err.value.line == 1

    def test_more_samples_than_ballots_is_data_error(self):
        e = Election(("A", "B"), {(0,): 2})
        lines = polling_lines([(0,), (1,)], e.candidates)
        assert len(load_samples(lines, e)) == 2
        with pytest.raises(ParseError, match="more samples than the 2 ballots") as err:
            load_samples([*lines, "", lines[0]], e)
        assert err.value.line == 4

    def test_malformed_json_reports_line(self, election1):
        with pytest.raises(ParseError) as err:
            load_samples(['{"audited": ["A"]}', "{bad"], election1)
        assert err.value.line == 2

    def test_file_round_trip(self, tmp_path, election1):
        path = tmp_path / "samples.jsonl"
        path.write_text("\n".join(polling_lines([(0,), (1,)], election1.candidates)) + "\n")
        samples = load_samples(path, election1)
        assert len(samples) == 2


class TestAuditConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.risk_limit == 0.05
        assert cfg.error_rate == 0.002
        assert cfg.trials == 2000
        assert cfg.style == "polling"
        assert (PADDING, NULL_MEAN) == (0.1, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"risk_limit": 0.0},
            {"risk_limit": 1.0},
            {"error_rate": -0.1},
            {"error_rate": 1.0},
            {"trials": 0},
            {"style": "bayesian"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AuditConfig(**kwargs)
