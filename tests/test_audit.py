"""Tests of the risk function, ASN simulation and batch audits.

The per-trial stops frozen in ``tests/data/stop_vectors.json`` are
re-captured, after a deliberate change of the simulation's random stream, with

    PYTHONPATH=src python tests/test_audit.py --write
"""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import condaudit
from condaudit import (
    AssertionSet,
    AuditConfig,
    AuditReport,
    AuditSample,
    CapacityError,
    Election,
    InfeasibleAuditError,
    PairwisePositive,
    ParseError,
    RankingComparison,
    SampleStream,
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
    _MAX_CHUNK,
    NULL_MEAN,
    PADDING,
    _cell_scores,
    _error_cells,
    _kk_chunk,
    _kk_pvalue,
    _padded,
    _scoring,
    _walk,
)
from condaudit.ballots import parse_path, scale

from oracles import (
    expand,
    independent_kk,
    ks_statistic,
    normalizer,
    per_ballot_stops,
    reference_samples,
    signed_contribution,
    weighted_g_sum,
)

GOLDEN = Path(__file__).parent / "golden"
STOP_VECTORS = Path(__file__).parent / "data" / "stop_vectors.json"


def kk_start(rows):
    """The kernel's carries before the first draw of ``rows`` tests: padded sums and log-martingales of 0."""
    return np.zeros((2, rows))


def chunk_pvalues(x, population, start, carry, peak):
    """P-values of one chunk of the rows of ``x`` (tests by draws), continuing each test from its column of
    ``carry`` and its entry of the running ``peak``: (p, carry, peak)."""
    y, log_y = _padded(x)
    log_mart, carry = _kk_chunk(y, log_y, population, start, carry)
    peaks = np.maximum.accumulate(np.concatenate((peak[:, None], log_mart), axis=1), axis=1)[:, 1:]
    return _kk_pvalue(peaks), carry, peaks[:, -1]


def per_draw_trace(xs, population):
    """The kernel fed one draw at a time, carrying its state and running peak between draws."""
    carry, peak, out = kk_start(1), np.array([-math.inf]), []
    for i, x in enumerate(xs):
        p, carry, peak = chunk_pvalues(np.array([[x]], dtype=np.float64), population, i, carry, peak)
        out.append(float(p[0, 0]))
    return out


def as_stream(samples):
    """The run_audit input of a list of samples in draw order: each distinct sample once, and the draw order."""
    distinct = dict.fromkeys(samples)
    index = {sample: i for i, sample in enumerate(distinct)}
    return SampleStream(tuple(distinct), np.array([index[s] for s in samples], dtype=np.intp))


def in_draw_order(stream):
    """The samples of a stream, one per draw, in draw order."""
    return [stream.samples[i] for i in stream.order.tolist()]


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
        # A walk checks its table of scores once, before the kernel sees any of them.
        with pytest.raises(ValueError):
            _padded(np.array([[0.5, -0.1]]))
        for table in ([[0.5, 0.5], [1.0, -0.1]], [[0.5, np.nan]]):
            with pytest.raises(ValueError):
                _walk(np.arange, np.array(table), 10, 0.05)
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.array([-1.0]), 10)
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.array([1.0, np.nan, 1.0]), 10)

    def test_rejects_exhausted_population(self):
        # The last ballot of a population can be drawn; none after it.
        assert kk_pvalue_trace(np.ones(1), 1).tolist() == pytest.approx([0.6 / 1.1])
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.ones(2), 1)

    def test_empty_input(self):
        # An empty chunk returns no log-martingales and the carries it was given.
        given = np.array([[4.4, 0.0], [1.5, 2.0]])
        log_mart, carry = _kk_chunk(np.empty((2, 0)), np.empty((2, 0)), 10, 4, given)
        assert log_mart.shape == (2, 0) and carry.tolist() == given.tolist()
        p = kk_pvalue_trace(np.empty(0), 10)
        assert p.dtype == np.float64 and p.size == 0

    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            kk_pvalue_trace(np.ones(11), 10)

    @given(arrays(np.float64, st.integers(1, 60), elements=st.floats(0, 2)))
    @settings(max_examples=100, deadline=None)
    def test_p_trace_non_increasing_and_valid(self, xs):
        p = kk_pvalue_trace(xs, 100)
        assert np.all(np.diff(p) <= 1e-15)
        assert np.all((0 <= p) & (p <= 1))


_KINDS = ["zeros", "null", "mixed", "spread", "impossible"]


def _kk_sequences():
    """Draw sequences for the chunked trace: their length, kind and seed vary."""
    capped = _FIRST_CHUNK + 1024 + 4096 + _MAX_CHUNK  # where the walk's first capped chunk ends
    lengths = st.sampled_from(
        [1, 7, _FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1, 1280, 1281, capped - 1, capped, capped + 1, 30_000]
    )
    kinds = st.sampled_from(_KINDS)
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
        # The sequence is walked in chunks beside its reverse, each a row of one kernel call.
        x = _kk_sequence(*seq)
        rows = np.stack((x, x[::-1]))
        edges = [0, *sorted({c for c in cuts if c < x.size}), x.size]
        carry, peak, parts = kk_start(2), np.full(2, -math.inf), []
        for start, end in zip(edges, edges[1:]):
            p, carry, peak = chunk_pvalues(rows[:, start:end], x.size, start, carry, peak)
            parts.append(p)
        chunked = np.concatenate(parts, axis=1)
        for row, alone in zip(chunked, rows):
            assert row.tobytes() == kk_pvalue_trace(alone, x.size).tobytes()

    @given(
        _kk_sequences(),
        st.sampled_from([None, _FIRST_CHUNK - 2, _FIRST_CHUNK - 1, _FIRST_CHUNK, 1279, 1280, 5375, 5376, 13567, 13568]),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_crossing_equals_full_trace(self, seq, target, risk_limit):
        x = _kk_sequence(*seq)
        if target is not None and target < x.size:
            # A risk limit equal to the p-value at draw target + 1 puts the
            # crossing there, or earlier when the trace is flat before it.
            risk_limit = float(kk_pvalue_trace(x, x.size)[target])
        check_first_crossing(x, risk_limit)

    @given(
        st.lists(
            st.tuples(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1), st.floats(0.2, 0.8)), min_size=1, max_size=4
        ),
        st.sampled_from([1, _FIRST_CHUNK - 1, 1281, 5377, 13_569, 20_000]),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_shared_walk_crosses_each_where_its_own_trace_does(self, kinds, n, risk_limit):
        check_first_crossings([_kk_sequence(n, *kind) for kind in kinds], risk_limit)

    @given(
        st.integers(1, 100),
        st.integers(1, 6),
        st.sampled_from([1, 100, _FIRST_CHUNK - 1, 1281, 5377, 13_569]) | st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.integers(-2, 1) | st.none(),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_walk_crosses_each_row_where_its_own_trace_does(self, rows, cells, n, seed, offset, risk_limit):
        # Rows of random cell scores, walked together over random draws of the cells.  Copies of the
        # first row cross in the same slice as it does, rows of the null mean never cross, and N may
        # be below the first chunk.
        rng = np.random.default_rng(seed)
        table = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(rows, cells))
        table[0] = rng.choice([0.5, 0.75, 1.0], size=cells)
        table[rng.random(rows) < 0.3] = table[0]
        table[rng.random(rows) < 0.2] = NULL_MEAN
        items = rng.integers(0, cells, size=n)
        # The first kernel slice takes _MAX_CHUNK // rows draws: a risk limit equal to the first row's
        # p-value at the draw ``offset`` past that edge puts its crossing there, or earlier when its
        # trace is flat before it.
        target = min(_MAX_CHUNK // rows, _FIRST_CHUNK) + (offset or 0)
        if offset is not None and 0 <= target < n:
            risk_limit = float(kk_pvalue_trace(table[0][items], n)[target])
        check_first_crossings(table, risk_limit, items)

    @pytest.mark.parametrize("kind", ["zeros", "null", "mixed", "spread", "impossible"])
    def test_first_crossing_at_risk_limits_zero_and_one(self, kind):
        x = _kk_sequence(20_000, kind, 5, 0.7)
        # Every p-value is at most 1; a risk limit of 0 takes only p = 0.
        assert check_first_crossing(x, 1.0) == 1
        stop = check_first_crossing(x, 0.0)
        assert (stop == x.size + 1) == (kind in ("zeros", "null"))


def check_first_crossing(x, risk_limit):
    """Assert that the chunked walk over ``x`` stops where its full trace first crosses; return the stop."""
    return check_first_crossings([x], risk_limit)[0]


def check_first_crossings(xs, risk_limit, items=None):
    """Assert that one chunked walk over the rows of ``xs`` (tests by cells), drawing the cells ``items``
    (default: every cell once, in order), stops each row where the full trace of its own draws first
    crosses, and draws no chunk after the last of those; and that the same walk with a trace gives the
    same stops and, bit for bit, each row's full trace up to the end of the slice of the last stop.
    Return the stops."""
    xs = np.asarray(xs, dtype=np.float64)
    items = np.arange(xs.shape[1]) if items is None else items
    n = items.size
    expected = []
    for x in xs:
        crossed = np.flatnonzero(kk_pvalue_trace(x[items], n) <= risk_limit)
        expected.append(int(crossed[0]) + 1 if crossed.size else n + 1)

    calls = []

    def draws(start, end):
        calls.append((start, end))
        return items[start:end]

    stops, untraced = _walk(draws, xs, n, risk_limit)
    assert stops.tolist() == expected and untraced is None
    # Chunks are contiguous and capped, and the walk ends with the chunk holding the last stop.
    assert [c[0] for c in calls] == [0] + [c[1] for c in calls[:-1]]
    assert max(end - start for start, end in calls) <= _MAX_CHUNK
    last_start, last_end = calls[-1]
    assert last_start < max(expected) <= last_end if max(expected) <= n else last_end == n

    stops, traced = _walk(lambda start, end: items[start:end], xs, n, risk_limit, n, trace=True)
    assert stops.tolist() == expected
    walked = traced.shape[1]
    assert min(max(expected), n) <= walked <= n and (walked == n or walked - max(expected) < _MAX_CHUNK)
    for x, row in zip(xs, traced):
        assert row.tobytes() == kk_pvalue_trace(x[items], n)[:walked].tobytes()
    return expected


def _stop_vector_cases(election1, election3):
    """The frozen cases of ``tests/data/stop_vectors.json``: each name and a function computing its stops now."""
    x8 = scale(election1, 8)
    return {
        "election1_polling_seed42": lambda: one_assertion_stops(
            PairwisePositive(0, 1), election1, AuditConfig(seed=42)
        ).tolist(),
        "election3_ranked_pairs_comparison_seed7": lambda: method_stops(
            "ranked-pairs", election3, AuditConfig(seed=7, trials=50, style="comparison")
        ),
        # Polling trials stop near 43,700 of N = 66,400: the walk reaches capped chunks.
        "election1x8_ranked_pairs_polling_alpha001_seed1": lambda: method_stops(
            "ranked-pairs", x8, AuditConfig(risk_limit=0.01, seed=1, trials=11)
        ),
    }


def method_stops(method, election, cfg):
    return [s.tolist() for s in estimate_audit(method_assertions(method, election), election, cfg).stops]


class TestFrozenStopVectors:
    """Every trial's stop, as captured by this module's ``--write`` mode."""

    @pytest.fixture(scope="class")
    def frozen(self):
        return json.loads(STOP_VECTORS.read_text())

    def check(self, name, frozen, election1, election3):
        assert _stop_vector_cases(election1, election3)[name]() == frozen[name]

    def test_election1_polling(self, frozen, election1, election3):
        self.check("election1_polling_seed42", frozen, election1, election3)

    def test_election3_ranked_pairs_comparison(self, frozen, election1, election3):
        self.check("election3_ranked_pairs_comparison_seed7", frozen, election1, election3)

    def test_election1_x8_ranked_pairs_polling(self, frozen, election1, election3):
        self.check("election1x8_ranked_pairs_polling_alpha001_seed1", frozen, election1, election3)


def comparison_value(assertion, reported, audited, reported_mean):
    """The comparison score of one (reported, audited) cell: entry (0, 0) of a one-assertion, one-cell matrix."""
    values = assorter_values(assertion, preference_matrix([reported, audited], 2))
    scores = _cell_scores(values[None], np.array([reported_mean]), np.array([0]), np.array([1]), "comparison")
    assert scores.shape == (1, 1)
    return scores[0, 0]


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
        with pytest.raises(InfeasibleAuditError, match="mean"):
            run_audit(aset, as_stream([AuditSample(audited=(0,), reported=(0,))]), tied, cfg)
        est = estimate_audit(aset, tied, cfg)
        assert est.full_count_flag and est.per_assertion == (10,)
        assert est.stops[0].tolist() == [11] * 10


    def test_comparison_audits_keep_the_risk_limit_on_a_true_tie(self):
        # Guard: the reported profile is 600 x A>B>C>D and 400 x B>A>D>C, but 100 of the first are truly
        # B>A>D>C, so every claim below has a reported margin above 0 and a true margin of exactly 0.  Scored
        # at h = d (1, 2, and 1 and 2 discordant pairs), each certifies at most at the risk limit.
        first, second = (0, 1, 2, 3), (1, 0, 3, 2)
        election = Election(("A", "B", "C", "D"), {first: 600, second: 400})
        claims = (
            PairwisePositive(0, 1),
            ScoreComparison((0, 1), (3, 2)),
            RankingComparison(first, (1, 0, 2, 3)),
            RankingComparison(first, second),
        )
        aset = AssertionSet("x", 0, claims)
        cfg = AuditConfig(style="comparison")
        cells = [AuditSample(first, first), AuditSample(second, first), AuditSample(second, second)]
        drawn = np.repeat(np.arange(3), [500, 100, 400])
        rng, runs = np.random.default_rng(2029), 1000
        certified = np.zeros(len(claims))
        for _ in range(runs):
            report = run_audit(aset, SampleStream(tuple(cells), rng.permutation(drawn)), election, cfg)
            certified += [record.certified for record in report.records]
        bound = cfg.risk_limit + 3 * math.sqrt(cfg.risk_limit * (1 - cfg.risk_limit) / runs)
        assert (certified / runs <= bound).all(), certified / runs

    def test_exact_tie_admits_no_comparison_audit(self, smith_tie_election):
        tied = RankingComparison((0, 1, 2), (1, 0, 2))  # margin 0: the mean is exactly 1/2
        aset = AssertionSet("kemeny", 0, (tied,))
        cfg = AuditConfig(seed=5, trials=10, style="comparison")
        est = estimate_audit(aset, smith_tie_election, cfg)
        assert est.full_count_flag and est.per_assertion == (6,)
        assert est.stops[0].tolist() == [7] * 10
        with pytest.raises(InfeasibleAuditError, match="mean"):
            run_audit(aset, as_stream([AuditSample(audited=(0, 1, 2), reported=(0, 1, 2))]), smith_tie_election, cfg)


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
        # frozen at these exact settings when trials moved to signature counts and one stream per trial
        cfg = AuditConfig(seed=42)
        asn = one_assertion_asn(PairwisePositive(0, 1), election1, cfg)
        assert asn == 5371

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

    def test_seed_is_taken_as_given(self, election1):
        # Seeds 2**64 apart name two streams: none is folded onto another.
        a = PairwisePositive(0, 1)
        low = one_assertion_stops(a, election1, AuditConfig(seed=0, trials=40))
        high = one_assertion_stops(a, election1, AuditConfig(seed=1 << 64, trials=40))
        assert not np.array_equal(low, high)

    def test_full_hand_count_costs_population(self, election1):
        cfg = AuditConfig(seed=0, trials=10)
        est = estimate_audit(AssertionSet("condorcet", None, escalation="tie"), election1, cfg)
        assert est.per_assertion == () and est.full_count_flag
        assert est.overall == 8300
        assert est.stops == ()

    def test_comparison_style_on_reportedly_false_assertion(self):
        cfg = AuditConfig(seed=5, trials=10, style="comparison")
        asn = one_assertion_asn(PairwisePositive(1, 0), unanimous_election(), cfg)
        assert asn == 500


_SILENT = "ROADMAP item 5: a median that never certifies escalates"


class TestSilentCertification:
    """Estimates that report a certification no trial reached; each must escalate."""

    @pytest.mark.xfail(strict=True, reason=_SILENT)
    def test_median_stop_past_the_population(self, election1):
        # Nearly every ballot misread: no trial certifies, and the median of N + 1 reads as N = 8,300.
        cfg = AuditConfig(trials=3, error_rate=0.99999)
        assert estimate_audit(method_assertions("condorcet", election1), election1, cfg).full_count_flag

    @pytest.mark.xfail(strict=True, reason=_SILENT)
    def test_kemeny_polling_without_ballots(self):
        # No ballot to draw: every stop is N + 1 = 1, read as N = 0. Comparison style already escalates.
        e = Election(tuple("ABC"), {})
        assert estimate_audit(method_assertions("kemeny", e), e, AuditConfig(trials=3)).full_count_flag


class TestSimulationModel:
    """The count-based trial against the per-ballot model it samples, and its shared stream."""

    @pytest.mark.parametrize(
        "style, trials, method",
        [("polling", 300, "condorcet"), ("comparison", 150, "ranked-pairs"), ("comparison", 150, "kemeny")],
        ids=["polling-300", "comparison-150", "kemeny-comparison-150"],
    )
    def test_stops_follow_the_per_ballot_model(self, election1, election3, style, trials, method):
        # election1's s(A,B) > 0 in polling style, election3's Ranked Pairs set and election1's Kemeny set
        # (ranking comparisons of one to three discordant pairs) in comparison style.
        if method == "condorcet":
            election, aset = election1, AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        elif method == "ranked-pairs":
            election, aset = election3, method_assertions("ranked-pairs", election3)
        else:
            election, aset = election1, method_assertions("kemeny", election1)
        cfg = AuditConfig(seed=11, trials=trials, style=style)
        stops = estimate_audit(aset, election, cfg).stops
        reference = per_ballot_stops(aset.assertions, election, cfg, np.random.default_rng(5))
        # Two-sample KS test at level 0.001 (conservative for stops that tie).
        critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / trials)
        for ours, theirs in zip(stops, reference):
            assert ks_statistic(ours, theirs) <= critical

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_stops_do_not_depend_on_the_rest_of_the_set(self, election3, style):
        aset = method_assertions("ranked-pairs", election3)
        cfg = AuditConfig(seed=3, trials=12, style=style)
        whole = estimate_audit(aset, election3, cfg).stops
        flipped = estimate_audit(AssertionSet(aset.method, aset.winner, aset.assertions[::-1]), election3, cfg).stops
        assert len(whole) > 2
        for i, assertion in enumerate(aset.assertions):
            alone = one_assertion_stops(assertion, election3, cfg)
            assert alone.tolist() == whole[i].tolist() == flipped[-1 - i].tolist()

    # At rate 0.5 nearly every one of election3's 42 misread cells holds ballots, at 0.0005 few do.
    @pytest.mark.parametrize("error_rate", [0.5, 0.0005])
    def test_a_walk_to_n_draws_every_ballot_once(self, election3, monkeypatch, error_rate):
        tables, drawn = [], []
        error_cells, walk = audit_module._error_cells, audit_module._walk

        def recording_cells(*args):
            tables.append(error_cells(*args))
            return tables[-1]

        def walk_to_n(draws, scores, population, risk_limit):
            def recording(start, end):
                drawn[-1].append(draws(start, end))
                return drawn[-1][-1]

            drawn.append([])
            # Zeros never take the p-value to 0: the walk draws all N.
            stops, _ = walk(recording, [np.zeros(tables[-1][2].size)], population, 0.0)
            return np.tile(stops, len(scores)), None

        monkeypatch.setattr(audit_module, "_error_cells", recording_cells)
        monkeypatch.setattr(audit_module, "_walk", walk_to_n)
        n = election3.total_ballots
        cfg = AuditConfig(seed=2, trials=6, error_rate=error_rate)
        est = one_assertion_estimate(PairwisePositive(0, 1), election3, cfg)
        assert est.stops[0].tolist() == [n + 1] * 6
        _, counts, _, _ = _scoring(AssertionSet("x", 0), election3, "polling")
        misread = 0
        for (reported, audited, cells), items in zip(tables, drawn):
            assert np.bincount(np.concatenate(items), minlength=cells.size).tolist() == cells.tolist()
            assert np.bincount(reported, weights=cells, minlength=counts.size).tolist() == counts.tolist()
            pairs = list(zip(reported.tolist(), audited.tolist()))
            assert len(set(pairs)) == len(pairs) and (cells >= 0).all()
            misread += int(cells[reported != audited].sum())
        assert misread > 0

    @pytest.mark.parametrize("error_rate", [0.05, 0.0005])
    def test_error_cells_mean_is_the_per_ballot_rate(self, error_rate):
        # Per-cell means of the misread table over many trials, against c_s * rate / (S - 1).
        counts = np.array([900, 40, 3000, 7, 600], dtype=np.int64)
        s, trials = counts.size, 4000
        rng = np.random.default_rng(21)
        total = np.zeros((s, s))
        for _ in range(trials):
            reported, audited, cells = _error_cells(counts, error_rate, rng)
            np.add.at(total, (reported, audited), cells)
        expected = np.outer(counts, np.full(s, error_rate / (s - 1))) * trials
        np.fill_diagonal(expected, counts * (1 - error_rate) * trials)
        assert np.all(np.abs(total - expected) <= 5 * np.sqrt(expected) + 1e-9)

    @given(
        st.lists(st.integers(0, 200), min_size=2, max_size=9),
        st.floats(0, 0.9),
        st.sampled_from([1, 2, 3, 7, 64, 777]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocked_error_cells_equal_the_one_shot_table(self, counts, error_rate, block, seed):
        # Targets drawn in blocks of a few ballots give the table, and leave the stream, as one draw of all.
        counts = np.array(counts, dtype=np.int64)
        one_shot_rng, blocked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = one_shot_error_cells(counts, error_rate, one_shot_rng)
        with mock.patch.object(audit_module, "_TARGET_BLOCK", block):
            table = _error_cells(counts, error_rate, blocked_rng)
        for ours, theirs in zip(table, expected):
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        assert blocked_rng.random() == one_shot_rng.random()

    def test_error_cells_memory_follows_the_table(self):
        # 60,000,000 ballots of 3 signatures, half of them misread: one array of their 30,000,000
        # targets takes 229 MiB, and drawing them at once needs several.  The blocked table needs one
        # block of them, within a 512 MiB address space.
        code = (
            "import numpy as np; from condaudit.audit import _error_cells; "
            "r, a, c = _error_cells(np.array([20_000_000] * 3), 0.5, np.random.default_rng(1)); "
            "print(r.size, int(c.sum()), int(c[3:].sum()))"
        )
        cap = 512 << 20
        src = str(Path(condaudit.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        cells, ballots, misread = map(int, proc.stdout.split())
        assert (cells, ballots) == (9, 60_000_000) and abs(misread - 30_000_000) < 30_000


def one_shot_error_cells(counts, error_rate, rng):
    """The error table with every misread ballot's target drawn at once, in memory that grows with them."""
    s = counts.size
    sigs = np.arange(s)
    errors = rng.binomial(counts, error_rate)
    reported = np.repeat(sigs, errors)
    keys, sent = np.unique(reported * (s - 1) + rng.integers(0, s - 1, size=reported.size), return_counts=True)
    reported, other = np.divmod(keys, s - 1)
    audited = other + (other >= reported)
    return np.concatenate((sigs, reported)), np.concatenate((sigs, audited)), np.concatenate((counts - errors, sent))


class TestEstimate:
    def test_single_assertion_set(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        cfg = AuditConfig(seed=42, trials=100, error_rate=0.0)
        est = estimate_audit(aset, e, cfg)
        assert est.overall == est.per_assertion[0]
        assert not est.full_count_flag

    def test_election_without_ballots(self):
        # Every trial of an empty population stops at N + 1 = 1, which never certifies; the ASN is 0.
        e = Election(("A", "B"), {})
        est = estimate_audit(AssertionSet("x", 0, (PairwisePositive(0, 1),)), e, AuditConfig(seed=3, trials=7))
        assert (est.per_assertion, est.overall, est.full_count_flag, est.population) == ((0,), 0, False, 0)
        assert est.stops[0].tolist() == [1] * 7

    def test_population_limit(self):
        # numpy's marginal multivariate hypergeometric draw takes fewer than 10**9 ballots.
        cfg = AuditConfig(seed=4, trials=3, style="comparison")
        below = Election(("A", "B"), {(0,): 600_000_000, (1,): 399_999_999})
        est = one_assertion_estimate(PairwisePositive(0, 1), below, cfg)
        assert est.population == 999_999_999 and est.overall < 1000
        at = Election(("A", "B"), {(0,): 600_000_000, (1,): 400_000_000})
        message = "^simulation takes fewer than 1,000,000,000 ballots; the election has 1,000,000,000$"
        with pytest.raises(CapacityError, match=message):
            one_assertion_estimate(PairwisePositive(0, 1), at, cfg)
        # Scoring counts in int64: a total of 2**63 ballots is refused before any tally is taken.
        with pytest.raises(CapacityError, match="^tallies count fewer than 2\\*\\*63 ballots"):
            one_assertion_estimate(PairwisePositive(0, 1), Election(("A", "B"), {(0,): 2**62, (1,): 2**62}), cfg)
        # A set that needs no simulated draw has no limit: an empty one, which is a full count, or only full counts.
        empty = estimate_audit(AssertionSet("x", 0), at, cfg)
        assert (empty.overall, empty.full_count_flag, empty.stops) == (10**9, True, ())
        false = one_assertion_estimate(PairwisePositive(1, 0), at, cfg)
        assert (false.overall, false.full_count_flag, false.stops[0].tolist()) == (10**9, True, [10**9 + 1] * 3)

    def test_full_hand_count_dominates(self, election1):
        aset = AssertionSet("smith-minimax", None, escalation="tie")
        est = estimate_audit(aset, election1, AuditConfig(seed=0, trials=10))
        assert est.full_count_flag
        assert est.overall == 8300
        assert est.percentage == 100.0

    def test_empty_set_is_a_full_count(self, election1):
        # No claim shows that the winner beat anyone, unless there is no one to beat.
        cfg = AuditConfig(seed=0, trials=10)
        est = estimate_audit(AssertionSet("irv", 1), election1, cfg)
        assert (est.per_assertion, est.overall, est.full_count_flag, est.percentage) == ((), 8300, True, 100.0)
        sole = estimate_audit(AssertionSet("condorcet", 0), Election(("A",), {(0,): 7}), cfg)
        assert (sole.per_assertion, sole.overall, sole.full_count_flag) == ((), 0, False)

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
            rankings = sum(len(plus) + len(minus) for plus, minus, _ in (a.claim() for a in aset.assertions))
            for run in (lambda: estimate_audit(aset, election3, cfg), lambda: run_audit(aset, samples, election3, cfg)):
                calls.clear()
                run()
                counts.append(len(calls))
                assert rankings in calls
        assert len(full.assertions) > 1
        # One matrix for the signature table, whose rows give the reported tallies too (the audit's holds the
        # profile and the sample), and one for all the set's claims.
        assert counts == [2, 2, 2, 2]

    def test_walk_takes_every_assertion_in_one_kernel_call(self, election3, monkeypatch):
        aset = method_assertions("kemeny", election3)
        chunks, values = [], []
        kernel, walk = audit_module._kk_chunk, audit_module._walk

        def counting_kernel(*args):
            values.append(args[0].size)
            return kernel(*args)

        def counting_walk(draws, *args):
            def counted(start, end):
                chunks.append(end - start)
                return draws(start, end)

            return walk(counted, *args)

        monkeypatch.setattr(audit_module, "_kk_chunk", counting_kernel)
        monkeypatch.setattr(audit_module, "_walk", counting_walk)
        # Polling trials walk three of the 18 assertions to about 27,000 draws, through capped chunks.
        estimate_audit(aset, election3, AuditConfig(seed=7, trials=10))
        assert len(aset.assertions) == 18 and max(chunks) == _MAX_CHUNK
        # One call walks every assertion still walking, so calls do not scale with the assertions:
        # each but the last slice of a drawn chunk holds more than half of _MAX_CHUNK values.
        assert len(values) <= len(chunks) + sum(values) / (_MAX_CHUNK / 2)
        assert max(values) <= _MAX_CHUNK

    def test_estimate_and_audit_walk_through_one_walker(self, election3, monkeypatch):
        # Simulated trials, a batch audit and a public p-value trace all walk through _walk, and the
        # kernel is never called outside it.
        walks, inside = [], []
        kernel, walk = audit_module._kk_chunk, audit_module._walk

        def checked_kernel(*args):
            assert inside, "a kernel call outside the walker"
            return kernel(*args)

        def recording_walk(*args, trace=False):
            walks.append(trace)
            inside.append(True)
            try:
                return walk(*args, trace=trace)
            finally:
                inside.pop()

        monkeypatch.setattr(audit_module, "_kk_chunk", checked_kernel)
        monkeypatch.setattr(audit_module, "_walk", recording_walk)
        aset = method_assertions("ranked-pairs", election3)
        cfg = AuditConfig(seed=7, trials=4, style="comparison")
        estimate_audit(aset, election3, cfg)
        assert walks == [False] * 4
        report = run_audit(aset, load_samples(GOLDEN / "election3-samples.jsonl", election3), election3, cfg)
        assert report.certified and walks == [False] * 4 + [True]
        kk_pvalue_trace(np.full(300, 0.7), 1000)
        assert walks == [False] * 4 + [True, True]


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
        report = run_audit(aset, as_stream(samples), e, AuditConfig())
        assert report.outcome == "certified"
        assert report.ballots_examined < 50
        assert all(rec.certified for rec in report.records)

    def test_zero_samples_do_not_certify(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        report = run_audit(aset, as_stream([]), e, AuditConfig())
        assert report.outcome == "escalate-full-count"
        assert all(rec.p_value == 1.0 for rec in report.records)

    def test_full_hand_count_escalates_immediately(self, election1):
        aset = AssertionSet("minimax", None, escalation="tie")
        report = run_audit(aset, as_stream([AuditSample(audited=(0,))]), election1, AuditConfig())
        assert report.outcome == "escalate-full-count"
        assert report.ballots_examined == 0
        assert report.records == ()

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_empty_set_escalates_at_zero(self, style):
        # No claim shows that A beat B, so the set certifies nothing; with one candidate there is no one to beat.
        aset = AssertionSet("x", 0, ())
        samples = [AuditSample(audited=(0,), reported=(0,))] * 5
        report = run_audit(aset, as_stream(samples), unanimous_election(), AuditConfig(style=style))
        assert report == AuditReport("escalate-full-count", 0, 0.05, ())
        sole = Election(("A",), {(0,): 500})
        assert run_audit(aset, as_stream(samples), sole, AuditConfig(style=style)) == AuditReport(
            "certified", 0, 0.05, ())

    def test_p_traces_non_increasing(self, election3):
        aset = method_assertions("ranked-pairs", election3)
        rng = np.random.default_rng(11)
        pop = expand(election3)
        order = rng.permutation(len(pop))[:400]
        samples = [AuditSample(audited=pop[i], reported=pop[i]) for i in order]
        report = run_audit(aset, as_stream(samples), election3, AuditConfig(style="comparison"))
        for rec in report.records:
            diffs = np.diff(rec.p_trace)
            assert np.all(diffs <= 1e-15)

    def test_comparison_needs_reported_ballots(self):
        e = unanimous_election()
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        samples = [AuditSample(audited=(0,))]
        with pytest.raises(ValueError, match="reported"):
            run_audit(aset, as_stream(samples), e, AuditConfig(style="comparison"))

    def test_data_faults_are_parse_errors(self):
        e = unanimous_election(3)
        aset = AssertionSet("condorcet", 0, (PairwisePositive(0, 1),))
        with pytest.raises(ParseError, match="^comparison audits need a reported ballot per sample$"):
            run_audit(aset, as_stream([AuditSample(audited=(0,))]), e, AuditConfig(style="comparison"))
        with pytest.raises(ParseError, match="^sample of 4 exceeds the population of 3 ballots$"):
            run_audit(aset, as_stream([AuditSample(audited=(0,))] * 4), e, AuditConfig())

    def test_comparison_rejects_reportedly_false_assertions(self):
        e = unanimous_election()
        aset = AssertionSet("x", 1, (PairwisePositive(1, 0),))
        with pytest.raises(InfeasibleAuditError, match="mean"):
            run_audit(aset, as_stream([AuditSample(audited=(0,), reported=(0,))]), e, AuditConfig(style="comparison"))

    # Swapped, the golden sample's 14 audited ballots outside the profile are reported ones.
    @pytest.mark.parametrize(
        "style, swapped",
        [("polling", False), ("comparison", False), ("comparison", True)],
        ids=["polling", "comparison", "comparison-reported-outside-profile"],
    )
    def test_matches_independent_kk(self, election3, style, swapped):
        aset = method_assertions("ranked-pairs", election3)
        samples = in_draw_order(load_samples(GOLDEN / "election3-samples.jsonl", election3))
        if swapped:
            samples = [AuditSample(audited=s.reported, reported=s.audited) for s in samples]
            assert any(s.reported not in election3.profile for s in samples)
        cfg = AuditConfig(style=style)
        report = run_audit(aset, as_stream(samples), election3, cfg)
        n = election3.total_ballots
        expected = []
        for assertion in aset.assertions:
            h2 = normalizer(assertion, style)
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
        samples = in_draw_order(load_samples(GOLDEN / "election3-samples.jsonl", election3))
        cfg = AuditConfig(style="comparison")
        report = run_audit(aset, as_stream(samples), election3, cfg)
        stop = report.ballots_examined
        assert report.certified and stop < len(samples)
        assert all(len(rec.p_trace) == stop for rec in report.records)
        # A sample without a reported ballot is a data error, at the stop or after it.
        for i in (stop - 1, stop):
            missing = [*samples[:i], AuditSample(audited=samples[i].audited), *samples[i + 1 :]]
            with pytest.raises(ParseError, match="^comparison audits need a reported ballot per sample$"):
                run_audit(aset, as_stream(missing), election3, cfg)

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_a_stream_is_scored_as_its_distinct_cells(self, election1, tmp_path, monkeypatch, style):
        # All 8,300 ballots of election1, of 4 signatures, in a random order: the audit builds its table
        # from the 4 distinct samples and scores 4 cells, once each.
        ballots = expand(election1)
        drawn = [ballots[i] for i in np.random.default_rng(4).permutation(len(ballots))]
        names = election1.candidates
        lines = comparison_lines(zip(drawn, drawn), names) if style == "comparison" else polling_lines(drawn, names)
        stream = load_samples(sample_file(tmp_path, lines), election1)
        assert (len(stream.samples), stream.order.size) == (4, 8300)
        sampled, cells = [], []
        scoring, cell_scores = audit_module._scoring, audit_module._cell_scores

        def recording_scoring(aset, election, style, ballots=()):
            sampled.append(list(ballots))
            return scoring(aset, election, style, sampled[-1])

        def recording_cells(values, means, reported, audited, style):
            cells.append((len(reported), len(audited)))
            return cell_scores(values, means, reported, audited, style)

        monkeypatch.setattr(audit_module, "_scoring", recording_scoring)
        monkeypatch.setattr(audit_module, "_cell_scores", recording_cells)
        aset = method_assertions("ranked-pairs", election1)
        report = run_audit(aset, stream, election1, AuditConfig(risk_limit=0.01, style=style))
        assert report.certified
        assert [len(s) for s in sampled] == [8 if style == "comparison" else 4] and cells == [(4, 4)]

    def test_result_arrays_are_read_only(self, election3):
        aset = method_assertions("ranked-pairs", election3)
        est = estimate_audit(aset, election3, AuditConfig(trials=3))
        stream = load_samples(GOLDEN / "election3-samples.jsonl", election3)
        report = run_audit(aset, stream, election3, AuditConfig())
        assert report.ballots_examined > 0
        for array in (est.stops[0], stream.order, report.records[0].p_trace):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_oversized_sample_rejected(self):
        e = Election(("A", "B"), {(0,): 2})
        aset = AssertionSet("x", 0, (PairwisePositive(0, 1),))
        samples = [AuditSample(audited=(0,))] * 3
        with pytest.raises(ValueError, match="exceeds"):
            run_audit(aset, as_stream(samples), e, AuditConfig())


# Sample lines for the loader's reference property: faulty ones, blank ones, and valid polling and
# comparison lines over the candidates A, B and C.
_SAMPLE_LINES = [
    "{bad",
    "[1]",
    '"audited"',
    '{"audited": "A"}',
    '{"audited": [1]}',
    '{"audited": ["Z"]}',
    '{"audited": ["A", "A"]}',
    '{"reported": ["A"]}',
    '{"audited": ["A"], "reported": ["Q"]}',
    '{"audited": ["B"], "reported": "A"}',
    '{"audited": ["Z"], "reported": ["A", "A"]}',
    '{"audited": ["A"], "audited": ["B"]}',
    '{"audited": ["A"], "reported": ["B"], "reported": ["A"]}',
]
_BLANK_LINES = ["", " ", " \t", "\r", "\u2028"]
_BALLOTS = st.lists(st.sampled_from("ABC"), unique=True)
_GOOD_LINES = _BALLOTS.map(lambda b: json.dumps({"audited": b})) | st.tuples(_BALLOTS, _BALLOTS).map(
    lambda pair: json.dumps({"reported": pair[0], "audited": pair[1]})
)


def sample_file(tmp_path, lines):
    """A sample file holding ``lines``, one per line."""
    path = tmp_path / "samples.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSampleFiles:
    def test_polling_lines(self, tmp_path, election1):
        lines = polling_lines([(0, 1), (), (2, 0, 1)], election1.candidates)
        samples = in_draw_order(load_samples(sample_file(tmp_path, lines), election1))
        assert [s.audited for s in samples] == [(0, 1), (), (2, 0, 1)]
        assert all(s.reported is None for s in samples)

    def test_comparison_lines(self, tmp_path, election1):
        lines = comparison_lines([((0, 1), (1, 0))], election1.candidates)
        samples = in_draw_order(load_samples(sample_file(tmp_path, lines), election1))
        assert samples[0].reported == (0, 1)
        assert samples[0].audited == (1, 0)

    def test_unknown_candidate_is_data_error(self, tmp_path, election1):
        with pytest.raises(ParseError) as err:
            load_samples(sample_file(tmp_path, ['{"audited": ["Z"]}']), election1)
        assert err.value.line == 1

    def test_more_samples_than_ballots_is_data_error(self, tmp_path, monkeypatch):
        e = Election(("A", "B"), {(0,): 2})
        lines = polling_lines([(0,), (1,)], e.candidates)
        assert len(load_samples(sample_file(tmp_path, lines), e).order) == 2
        with pytest.raises(ParseError, match="more samples than the 2 ballots") as err:
            load_samples(sample_file(tmp_path, [*lines, "", lines[0]]), e)
        assert err.value.line == 4
        # Whitespace-only lines are blank wherever they fall, and are not samples.
        assert len(load_samples(sample_file(tmp_path, [" \t", *lines, " \t", "", " \t"]), e).order) == 2
        with pytest.raises(ParseError, match="more samples than the 2 ballots") as err:
            load_samples(sample_file(tmp_path, [*lines, " \t", lines[1]]), e)
        assert err.value.line == 4
        # No line past the N-th distinct sample is parsed: the count fails at or before it.
        parsed, parse = [], audit_module._parse_sample
        monkeypatch.setattr(audit_module, "_parse_sample", lambda line, index: parsed.append(line) or parse(line, index))
        with pytest.raises(ParseError, match="more samples than the 2 ballots") as err:
            load_samples(sample_file(tmp_path, polling_lines([(0,), (1,), (0, 1), (1, 0)], e.candidates)), e)
        assert err.value.line == 3 and len(parsed) == 2
        # The budget counts distinct lines, not distinct samples: here three spellings of one sample.
        parsed.clear()
        with pytest.raises(ParseError, match="more samples than the 2 ballots") as err:
            load_samples(sample_file(tmp_path, ['{"audited": ["A"]}', '{"audited":["A"]}', '{"audited":  ["A"]}']), e)
        assert err.value.line == 3 and len(parsed) == 2

    def test_line_without_audited_is_data_error(self, tmp_path, election1):
        with pytest.raises(ParseError) as err:
            load_samples(sample_file(tmp_path, ['{"audited": ["A"]}', '{"reported": ["A"]}']), election1)
        assert str(err.value) == "line 2: each sample needs an 'audited' ballot"

    def test_malformed_json_reports_line(self, tmp_path, election1):
        with pytest.raises(ParseError) as err:
            load_samples(sample_file(tmp_path, ['{"audited": ["A"]}', "{bad"]), election1)
        assert err.value.line == 2

    def test_file_round_trip(self, tmp_path, election1):
        path = tmp_path / "samples.jsonl"
        path.write_text("\n".join(polling_lines([(0,), (1,)], election1.candidates)) + "\n")
        samples = load_samples(path, election1)
        assert len(samples.order) == 2

    @given(
        st.lists(st.sampled_from(_SAMPLE_LINES) | st.sampled_from(_BLANK_LINES) | _GOOD_LINES, max_size=8).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=40) if pool else st.just([])
        ),
        st.integers(0, 30),
        st.booleans(),
    )
    @example(['{"audited": ["A"]}'] * 3 + ["{bad"], 2, True)  # more lines than ballots before a bad line
    @example(["{bad"] + ['{"audited": ["A"]}'] * 3, 2, True)  # and after it
    @example(['{"audited": ["A"]}', " ", '{"audited": ["A"]}', '{"audited": ["Z"]}'], 2, False)  # at it
    @example(['{"audited": ["A"]}', '{"audited": ["B"]}', '{"audited": ["A"], "reported": ["B"]}'], 5, True)
    @example(['{"audited": ["A"]}', '{"audited":["A"]}\r', '{"audited": ["A"]}'], 3, True)  # one sample, two spellings
    @example(['{"audited": ["A"]}\r{"audited": ["B"]}'], 2, True)  # a lone "\r" ends no line
    @example(['{"audited": ["A"]}', '{"audited": ["A"], "audited": ["B"]}'], 2, True)  # a key given twice
    @settings(max_examples=300, deadline=None)
    def test_loader_agrees_with_the_line_by_line_reference(self, tmp_path_factory, lines, total, final_newline):
        e = Election(("A", "B", "C"), {(0,): total} if total else {})
        text = "\n".join(lines) + "\n" * final_newline
        path = tmp_path_factory.mktemp("samples") / "samples.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        expected, fault = reference_samples(text, e.candidates, total)
        if fault is not None:
            with pytest.raises(ParseError) as err:
                load_samples(path, e)
            assert (str(err.value), err.value.line) == (f"line {fault[1]}: {fault[0]}", fault[1])
            return
        stream = load_samples(path, e)
        assert [(s.audited, s.reported) for s in in_draw_order(stream)] == expected
        assert len(set(stream.samples)) == len(stream.samples) and stream.order.dtype == np.intp
        # Each distinct sample appears in the order of its first draw.
        assert stream.order.size == 0 or np.array_equal(np.unique(stream.order, return_index=True)[1].argsort(),
                                                        np.arange(len(stream.samples)))

    def test_file_lines_split_on_newline_only(self, tmp_path):
        # A JSON string may hold U+2028, U+2029 and NEL raw; "\r\n" and a final newline end a line too.
        e = Election(("A\u2028x", "B\x85y\u2029"), {(0, 1): 3})
        line = json.dumps({"audited": list(e.candidates)}, ensure_ascii=False)
        path = tmp_path / "samples.jsonl"
        for text in (f"{line}\n{line}\n{line}", f"{line}\n" * 3, f"{line}\r\n" * 3):
            path.write_text(text, encoding="utf-8", newline="")
            assert [s.audited for s in in_draw_order(load_samples(path, e))] == [(0, 1)] * 3


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
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AuditConfig(**kwargs)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    elections = (parse_path(GOLDEN / f"{name}.json").election for name in ("election1", "election3"))
    cases = _stop_vector_cases(*elections)
    STOP_VECTORS.write_text(json.dumps({name: stops() for name, stops in cases.items()}) + "\n")
