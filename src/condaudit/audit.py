"""Sequential risk measurement and audit simulation.

The risk function is the Kaplan-Kolmogorov martingale test for sampling
without replacement: the hypothesis that a population of ``N`` nonnegative
values has mean at most ``t = NULL_MEAN`` (1/2) is tested by the running
product of ``(x_i + g) / m_i``, where ``g = PADDING`` (0.1) guards against
zero values and ``m_i`` is the conditional mean of the padded population under
the null given the padded mass already drawn,

    m_i = (N * (t + g) - S_{i-1}) / (N - (i - 1)).

The p-value is ``min(1, 1 / max_i M_i)``; it is non-increasing in the sample
and the draws must arrive in random order.  Once the null becomes impossible
(``m <= 0``) the p-value is 0, and it stays 0: the padded sum only grows, so
``m`` stays at or below 0 for every further draw.  One kernel computes the
test, in log space so that long samples neither overflow nor lose a vanished
product to underflow, for both simulation and audit.

Audit sample sizes (ASN) are estimated by simulation, from the election's
signature counts and never from a ballot-level population.  A trial applies
the error model (each ballot is independently misread, at a configured rate,
as a uniformly random other signature) as ``Binomial(c_s, rate)`` misread
ballots per signature ``s`` of ``c_s``, each sent to a uniformly drawn other
signature: a table of (reported, audited) cells and their ballot counts.
It then draws the ballots in a uniformly random order, in chunks that grow
to 8,192 draws: a chunk's count per cell is a multivariate hypergeometric
draw from the ballots not yet drawn, and the chunk is shuffled.  Every
assertion of the set reads the same draws, as one row of one (assertions x
draws) matrix: the kernel walks every row still walking at once, in slices
of at most ``_MAX_CHUNK`` values, and a row leaves at its first crossing of
the risk limit; drawing stops once all have crossed.  So a trial costs
O(stop + signatures + misread ballots) in time, and memory for its stop, its
table and one block of misread ballots' targets, and builds no array of N
ballots.
The per-assertion ASN is the median over trials, and a set's overall ASN is
the largest per-assertion ASN.  Before the first crossing no draw has
crossed, so the walk looks for the first draw whose own log-martingale gives
a p-value at or below the risk limit: one crossing rule, with no running
peak, for a simulated trial and a batch audit alike.  Each trial's random
stream is derived from (seed, trial index), so results are reproducible
regardless of execution order or parallelism, and an assertion's stops do
not depend on the rest of its set.  The hypergeometric draw takes fewer
than ``MAX_SIMULATED_BALLOTS`` (10**9) ballots.

Simulation and audit score through one path.  One signature table, the
profile's signatures in sorted order and then an audit's sampled ballots
that the profile lacks, at count 0, gives every assertion's assorter per
signature, as one (assertions x signatures) matrix, and its reported mean,
read exactly from the table's tallies by :func:`claim_means`, both with the
normaliser the audit's style gives the claim (:func:`normalizers`).  One cell
scorer scores (reported, audited) cells for every assertion and either
style.  Only a reported mean above 1/2 admits a comparison audit: otherwise
an estimate flags the set for a full hand count and an audit raises.

Simulation and audit walk through one walker, :func:`_walk`, which takes a
source of draws and a table of cell scores.  A sample file is a stream of
cells too: :func:`load_samples` reads it as its distinct samples, each
once, and one int array of their indices in draw order.  A batch audit
scores only those distinct (reported, audited) cells and walks the array in
the simulation's growing chunks and slices, and stops at the largest first
crossing of the risk limit.  Its traces, every assertion's running p-value
after each draw, are the running minimum of the walked draws' p-values,
taken once over the walked matrix; nothing in it works once per draw in
Python.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .ballots import ParseError, decode_json, read_text, resolve_names, roster_index
from .model import Ballot, CapacityError, Election, ballot_counts, preference_matrix
from .assertions import Assertion, AssertionSet, claim_means, claim_values, claim_weights, normalizers

AUDIT_STYLES = ("polling", "comparison")

# The fixed risk function: additive padding g and the null mean t of the KK test.
PADDING = 0.1
NULL_MEAN = 0.5


@dataclass(frozen=True)
class AuditConfig:
    """Parameters shared by estimation and audit execution.

    ``seed`` is nonnegative and names the simulation's streams as given:
    trial ``t`` draws from ``default_rng([seed, t])``.
    """

    risk_limit: float = 0.05
    error_rate: float = 0.002
    trials: int = 2000
    seed: int = 0
    style: str = "polling"

    def __post_init__(self):
        if not 0 < self.risk_limit < 1:
            raise ValueError("risk_limit must be in (0, 1)")
        if not 0 <= self.error_rate < 1:
            raise ValueError("error_rate must be in [0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.style not in AUDIT_STYLES:
            raise ValueError(f"style must be one of {AUDIT_STYLES}")


# ---------------------------------------------------------------------------
# Kaplan-Kolmogorov risk function


def _padded(x) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative values ``x`` padded, ``x + g``, and the logs of the padded values."""
    x = np.asarray(x, dtype=np.float64)
    if not (x >= 0).all():  # also rejects NaN
        raise ValueError("assorter values must be nonnegative")
    y = x + PADDING
    return y, np.log(y)


def _kk_chunk(y: np.ndarray, log_y: np.ndarray, population: int, start: int, carry: np.ndarray):
    """Log-martingales of draws ``start .. start + n - 1`` of several tests, continuing each from its carry.

    Row ``r`` of ``y`` (shape (rows, n)) holds test ``r``'s padded draws and
    ``log_y`` their logs (:func:`_padded`); ``carry[:, r]`` is its padded sum
    and log-martingale before them, zeros before the first draw.  Returns the
    log-martingales, ``+inf`` where the null is impossible, and the carries
    after the last draw.  Each running value enters its row's ``cumsum`` as
    the first element, and a ``cumsum`` along a row is sequential, so a row
    cut into chunks, or walked beside other rows, is bit-identical to one
    traced whole and alone.
    """
    sums = np.cumsum(np.concatenate((carry[0][:, None], y), axis=1), axis=1)
    m = (population * (NULL_MEAN + PADDING) - sums[:, :-1]) / (population - np.arange(start, start + y.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = log_y - np.log(m)
    marts = np.cumsum(np.concatenate((carry[1][:, None], steps), axis=1), axis=1)
    log_mart = marts[:, 1:]
    # m <= 0 persists (the padded sum only grows), so no accumulate over the mask is needed.
    log_mart[m <= 0] = np.inf
    return log_mart, np.stack((sums[:, -1], marts[:, -1]))


def _kk_pvalue(log_mart: np.ndarray) -> np.ndarray:
    """P-values ``min(1, exp(-log_mart))`` of log-martingales."""
    return np.exp(-np.maximum(log_mart, 0.0))


def kk_pvalue_trace(x: np.ndarray, population: int) -> np.ndarray:
    """P-value after each of a sequence of draws from a population of ``population`` values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size > population:
        raise ValueError("more draws than the population holds")
    return _walk(np.arange, x.reshape(1, -1), population, -np.inf, x.size, trace=True)[1][0]


# Draws walked before the first check for a crossing, the factor by which
# each further chunk grows, and the size it grows to.  The kernel takes at
# most _MAX_CHUNK values at a time (draws times tests).
_FIRST_CHUNK = 256
_CHUNK_GROWTH = 4
_MAX_CHUNK = 8192


def _walk(
    draws, scores, population: int, risk_limit: float, size: int | None = None, trace: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw count at which each of several p-values over one shared draw order first falls to ``risk_limit``.

    ``draws(a, b)`` returns the items of draws ``a .. b - 1``, of ``size``
    draws (default ``population``) from a population of ``population``
    values, and row ``i`` of the matrix ``scores`` maps an item to its value
    for test ``i``.  Draws are made in chunks that grow to ``_MAX_CHUNK``.
    Every test still walking is one row of one kernel call, which walks a
    chunk in slices of at most ``_MAX_CHUNK // rows`` draws (at least one),
    so that no call takes more than ``_MAX_CHUNK`` values, or one per row.
    Returns ``(stops, trace)``.  A test that never crosses stops at
    ``population + 1``; otherwise its stop is the first index with
    ``kk_pvalue_trace(scores[i][items], population) <= risk_limit``, plus
    one, where ``items`` are all ``size`` draws.

    The scores are checked, padded and logged once, and each slice gathers
    its draws' padded values and logs from them.  No draw before the first
    crossing crossed, so with or without a trace a draw crosses when its own
    log-martingale gives a p-value at or below the risk limit.  A row leaves,
    with its carry, at the slice in which it crosses, and drawing stops once
    every row has left.

    ``trace`` is ``None`` unless asked for; then every row walks until all
    have crossed, and ``trace`` is the (rows x draws) running minimum of the
    walked p-values: as ``exp(-max(l, 0))`` never increases with ``l``, that
    is the p-value of the running peak, bit for bit.
    """
    size = population if size is None else size
    y, log_y = _padded(scores)
    walking = np.arange(len(y))  # the tests not yet crossed; without a trace, the kernel's rows too
    stops = np.full(len(y), population + 1, dtype=np.int64)
    carry, walked = np.zeros((2, len(y))), [np.empty((len(y), 0))]
    start, chunk = 0, _FIRST_CHUNK
    while walking.size and start < size:
        end = min(start + chunk, size)
        items = draws(start, end)
        lo = 0
        while walking.size and lo < items.size:
            part = items[lo : lo + max(1, _MAX_CHUNK // len(y))]
            log_mart, carry = _kk_chunk(
                np.take(y, part, axis=1), np.take(log_y, part, axis=1), population, start + lo, carry
            )
            p = _kk_pvalue(log_mart)
            if trace:
                walked.append(p)
                p = p[walking]
            crossed = p <= risk_limit
            first = crossed.any(axis=1)
            if first.any():
                stops[walking[first]] = start + lo + crossed[first].argmax(axis=1) + 1
                keep = ~first
                walking = walking[keep]
                if not trace:
                    y, log_y, carry = y[keep], log_y[keep], carry[:, keep]
            lo += part.size
        start, chunk = end, min(chunk * _CHUNK_GROWTH, _MAX_CHUNK)
    return stops, np.minimum.accumulate(np.concatenate(walked, axis=1), axis=1) if trace else None


# ---------------------------------------------------------------------------
# Scoring: one signature table, one cell scorer


def _scoring(aset: AssertionSet, election: Election, style: str, sampled: Iterable[Ballot] = ()):
    """The signature table of an election and its sampled ballots, scored for every assertion of ``aset``.

    The table's rows are the profile's signatures in sorted order, then each
    sampled ballot the profile lacks, with count 0.  Returns each signature's
    row, each row's ballot count, the assorter of every assertion (matrix
    row) on every table row (column), and each assertion's reported mean,
    read exactly by :func:`claim_means` from the table's tallies, to which a
    count-0 row adds nothing.  Both are scored with the normaliser
    :func:`~condaudit.assertions.normalizers` gives each claim in an audit of
    ``style``.
    """
    sigs = sorted(election.profile)
    sigs += [ballot for ballot in dict.fromkeys(sampled) if ballot not in election.profile]
    counts = ballot_counts(election, sigs)
    prefs = preference_matrix(sigs, election.num_candidates)
    tallies = np.tensordot(counts, prefs, axes=1)
    weights, h = claim_weights(aset.assertions, election.num_candidates)
    h = normalizers(weights, h, style)
    values = claim_values(weights, h, prefs)
    means = claim_means(weights, h, tallies, election.total_ballots)
    return {sig: row for row, sig in enumerate(sigs)}, counts, values, means


def _cell_scores(values: np.ndarray, means: np.ndarray, reported, audited, style) -> np.ndarray:
    """Every assertion's score of (reported, audited) cells, given as columns of ``values``: shape (A, cells).

    Polling scores the audited column.  Comparison scores the overstatement
    ``(1 - w) / (2 - v)``, where ``w = a(reported) - a(audited)`` and ``v =
    2 * means[i] - 1`` is the reported margin; its population mean exceeds
    1/2 exactly when the assertion holds on the audited ballots, and only a
    reported mean above 1/2 admits it.
    """
    scores = np.take(values, audited, axis=1)
    if style == "polling":
        return scores
    return (1 - (np.take(values, reported, axis=1) - scores)) / (2 - (2 * means[:, None] - 1))


# ---------------------------------------------------------------------------
# ASN simulation


# Simulation takes populations below this size: numpy's marginal multivariate
# hypergeometric draw needs its colors to sum below 10**9.
MAX_SIMULATED_BALLOTS = 10**9


# Misread ballots whose targets _error_cells draws at a time.
_TARGET_BLOCK = 1 << 20


def _error_cells(counts: np.ndarray, error_rate: float, rng: np.random.Generator):
    """One trial's ballots under the error model, as a table of (reported, audited) signature cells.

    Each of the ``counts[s]`` ballots of signature ``s`` is independently
    misread, with probability ``error_rate``, as a uniformly random *other*
    signature: ``Binomial(counts[s], error_rate)`` of them are misread, and
    each goes to one uniform draw of the others.  Returns each cell's
    reported and audited signature and its ballot count; the diagonal cells
    come first, one per signature, and only the misread cells that hold a
    ballot follow.  Building the table costs O(signatures + misread ballots)
    in time, and memory for the table and one block of ``_TARGET_BLOCK``
    misread ballots: the targets are drawn block by block, one stream however
    it is cut, and each block's cell counts are merged into the table.
    """
    s = counts.size
    sigs = np.arange(s)
    if s < 2:
        return sigs, sigs, counts
    errors = rng.binomial(counts, error_rate)
    ends = np.cumsum(errors)
    keys, sent = np.empty(0, np.int64), np.empty(0, np.int64)
    for lo in range(0, int(ends[-1]), _TARGET_BLOCK):
        misread = np.arange(lo, min(lo + _TARGET_BLOCK, int(ends[-1])))
        block = np.searchsorted(ends, misread, side="right") * (s - 1) + rng.integers(0, s - 1, size=misread.size)
        # The table's keys join the block's once each, and count their ballots instead.
        merged, merged_sent = np.unique(np.concatenate((keys, block)), return_counts=True)
        merged_sent[np.searchsorted(merged, keys)] += sent - 1
        keys, sent = merged, merged_sent
    reported, other = np.divmod(keys, s - 1)
    audited = other + (other >= reported)
    return np.concatenate((sigs, reported)), np.concatenate((sigs, audited)), np.concatenate((counts - errors, sent))


def _trial_stops(
    values: np.ndarray, means: np.ndarray, counts: np.ndarray, cfg: AuditConfig, workers: int
) -> np.ndarray:
    """Per-trial first sample size at which the audit certifies each assertion: shape (trials, assertions).

    ``values[i]`` holds assertion ``i``'s assorter per signature and
    ``counts`` each signature's ballots.  A trial perturbs the ballots under
    the error model (:func:`_error_cells`), draws them in a uniformly random
    order, chunk by chunk, as counts per cell from a multivariate
    hypergeometric, each chunk shuffled, and reports for every assertion the
    first draw count with p-value at or below the risk limit, or ``N + 1``
    if it never certifies.  Every assertion of a trial reads the same draws,
    from one stream keyed by (seed, trial).  A comparison trial scores each
    draw against the assertion's reported mean ``means[i]``, which must exceed 1/2.
    """
    n = int(counts.sum())

    def one_trial(trial: int) -> np.ndarray:
        rng = np.random.default_rng([cfg.seed, trial])
        reported, audited, cells = _error_cells(counts, cfg.error_rate, rng)
        scores = _cell_scores(values, means, reported, audited, cfg.style)
        remaining = cells.copy()

        def draws(start: int, end: int) -> np.ndarray:
            drawn = rng.multivariate_hypergeometric(remaining, end - start, method="marginals")
            remaining[:] -= drawn
            order = np.repeat(np.arange(drawn.size), drawn)
            rng.shuffle(order)
            return order

        return _walk(draws, scores, n, cfg.risk_limit)[0]

    if workers <= 1:
        stops = [one_trial(trial) for trial in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stops = list(pool.map(one_trial, range(cfg.trials)))
    return np.array(stops, dtype=np.int64)


def _escalates(aset: AssertionSet, election: Election) -> bool:
    """Whether ``aset`` certifies nothing: it escalates, or it holds no assertion in an election of two or
    more candidates, so nothing shows that its winner beat another."""
    return aset.full_hand_count or (not aset.assertions and election.num_candidates >= 2)


@dataclass(frozen=True)
class ASNEstimate:
    """Estimated sample sizes for an assertion set: the medians of each assertion's trial ``stops``.

    ``stops[i][t]`` is the draw count at which trial ``t`` first certifies
    assertion ``i``, ``N + 1`` if it never does; trial ``t`` of every
    assertion reads the same draws.  Each ``stops[i]`` is a read-only array.
    """

    per_assertion: tuple[int, ...]
    overall: int
    full_count_flag: bool
    population: int
    stops: tuple[np.ndarray, ...] = field(compare=False)

    @property
    def percentage(self) -> float:
        return 100.0 * self.overall / self.population if self.population else 0.0


def estimate_audit(
    aset: AssertionSet, election: Election, cfg: AuditConfig, workers: int = 1
) -> ASNEstimate:
    """Estimate the sample size to audit a whole set: the max over its members.

    A set that certifies nothing, one that escalates or holds no assertion
    in an election of two or more candidates, is a full count of all N.  A
    population of ``MAX_SIMULATED_BALLOTS`` or more raises
    :class:`CapacityError` when some assertion needs simulating.
    """
    n = election.total_ballots
    if _escalates(aset, election):
        return ASNEstimate((), n, True, n, ())
    _, counts, values, means = _scoring(aset, election, cfg.style)
    # A comparison audit needs a reported mean above 1/2; without one every trial is a full count.
    walked = (means > 0.5) | (cfg.style == "polling")
    stops = np.full((len(means), cfg.trials), n + 1, dtype=np.int64)
    if walked.any():
        if n >= MAX_SIMULATED_BALLOTS:
            raise CapacityError(f"simulation takes fewer than {MAX_SIMULATED_BALLOTS:,} ballots; the election has {n:,}")
        stops[walked] = _trial_stops(values[walked], means[walked], counts, cfg, workers).T
    # Each ASN is the median of its stops, with never-certifying trials counted as N.
    per = tuple(np.ceil(np.median(np.minimum(stops, n), axis=1)).astype(np.int64).tolist())
    full = not walked.all()
    overall = n if full else max(per, default=0)
    stops.flags.writeable = False
    return ASNEstimate(per, overall, full, n, tuple(stops))


# ---------------------------------------------------------------------------
# Batch audit execution


@dataclass(frozen=True)
class AuditSample:
    """One drawn ballot: the audited interpretation, plus the reported one
    when auditing against electronic records."""

    audited: Ballot
    reported: Ballot | None = None


@dataclass(frozen=True, eq=False)
class SampleStream:
    """A drawn sample: its distinct samples, each once, and the index into
    ``samples`` of every draw's sample, in draw order, as a read-only array."""

    samples: tuple[AuditSample, ...]
    order: np.ndarray


def _parse_sample(line: str, index: dict[str, int]) -> AuditSample:
    """The sample one line of a sample file holds; a fault is a :class:`ParseError`."""
    doc = decode_json(line)
    if not isinstance(doc, dict) or "audited" not in doc:
        raise ParseError("each sample needs an 'audited' ballot")
    audited = resolve_names(doc["audited"], index, where="'audited'")
    reported = resolve_names(doc["reported"], index, where="'reported'") if "reported" in doc else None
    return AuditSample(audited, reported)


def load_samples(source: str | Path, election: Election) -> SampleStream:
    """Read a JSON-lines sample file: its distinct samples and their draw order.

    Each line is ``{"audited": [names...]}`` or
    ``{"reported": [...], "audited": [...]}``; blank and whitespace-only lines
    are skipped.  Candidate names are resolved against the election roster.
    Malformed lines, unknown or repeated names, and more samples than the
    election has ballots are data errors, raised for the first line that has
    one; the count is checked before a line is parsed.
    """
    # Not splitlines(): a JSON string may hold U+2028, U+2029 and NEL raw.
    lines = read_text(source).split("\n")
    index = roster_index(election.candidates)
    n = election.total_ballots

    # A line recurs once per drawn ballot of its signature.  Each distinct line
    # is classified once, in the order lines first appear: as blank (-1) or as
    # the index of the sample it parses to.  Classifying stops (-2) at a faulty
    # line, or at a non-blank line past the N-th distinct one, for which the
    # count check fails at or before its first line.  The lines first seen
    # after it stay -1: an error is raised at or before them.
    codes = dict.fromkeys(lines, -1)
    samples: dict[AuditSample, int] = {}
    fault = None
    for count, line in enumerate(filter(str.strip, codes)):
        if count == n:
            codes[line] = -2
            break
        try:
            sample = _parse_sample(line, index)
        except ParseError as exc:
            codes[line], fault = -2, exc
            break
        # Lines spelled differently may hold one sample: it keeps its first index.
        codes[line] = samples.setdefault(sample, len(samples))
    at = np.fromiter(map(codes.__getitem__, lines), np.intp, len(lines))
    drawn = np.flatnonzero(at != -1)
    bad = int(np.append(np.flatnonzero(at == -2), len(lines))[0])  # the stop, or past the last line
    if np.count_nonzero(drawn <= bad) > n:
        raise ParseError(f"more samples than the {n} ballots of the election", int(drawn[n]) + 1)
    if fault is not None:
        raise ParseError(fault.reason, bad + 1)
    order = at[drawn]
    order.flags.writeable = False
    return SampleStream(tuple(samples), order)


class InfeasibleAuditError(ValueError):
    """Raised when an assertion set admits no audit of the requested style."""


@dataclass(frozen=True)
class AssertionAuditRecord:
    """One assertion's audit: its p-value after the last examined draw, and ``p_trace``, a
    read-only float64 row of its running p-value after each examined draw."""

    assertion: Assertion
    certified: bool
    p_value: float
    p_trace: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of running an audit over a drawn sample."""

    outcome: str  # "certified" | "escalate-full-count"
    ballots_examined: int
    risk_limit: float
    records: tuple[AssertionAuditRecord, ...]

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"


def run_audit(
    aset: AssertionSet,
    stream: SampleStream,
    election: Election,
    cfg: AuditConfig,
) -> AuditReport:
    """Feed a drawn sample through every assertion's sequential test.

    The draws of ``stream`` must be in their (externally randomized) draw
    order.  Each distinct sample is scored once, as a (reported, audited)
    cell of the signature table, and the walk of :func:`_walk` traces every
    assertion over the draws.  The audit certifies at the first draw where
    every assertion's p-value is at or below the risk limit, and consumes no
    sample after it; exhausting the sample first escalates to a full hand
    count, as a set that certifies nothing (one that escalates, or holds no
    assertion in an election of two or more candidates) does at once.  A
    sample too large, or a comparison audit of a stream with a sample
    lacking its reported ballot, is a :class:`~condaudit.ballots.ParseError`.
    A comparison audit of a set whose reported tallies do not support every
    assertion raises :class:`InfeasibleAuditError`.
    """
    if _escalates(aset, election):
        return AuditReport("escalate-full-count", 0, cfg.risk_limit, ())

    n = election.total_ballots
    samples, order = stream.samples, stream.order
    if order.size > n:
        raise ParseError(f"sample of {order.size} exceeds the population of {n} ballots")
    comparison = cfg.style == "comparison"
    if comparison and any(s.reported is None for s in samples):
        raise ParseError("comparison audits need a reported ballot per sample")

    sampled = [s.audited for s in samples] + [s.reported for s in samples if comparison]
    rows, _, values, means = _scoring(aset, election, cfg.style, sampled)
    if comparison and not (means > 0.5).all():
        raise InfeasibleAuditError(
            "comparison audit is impossible: reported tallies do not support the assertion (mean <= 1/2)"
        )
    audited = np.array([rows[s.audited] for s in samples], dtype=np.intp)
    reported = np.array([rows[s.reported] for s in samples], dtype=np.intp) if comparison else audited
    scores = _cell_scores(values, means, reported, audited, cfg.style)
    stops, traces = _walk(lambda start, end: order[start:end], scores, n, cfg.risk_limit, order.size, trace=True)
    examined = min(order.size, int(stops.max(initial=0)))
    traces = traces[:, :examined]
    traces.flags.writeable = False
    p_values = traces[:, -1].tolist() if examined else [1.0] * len(traces)
    records = [
        AssertionAuditRecord(assertion, p_value <= cfg.risk_limit, p_value, p_trace)
        for assertion, p_value, p_trace in zip(aset.assertions, p_values, traces)
    ]
    outcome = "certified" if all(r.certified for r in records) else "escalate-full-count"
    return AuditReport(outcome, examined, cfg.risk_limit, tuple(records))
