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
assertion of the set reads the same draws, and each walks them with its own
test to its first crossing of the risk limit; drawing stops once all have
crossed, so a trial costs O(stop + signatures + misread ballots) in time and
memory, and builds no array of N ballots.
The per-assertion ASN is the median over trials, and a set's overall ASN is
the largest per-assertion ASN.  Before the first crossing no draw has
crossed, so the walk looks for the first draw whose own log-martingale gives
a p-value at or below the risk limit: it needs no running peak, and takes
that p-value for every draw it walks, the test a batch audit applies to its
traces.  Each trial's random stream is derived from (seed, trial index), so
results are reproducible regardless of execution order or parallelism, and
an assertion's stops do not depend on the rest of its set.  The
hypergeometric draw takes fewer than ``MAX_SIMULATED_BALLOTS`` (10**9)
ballots.

Simulation and audit score through one path.  One signature table, the
profile's signatures in sorted order and then an audit's sampled ballots
that the profile lacks, at count 0, gives every assertion's assorter per
signature and its reported mean, read exactly from the table's tallies by
:func:`claim_mean`.  One cell scorer scores (reported, audited) cells for
either style.  Only a reported mean above 1/2 admits a comparison audit:
otherwise an estimate flags the set for a full hand count and an audit
raises.  A batch audit traces each assertion's p-value over the sample and
stops at the largest first crossing of the risk limit.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ballots import ParseError, read_text, resolve_names, roster_index
from .model import Ballot, Election, preference_matrix
from .assertions import Assertion, AssertionSet, assorter_values, claim_mean
from .tabulation import CapacityError

AUDIT_STYLES = ("polling", "comparison")

# The fixed risk function: additive padding g and the null mean t of the KK test.
PADDING = 0.1
NULL_MEAN = 0.5

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class AuditConfig:
    """Parameters shared by estimation and audit execution."""

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
        if self.style not in AUDIT_STYLES:
            raise ValueError(f"style must be one of {AUDIT_STYLES}")


# ---------------------------------------------------------------------------
# Kaplan-Kolmogorov risk function


# (padded sum, log-martingale) before the first draw.
_KK_START = (0.0, 0.0)


def _kk_chunk(x: np.ndarray, population: int, start: int, carry: tuple[float, float]):
    """Log-martingales of draws ``start .. start + len(x) - 1``, continuing the test from ``carry``.

    Returns them, ``+inf`` where the null is impossible, and the carry after
    the last draw.  Each running value enters its ``cumsum`` as the first
    element, so the sums stay sequential and a trace cut into chunks is
    bit-identical to one computed whole.
    """
    if not (x >= 0).all():  # also rejects NaN
        raise ValueError("assorter values must be nonnegative")
    y = x + PADDING
    sums = np.cumsum(np.concatenate(([carry[0]], y)))
    m = (population * (NULL_MEAN + PADDING) - sums[:-1]) / (population - np.arange(start, start + y.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(y) - np.log(m)
    marts = np.cumsum(np.concatenate(([carry[1]], steps)))
    log_mart = marts[1:]
    # m <= 0 persists (the padded sum only grows), so no accumulate over the mask is needed.
    log_mart[m <= 0] = np.inf
    return log_mart, (sums[-1], marts[-1])


def _kk_pvalue(peak: np.ndarray) -> np.ndarray:
    """P-values ``min(1, exp(-peak))`` of running peaks of the log-martingale."""
    return np.exp(-np.maximum(peak, 0.0))


def kk_pvalue_trace(x: np.ndarray, population: int) -> np.ndarray:
    """P-value after each of a sequence of draws from a population of ``population`` values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size > population:
        raise ValueError("more draws than the population holds")
    return _kk_pvalue(np.maximum.accumulate(_kk_chunk(x, population, 0, _KK_START)[0]))


# Draws traced by a simulated trial before it first checks for a crossing,
# the factor by which each further chunk grows, and the size it grows to.
_FIRST_CHUNK = 256
_CHUNK_GROWTH = 4
_MAX_CHUNK = 8192


def _first_crossings(draws, scores: Sequence[np.ndarray], population: int, risk_limit: float) -> list[int]:
    """Draw count at which each of several p-values over one shared draw order first falls to ``risk_limit``.

    ``draws(a, b)`` returns the items of draws ``a .. b - 1``, and
    ``scores[i]`` maps an item to its value for test ``i``.  Draws are made
    in chunks that grow to ``_MAX_CHUNK``; each test walks them with its own
    carry and stops at the first chunk in which it crosses, and drawing stops
    once every test has crossed.  A test that never crosses reports
    ``population + 1``.  For each test, equal to the first index with
    ``kk_pvalue_trace(scores[i][items], population) <= risk_limit``, plus
    one, where ``items`` are all ``population`` draws.

    No draw before the first crossing crossed, so the first crossing is the
    first draw whose own log-martingale gives a p-value at or below the risk
    limit, and the walk needs no running peak.  Every walked draw takes that
    p-value, the test :func:`run_audit` applies to its traces.
    """
    stops = [population + 1] * len(scores)
    carries = [_KK_START] * len(scores)
    walking = list(range(len(scores)))
    start, size = 0, _FIRST_CHUNK
    while walking and start < population:
        end = min(start + size, population)
        items = draws(start, end)
        for i in list(walking):
            log_mart, carries[i] = _kk_chunk(scores[i][items], population, start, carries[i])
            crossed = np.flatnonzero(_kk_pvalue(log_mart) <= risk_limit)
            if crossed.size:
                stops[i] = start + int(crossed[0]) + 1
                walking.remove(i)
        start, size = end, min(size * _CHUNK_GROWTH, _MAX_CHUNK)
    return stops


# ---------------------------------------------------------------------------
# Scoring: one signature table, one cell scorer


def _scoring(aset: AssertionSet, election: Election, sampled: Iterable[Ballot] = ()):
    """The signature table of an election and its sampled ballots, scored for every assertion of ``aset``.

    The table's rows are the profile's signatures in sorted order, then each
    sampled ballot the profile lacks, with count 0.  Returns each signature's
    row, each row's ballot count, each assertion's assorter per row, and each
    assertion's reported mean, read exactly by :func:`claim_mean` from the
    table's tallies, to which a count-0 row adds nothing.
    """
    sigs = sorted(election.profile)
    sigs += [ballot for ballot in dict.fromkeys(sampled) if ballot not in election.profile]
    counts = np.array([election.profile.get(sig, 0) for sig in sigs], dtype=np.int64)
    prefs = preference_matrix(sigs, election.num_candidates)
    tallies = np.tensordot(counts, prefs, axes=1)
    values = [assorter_values(a, prefs) for a in aset.assertions]
    means = [claim_mean(a, tallies, election.total_ballots) for a in aset.assertions]
    return {sig: row for row, sig in enumerate(sigs)}, counts, values, means


def _cell_scores(values: Sequence[np.ndarray], means: Sequence[float], reported, audited, style) -> list[np.ndarray]:
    """Each assertion's score of (reported, audited) cells, given as rows of its ``values``.

    Polling scores the audited row.  Comparison scores the overstatement
    ``(1 - w) / (2 - v)``, where ``w = a(reported) - a(audited)`` and ``v =
    2 * means[i] - 1`` is the reported margin; its population mean exceeds
    1/2 exactly when the assertion holds on the audited ballots, and only a
    reported mean above 1/2 admits it.
    """
    if style == "polling":
        return [v[audited] for v in values]
    return [(1 - (v[reported] - v[audited])) / (2 - (2 * mean - 1)) for v, mean in zip(values, means)]


# ---------------------------------------------------------------------------
# ASN simulation


# Simulation takes populations below this size: numpy's marginal multivariate
# hypergeometric draw needs its colors to sum below 10**9.
MAX_SIMULATED_BALLOTS = 10**9


def _error_cells(counts: np.ndarray, error_rate: float, rng: np.random.Generator):
    """One trial's ballots under the error model, as a table of (reported, audited) signature cells.

    Each of the ``counts[s]`` ballots of signature ``s`` is independently
    misread, with probability ``error_rate``, as a uniformly random *other*
    signature: ``Binomial(counts[s], error_rate)`` of them are misread, and
    each goes to one uniform draw of the others.  Returns each cell's
    reported and audited signature and its ballot count; the diagonal cells
    come first, one per signature, and only the misread cells that hold a
    ballot follow.  Building the table costs O(signatures + misread ballots).
    """
    s = counts.size
    sigs = np.arange(s)
    if s < 2:
        return sigs, sigs, counts
    errors = rng.binomial(counts, error_rate)
    reported = np.repeat(sigs, errors)
    other, sent = np.unique(reported * (s - 1) + rng.integers(0, s - 1, size=reported.size), return_counts=True)
    reported, other = np.divmod(other, s - 1)
    audited = other + (other >= reported)
    return np.concatenate((sigs, reported)), np.concatenate((sigs, audited)), np.concatenate((counts - errors, sent))


def _trial_stops(
    values: Sequence[np.ndarray], means: Sequence[float], counts: np.ndarray, cfg: AuditConfig, workers: int
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

    def one_trial(trial: int) -> list[int]:
        rng = np.random.default_rng([cfg.seed & _SEED_MASK, trial])
        reported, audited, cells = _error_cells(counts, cfg.error_rate, rng)
        scores = _cell_scores(values, means, reported, audited, cfg.style)
        remaining = cells.copy()

        def draws(start: int, end: int) -> np.ndarray:
            drawn = rng.multivariate_hypergeometric(remaining, end - start, method="marginals")
            remaining[:] -= drawn
            order = np.repeat(np.arange(drawn.size), drawn)
            rng.shuffle(order)
            return order

        return _first_crossings(draws, scores, n, cfg.risk_limit)

    if workers <= 1:
        stops = [one_trial(trial) for trial in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stops = list(pool.map(one_trial, range(cfg.trials)))
    return np.array(stops, dtype=np.int64)


def _median_stop(stops: np.ndarray, population: int) -> int:
    """The ASN of a trial-stop vector: its median, with never-certifying trials counted as ``N``."""
    return int(math.ceil(float(np.median(np.minimum(stops, population)))))


@dataclass(frozen=True)
class ASNEstimate:
    """Estimated sample sizes for an assertion set: the medians of each assertion's trial ``stops``.

    ``stops[i][t]`` is the draw count at which trial ``t`` first certifies
    assertion ``i``, ``N + 1`` if it never does; trial ``t`` of every
    assertion reads the same draws.
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
    """Estimate the sample size to audit a whole set: the max over its members (all N if it escalates).

    A population of ``MAX_SIMULATED_BALLOTS`` or more raises :class:`CapacityError`
    when some assertion needs simulating.
    """
    n = election.total_ballots
    if aset.full_hand_count:
        return ASNEstimate((), n, True, n, ())
    _, counts, values, means = _scoring(aset, election)
    # A comparison audit needs a reported mean above 1/2; without one every trial is a full count.
    walked = [i for i, mean in enumerate(means) if cfg.style == "polling" or mean > 0.5]
    stops = np.full((len(means), cfg.trials), n + 1, dtype=np.int64)
    if walked:
        if n >= MAX_SIMULATED_BALLOTS:
            raise CapacityError(f"simulation takes fewer than {MAX_SIMULATED_BALLOTS:,} ballots; the election has {n:,}")
        stops[walked] = _trial_stops([values[i] for i in walked], [means[i] for i in walked], counts, cfg, workers).T
    per = tuple(_median_stop(s, n) for s in stops)
    full = len(walked) < len(means)
    overall = n if full else max(per, default=0)
    return ASNEstimate(per, overall, full, n, tuple(stops))


# ---------------------------------------------------------------------------
# Batch audit execution


@dataclass(frozen=True)
class AuditSample:
    """One drawn ballot: the audited interpretation, plus the reported one
    when auditing against electronic records."""

    audited: Ballot
    reported: Ballot | None = None


def load_samples(source: str | Path, election: Election) -> list[AuditSample]:
    """Read a JSON-lines sample file in draw order.

    Each line is ``{"audited": [names...]}`` or
    ``{"reported": [...], "audited": [...]}``.  Candidate names are resolved
    against the election roster; unknown names, and more samples than the
    election has ballots, are data errors.
    """
    # Not splitlines(): a JSON string may hold U+2028, U+2029 and NEL raw.
    lines = read_text(source).split("\n")
    index = roster_index(election.candidates)
    n = election.total_ballots

    samples: list[AuditSample] = []
    # A line recurs once per drawn ballot of its signature: each distinct line is read once.
    seen: dict[str, AuditSample] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if len(samples) == n:
            raise ParseError(f"more samples than the {n} ballots of the election", lineno)
        if line not in seen:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
            if not isinstance(doc, dict) or "audited" not in doc:
                raise ParseError("each sample needs an 'audited' ballot", lineno)
            audited = resolve_names(doc["audited"], index, lineno, "'audited'")
            reported = resolve_names(doc["reported"], index, lineno, "'reported'") if "reported" in doc else None
            seen[line] = AuditSample(audited, reported)
        samples.append(seen[line])
    return samples


class InfeasibleAuditError(ValueError):
    """Raised when an assertion set admits no audit of the requested style."""


@dataclass(frozen=True)
class AssertionAuditRecord:
    assertion: Assertion
    certified: bool
    p_value: float
    p_trace: tuple[float, ...]


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
    samples: Sequence[AuditSample],
    election: Election,
    cfg: AuditConfig,
) -> AuditReport:
    """Feed a drawn sample through every assertion's sequential test.

    Samples must be supplied in their (externally randomized) draw order.
    The audit certifies at the first draw where every assertion's p-value is
    at or below the risk limit, and consumes no sample after it; exhausting
    the sample first escalates to a full hand count, as an escalated set does
    at once.  A sample too large, or a comparison sample with any draw
    lacking its reported ballot, is a :class:`~condaudit.ballots.ParseError`.
    A comparison audit of a set whose reported tallies do not support every
    assertion raises :class:`InfeasibleAuditError`.
    """
    if aset.full_hand_count:
        return AuditReport("escalate-full-count", 0, cfg.risk_limit, ())

    n = election.total_ballots
    if len(samples) > n:
        raise ParseError(f"sample of {len(samples)} exceeds the population of {n} ballots")
    comparison = cfg.style == "comparison"
    if comparison and any(s.reported is None for s in samples):
        raise ParseError("comparison audits need a reported ballot per sample")

    sampled = [s.audited for s in samples] + [s.reported for s in samples if comparison]
    rows, _, values, means = _scoring(aset, election, sampled)
    if comparison and not all(mean > 0.5 for mean in means):
        raise InfeasibleAuditError(
            "comparison audit is impossible: reported tallies do not support the assertion (mean <= 1/2)"
        )
    audited = np.array([rows[s.audited] for s in samples], dtype=np.intp)
    reported = np.array([rows[s.reported] for s in samples], dtype=np.intp) if comparison else audited
    traces = [kk_pvalue_trace(x, n) for x in _cell_scores(values, means, reported, audited, cfg.style)]

    # A p-trace never rises, so its first crossing follows the draws above the risk limit.
    firsts = [int((p > cfg.risk_limit).sum()) + 1 for p in traces]
    examined = min(len(samples), max(firsts, default=0))

    records = []
    for assertion, p in zip(aset.assertions, traces):
        trace = tuple(p[:examined].tolist())
        p_value = trace[-1] if trace else 1.0
        records.append(AssertionAuditRecord(assertion, p_value <= cfg.risk_limit, p_value, trace))
    outcome = "certified" if all(r.certified for r in records) else "escalate-full-count"
    return AuditReport(outcome, examined, cfg.risk_limit, tuple(records))
