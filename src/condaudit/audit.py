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
assertion of the set reads the same draws.  Trials are walked in blocks,
of one trial or as many as fit in 256 (trial, assertion) pairs: a block
builds one table of its trials' cells and scores it once, as the scores of
distinct columns, and each pair is one row of one walk, which reads its own
trial's draws as their cells' columns.  The kernel walks every row still
walking at once, in slices of at most ``_MAX_CHUNK`` values laid out draws
by rows, whose running sums add two rows per complex lane; a row leaves at
its first crossing of the risk limit, and a trial stops drawing once all
its rows have crossed.  So a trial costs
O(stop + signatures + misread ballots) in time, and a block memory for its
stops, its table, one chunk of draws per trial and one block of misread
ballots' targets; no array of N ballots is built.  A polling block scores
one column per cell; a comparison block one column for all its correct
reads and one per misread cell, so its scores grow with its misread cells,
not with its trials times signatures.
The per-assertion ASN is the median over trials, and a set's overall ASN is
the largest per-assertion ASN.  Before the first crossing no draw has
crossed, so a trial stops at the first draw whose own log-martingale gives
a p-value at or below the risk limit, with no running peak: the draw at
which a batch audit's running p-value first reaches the limit.  A trial
takes that exact test only in a slice whose log-martingales reach a screen
just below ``-log(risk limit)``, so most of its draws take no ``exp``.
Each trial's random stream is derived from (seed, trial index), so results
are reproducible regardless of execution order, blocking or parallelism,
and an assertion's stops do not depend on the rest of its set.  The
hypergeometric draw takes fewer than ``MAX_SIMULATED_BALLOTS`` (10**9)
ballots.

Simulation and audit score through one path.  One signature table, the
profile's signatures in sorted order and then an audit's sampled ballots
that the profile lacks, at count 0, gives every assertion's assorter per
signature, as one (assertions x signatures) matrix, and its reported mean,
read exactly from the table's tallies by :func:`claim_means`, both with the
normaliser :func:`claim_weights` gives the claim in the audit's style.  One
cell scorer scores (reported, audited) cells for every assertion and either
style, as the scores of distinct columns and each cell's column.  Only a
reported mean above 1/2 admits a comparison audit: otherwise an estimate
flags the set for a full hand count and an audit raises.

Simulation and audit drive one kernel and one crossing rule through two
walkers: :func:`_walk` returns the stops of simulated trials, and
:func:`_trace` every test's running p-value after each draw of one order.
:func:`load_samples` reads a sample file as its distinct samples and one
int array of their indices in draw order, so a batch audit scores only
those distinct cells and traces the array in slices of about 8,192
values, up to the one in which every assertion has crossed; neither
works per draw in Python.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .ballots import ParseError, decode_json, read_text, resolve_names, roster_index
from .model import Ballot, CapacityError, Election, as_integer, ballot_counts, preference_matrix
from .assertions import Assertion, AssertionSet, claim_means, claim_values, claim_weights

AUDIT_STYLES = ("polling", "comparison")

# The fixed risk function: additive padding g and the null mean t of the KK test.
PADDING = 0.1
NULL_MEAN = 0.5


@dataclass(frozen=True)
class AuditConfig:
    """Parameters shared by estimation and audit execution.

    ``seed`` is nonnegative and names the simulation's streams as given:
    trial ``t`` draws from ``default_rng([seed, t])``.  ``trials`` and
    ``seed`` are stored as ``int``; a bool or a non-integer is refused.
    ``risk_limit`` and ``error_rate`` are real numbers (a numpy float
    too); a bool, a string or any other value is refused.
    """

    risk_limit: float = 0.05
    error_rate: float = 0.002
    trials: int = 2000
    seed: int = 0
    style: str = "polling"

    def __post_init__(self):
        for name in ("risk_limit", "error_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 < self.risk_limit < 1:
            raise ValueError("risk_limit must be in (0, 1)")
        if not 0 <= self.error_rate < 1:
            raise ValueError("error_rate must be in [0, 1)")
        for name, least, sign in (("trials", 1, "positive"), ("seed", 0, "nonnegative")):
            value = as_integer(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            if value < least:
                raise ValueError(f"{name} must be {sign}")
            object.__setattr__(self, name, value)
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


def _running_sums(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=0)`` of a C-contiguous float64 (draws x columns) array, bit for bit, two columns per lane.

    A ``complex128`` view pairs columns ``2j`` and ``2j + 1`` in one lane, and numpy adds a complex
    number's real and imaginary parts each on its own, draw after draw, so every column's running sum is
    its own float64 ``cumsum``, at about half the cost of a column summed alone.  An odd last column takes
    one plain running sum.  ``np.add.accumulate`` is the ufunc ``np.cumsum`` calls, without its wrapper.
    """
    out = np.empty_like(a)
    pairs = a.shape[1] & ~1
    if pairs:
        np.add.accumulate(a[:, :pairs].view(np.complex128), axis=0, out=out[:, :pairs].view(np.complex128))
    if pairs < a.shape[1]:
        np.add.accumulate(a[:, -1], out=out[:, -1])
    return out


def _kk_chunk(y: np.ndarray, log_y: np.ndarray, population: int, start: int, carry):
    """Log-martingales of draws ``start .. start + n - 1`` of several tests, continuing each from its carry.

    Column ``r`` of ``y`` (shape (n, rows)) holds test ``r``'s padded draws and ``log_y`` their logs
    (:func:`_padded`); ``carry[0][r]`` and ``carry[1][r]`` are its padded sum and log-martingale before
    them, zeros before the first draw.  Returns the (n, rows) log-martingales, ``+inf`` where the null is
    impossible, and the carries after the last draw, as views of the last row of each running sum.  Each
    carry enters its column's running sum (:func:`_running_sums`) as the first element, and a running sum
    down a column is sequential, so a column cut into chunks, or walked beside other columns, is
    bit-identical to one traced whole and alone.  The caller ignores floating-point errors: ``log(m)``
    of an impossible null's ``m <= 0`` is NaN or ``-inf`` before it is masked.
    """
    sums = _running_sums(np.concatenate((carry[0][None], y)))
    # N - i is exact in float64 below 2**53, so the float denominators divide as the integers do.
    left = population - np.arange(start, start + y.shape[0], dtype=np.float64)
    m = (population * (NULL_MEAN + PADDING) - sums[:-1]) / left[:, None]
    steps = np.concatenate((carry[1][None], log_y))
    steps[1:] -= np.log(m)
    marts = _running_sums(steps)
    log_mart = marts[1:]
    # m <= 0 persists (the padded sum only grows), so no accumulate over the mask is needed.
    log_mart[m <= 0] = np.inf
    return log_mart, (sums[-1], marts[-1])


def _kk_pvalue(log_mart: np.ndarray) -> np.ndarray:
    """P-values ``min(1, exp(-log_mart))`` of log-martingales."""
    return np.exp(-np.maximum(log_mart, 0.0))


def _screen(risk_limit: float) -> float:
    """A bound that the log-martingale of every draw whose p-value is at or below ``risk_limit`` reaches.

    ``exp`` is within a few ulps of ``e**-l``, and within a few subnormal steps of it where it underflows,
    so ``_kk_pvalue(l) <= risk_limit`` needs ``e**-l`` at most ``risk_limit * (1 + 2**-30) + 2**-1060``
    and, with a margin for ``log``'s rounding, ``l`` at or above the bound.  A limit of 1 or more, and any
    limit whose bound would not be positive, screens nothing out (``-inf``): ``max(l, 0)`` is then what
    crosses, not ``l``.  A limit of 0 or a subnormal one screens in only the ``l`` near ``exp``'s
    underflow, and a negative or NaN limit, which no p-value meets, everything out (``+inf``).
    """
    slack = risk_limit * (1 + 2**-30) + 2**-1060
    if not slack > 0:
        return math.inf
    bound = -math.log(slack) - 2**-20 if slack < 1 else 0.0
    return bound if bound > 0 else -math.inf


def kk_pvalue_trace(x: np.ndarray, population: int) -> np.ndarray:
    """P-value after each of a sequence of draws from a population of ``population`` values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("draws must be a one-dimensional sequence")
    if x.size > population:
        raise ValueError("more draws than the population holds")
    return _trace(x[None], np.arange(x.size), population, -np.inf)[0]


# A simulated trial's draws: the first chunk, walked before the first check
# for a crossing, the factor by which each further chunk grows, and the size
# it grows to.  The kernel takes at most _MAX_CHUNK values at a time (draws
# times rows), in a walk or a trace.
_FIRST_CHUNK = 256
_CHUNK_GROWTH = 4
_MAX_CHUNK = 8192

# The (trial, assertion) rows of a block of simulated trials: at most this
# many, or one trial's.  A full block's first kernel slice takes 32 draws per row.
_BLOCK_ROWS = _MAX_CHUNK // 32


def _walk(draws, scores, population: int, risk_limit: float, trials: int = 1) -> np.ndarray:
    """Draw count at which each of several p-values first falls to ``risk_limit``, over one draw order per trial.

    Row ``i`` of the (tests x cells) matrix ``scores`` maps a cell to its
    value for test ``i``, and each of ``trials`` trials draws the
    ``population`` cells in its own order; row ``t * tests + i`` of the walk
    is test ``i`` over trial ``t``'s draws.  ``draws(a, b, ts)`` returns a
    (trials x (b - a)) array whose row ``t``, for each trial ``t`` of the
    array ``ts``, holds the cells (columns of ``scores``) of trial ``t``'s
    draws ``a .. b - 1``; no other row is read.  It is called, with the
    trials that still have a row walking, for chunks that grow to
    ``_MAX_CHUNK`` draws.  Returns each
    row's stop: the first index with ``kk_pvalue_trace(scores[i][cells],
    population) <= risk_limit``, plus one, where ``cells`` are all the
    draws of its trial, or ``population + 1`` if there is none.

    The scores are checked, padded and logged once.  Every row still walking
    is one column of one kernel call, which walks a chunk in slices of at
    most ``_MAX_CHUNK // rows`` draws (at least one).  Each slice builds the
    flat indices of every row's draws in the table, transposed once to
    (draws x rows), and gathers the padded values and logs by them, so the
    kernel's running sums run down the columns (:func:`_running_sums`).  No
    column reads another, so a row walked beside others is bit for bit the
    row walked alone.  No draw before the first crossing crossed, so a draw
    crosses when its own log-martingale gives a p-value at or below the
    risk limit, with no slack; a slice takes that exact test only if one of
    its log-martingales reaches the screen of :func:`_screen`, so most take
    no ``exp``.  A row leaves, with its carry, at the slice in which it
    crosses, a trial stops drawing once all its rows have left, and the
    walk ends once every row has.
    """
    y, log_y = _padded(scores)
    tests, cells = y.shape
    walking = np.arange(tests * trials)  # the rows not yet crossed: the kernel's columns
    # Each kernel column's trial, and where its test's scores start in the flat table.
    at, base = np.divmod(walking, tests)
    base *= cells
    stops = np.full(walking.size, population + 1, dtype=np.int64)
    carry = np.zeros((2, walking.size))
    bound = _screen(risk_limit)
    start, chunk = 0, _FIRST_CHUNK
    with np.errstate(divide="ignore", invalid="ignore"):
        while walking.size and start < population:
            end = min(start + chunk, population)
            items = draws(start, end, np.flatnonzero(np.bincount(at)))
            lo = 0
            while walking.size and lo < items.shape[1]:
                part = items[at, lo : lo + max(1, _MAX_CHUNK // walking.size)]
                part += base[:, None]
                part = part.T.copy()  # (draws x columns): the slice's one transposition, of its indices
                log_mart, carry = _kk_chunk(np.take(y, part), np.take(log_y, part), population, start + lo, carry)
                first_draw, lo = start + lo, lo + part.shape[0]
                # Only a slice with a log-martingale at or above the screen can cross: only it takes exp.
                if np.fmax.reduce(log_mart, axis=None) < bound:
                    continue
                # One row per walking row, of its draws in the slice: its first True is its first crossing.
                crossed = np.ascontiguousarray((_kk_pvalue(log_mart) <= risk_limit).T)
                first = crossed.any(axis=1)
                if first.any():
                    stops[walking[first]] = first_draw + crossed[first].argmax(axis=1) + 1
                    keep = ~first
                    walking, at, base, carry = walking[keep], at[keep], base[keep], (carry[0][keep], carry[1][keep])
            start, chunk = end, min(chunk * _CHUNK_GROWTH, _MAX_CHUNK)
    return stops


def _trace(scores: np.ndarray, order: np.ndarray, population: int, risk_limit: float) -> np.ndarray:
    """Running p-values of several tests over one draw order, until every test's has fallen to ``risk_limit``.

    Row ``i`` of the (tests x cells) matrix ``scores`` maps a cell to its
    value for test ``i``; ``order`` holds the cells drawn from ``population``
    values.  Returns the (tests x draws) running p-values, row ``i`` bit for
    bit a prefix of ``kk_pvalue_trace(scores[i][order], population)``.
    Slices of ``_MAX_CHUNK // tests`` draws (at least one) are walked up to
    the one in which every test has crossed; a trace's bits do not depend
    on its slices.  The scores are padded once as (cells x tests), so one
    row ``take`` gathers a slice, whose p-values are transposed once into
    running minima continued from the slice before: the running peak's.
    """
    y, log_y = _padded(scores.T.copy())
    tests = y.shape[1]
    low = np.full(tests, np.inf)  # each test's running p-value after the draws walked, none before the first
    walked, carry = [np.empty((tests, 0))], np.zeros((2, tests))
    start = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # A set with no test walks nothing, so the width is never taken of zero tests.
        while start < order.size and not (low <= risk_limit).all():
            part = order[start : start + max(1, _MAX_CHUNK // tests)]
            log_mart, carry = _kk_chunk(y.take(part, axis=0), log_y.take(part, axis=0), population, start, carry)
            trace = np.minimum.accumulate(_kk_pvalue(log_mart).T, axis=1, out=np.empty((tests, part.size)))
            low = np.minimum(trace, low[:, None], out=trace)[:, -1]
            walked.append(trace)
            start += part.size
    return np.concatenate(walked, axis=1)


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
    :func:`~condaudit.assertions.claim_weights` gives each claim in an audit
    of ``style``.
    """
    sigs = sorted(election.profile)
    sigs += [ballot for ballot in dict.fromkeys(sampled) if ballot not in election.profile]
    counts = ballot_counts(election, sigs)
    prefs = preference_matrix(sigs, election.num_candidates)
    tallies = np.tensordot(counts, prefs, axes=1)
    weights, h = claim_weights(aset.assertions, election.num_candidates, style)
    values = claim_values(weights, h, prefs)
    means = claim_means(weights, h, tallies, election.total_ballots)
    return {sig: row for row, sig in enumerate(sigs)}, counts, values, means


def _cell_scores(values: np.ndarray, means: np.ndarray, reported, audited, style) -> tuple[np.ndarray, np.ndarray]:
    """Every assertion's scores of (reported, audited) cells, given as columns of ``values``, and each cell's column.

    Returns an (A, columns) matrix of distinct scores and the column of each
    cell, so that cell ``c`` scores ``scores[:, column[c]]``.  Polling scores
    the audited column, one column per cell.  Comparison scores the
    overstatement ``(1 - w) / (2 - v)``, where ``w = a(reported) -
    a(audited)`` and ``v = 2 * means[i] - 1`` is the reported margin; its
    population mean exceeds 1/2 exactly when the assertion holds on the
    audited ballots, and only a reported mean above 1/2 admits it.  A
    correct read (``reported == audited``) has ``w = 0`` whatever its
    signature, so every one is column 0, ``1 / (2 - v)`` exactly as ``1 - (x -
    x)`` is ``1.0``, and each misread cell has its own column after it, in
    cell order: the matrix grows with the misread cells, not with the cells.
    """
    if style == "polling":
        return np.take(values, audited, axis=1), np.arange(len(audited))
    misread = reported != audited
    column = misread.cumsum() * misread
    w = np.zeros((len(values), 1 + np.count_nonzero(misread)))
    np.subtract(np.take(values, reported[misread], axis=1), np.take(values, audited[misread], axis=1), out=w[:, 1:])
    return (1 - w) / (2 - (2 * means[:, None] - 1)), column


# ---------------------------------------------------------------------------
# ASN simulation


# Simulation takes populations below this size: numpy's marginal multivariate
# hypergeometric draw needs its colors to sum below 10**9.
MAX_SIMULATED_BALLOTS = 10**9


# Misread ballots whose targets _error_cells draws at a time.
_TARGET_BLOCK = 1 << 20


def _error_cells(counts: np.ndarray, error_rate: float, rngs: list[np.random.Generator]):
    """A block of trials' ballots under the error model, as one table of (reported, audited) signature cells.

    Trial ``t`` draws from its own stream ``rngs[t]``.  Each of the
    ``counts[s]`` ballots of signature ``s`` is independently misread, with
    probability ``error_rate``, as a uniformly random *other* signature:
    ``Binomial(counts[s], error_rate)`` of them are misread, and each goes to
    one uniform draw of the others.  Returns each cell's reported and audited
    signature and its ballot count, and the ``trials + 1`` bounds of the
    trials' cells: trial ``t``'s are ``bounds[t]:bounds[t + 1]``, its
    diagonal cells first, one per signature, and then only its misread cells
    that hold a ballot.  Building the table costs O(trials x signatures +
    misread ballots) in time, and memory for the table and one block of
    ``_TARGET_BLOCK`` misread ballots: the targets are drawn block by block,
    each trial's from its own stream, one stream however it is cut, and each
    block's cell counts are merged into the table.
    """
    s, trials = counts.size, len(rngs)
    sigs = np.tile(np.arange(s), trials)
    if s < 2:
        return sigs, sigs, np.tile(counts, trials), np.arange(trials + 1) * s
    errors = np.stack([rng.binomial(counts, error_rate) for rng in rngs])
    # Misread ballots are numbered across the block, trial by trial: ballot b is of (trial, signature) entry
    # searchsorted(ends, b, "right") of the flat errors, and trial t's are those before firsts[t + 1].
    ends = np.cumsum(errors)
    firsts = np.concatenate(([0], ends[s - 1 :: s])).tolist()
    keys, sent = np.empty(0, np.int64), np.empty(0, np.int64)
    for lo in range(0, firsts[-1], _TARGET_BLOCK):
        hi = min(lo + _TARGET_BLOCK, firsts[-1])
        targets = [
            rng.integers(0, s - 1, size=min(b, hi) - max(a, lo))
            for rng, a, b in zip(rngs, firsts, firsts[1:])
            if a < hi and b > lo
        ]
        block = np.searchsorted(ends, np.arange(lo, hi), side="right") * (s - 1) + np.concatenate(targets)
        # The table's keys join the block's once each, and count their ballots instead.
        merged, merged_sent = np.unique(np.concatenate((keys, block)), return_counts=True)
        merged_sent[np.searchsorted(merged, keys)] += sent - 1
        keys, sent = merged, merged_sent
    entry, other = np.divmod(keys, s - 1)
    trial, reported = np.divmod(entry, s)
    bounds = np.concatenate(([0], np.cumsum(s + np.bincount(trial, minlength=trials))))
    # Trial t's diagonal cells start at bounds[t]; its misread cells follow them, in key order.
    at = np.concatenate(((bounds[:-1, None] + np.arange(s)).ravel(), np.arange(keys.size) + (trial + 1) * s))
    table = np.empty((3, bounds[-1]), dtype=np.int64)
    table[:, at] = (
        np.concatenate((sigs, reported)),
        np.concatenate((sigs, other + (other >= reported))),
        np.concatenate(((counts - errors).ravel(), sent)),
    )
    return table[0], table[1], table[2], bounds


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

    The trials are walked in blocks of ``_BLOCK_ROWS // assertions`` trials
    (at least one), and each of ``workers`` threads takes whole blocks.  A block
    builds one table of its trials' cells and scores it once with
    :func:`_cell_scores`, which the walk pads once: one column per cell for
    polling, and for comparison one column for every correct read and one
    per misread cell.  It walks each (trial, assertion) pair as one row of
    one :func:`_walk`, whose draws are the drawn cells' columns.  A trial
    draws a chunk, from its own stream and in the order it would alone, as
    counts per cell, each repeated as its cell's column and shuffled, only
    while one of its rows walks; a shuffle's permutation does not depend on
    the values it moves, so no stop depends on the block a trial falls in,
    on the worker that walks it or on which cells share a column.
    """
    n = int(counts.sum())
    block = max(1, _BLOCK_ROWS // len(values))

    def one_block(first: int) -> np.ndarray:
        rngs = [np.random.default_rng([cfg.seed, trial]) for trial in range(first, min(first + block, cfg.trials))]
        reported, audited, cells, bounds = _error_cells(counts, cfg.error_rate, rngs)
        scores, column = _cell_scores(values, means, reported, audited, cfg.style)
        bounds = bounds.tolist()

        def draws(start: int, end: int, trials: np.ndarray) -> np.ndarray:
            chunk = np.empty((len(rngs), end - start), dtype=np.int64)
            for t in trials.tolist():
                remaining = cells[bounds[t] : bounds[t + 1]]  # a view: the trial's ballots not yet drawn
                drawn = rngs[t].multivariate_hypergeometric(remaining, end - start, method="marginals")
                remaining -= drawn
                order = np.repeat(column[bounds[t] : bounds[t + 1]], drawn)
                rngs[t].shuffle(order)
                chunk[t] = order
            return chunk

        return _walk(draws, scores, n, cfg.risk_limit, len(rngs)).reshape(len(rngs), -1)

    firsts = range(0, cfg.trials, block)
    if workers <= 1:
        stops = [one_block(first) for first in firsts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stops = list(pool.map(one_block, firsts))
    return np.concatenate(stops)


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
    cell of the signature table, by :func:`_cell_scores`, and :func:`_trace`
    traces every assertion over the draws' columns: in comparison style
    every correctly read sample shares column 0.  The audit certifies at
    the first draw where every assertion's p-value is at or below the risk
    limit, and consumes no sample after it; exhausting the sample first
    escalates to a full hand count, as a set that certifies nothing (one
    that escalates, or holds no assertion in an election of two or more
    candidates) does at once.  A sample too large, or a comparison audit of a stream with a sample
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
    scores, column = _cell_scores(values, means, reported, audited, cfg.style)
    traces = _trace(scores, column[order], n, cfg.risk_limit)
    # Each assertion's draws above the risk limit, plus one, is its stop: the audit examines up to the last.
    examined = min(order.size, int(np.count_nonzero(traces > cfg.risk_limit, axis=1).max(initial=-1)) + 1)
    traces = traces[:, :examined]
    traces.flags.writeable = False
    p_values = traces[:, -1].tolist() if examined else [1.0] * len(traces)
    records = [
        AssertionAuditRecord(assertion, p_value <= cfg.risk_limit, p_value, p_trace)
        for assertion, p_value, p_trace in zip(aset.assertions, p_values, traces)
    ]
    outcome = "certified" if all(r.certified for r in records) else "escalate-full-count"
    return AuditReport(outcome, examined, cfg.risk_limit, tuple(records))
