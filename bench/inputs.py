"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed writes byte-identical files.  The program under test
only ever sees the files written here.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"


def load_profile(path: Path) -> tuple[list[str], dict[tuple[int, ...], int]]:
    """Candidates and signature counts of a native election JSON file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    names = doc["candidates"]
    index = {n: i for i, n in enumerate(names)}
    profile: dict[tuple[int, ...], int] = {}
    for entry in doc["ballots"]:
        sig = tuple(index[n] for n in entry["ranking"])
        profile[sig] = profile.get(sig, 0) + entry["count"]
    return names, profile


def scaled(profile: dict, factor: int) -> dict:
    return {sig: n * factor for sig, n in profile.items()}


def _kendall(perm: tuple[int, ...], centre_pos: list[int]) -> int:
    """Number of pairs ``perm`` orders differently from the central ranking."""
    pos = [centre_pos[c] for c in perm]
    return sum(1 for a in range(len(pos)) for b in range(a + 1, len(pos)) if pos[a] > pos[b])


def mallows_partial_profile(
    rng: np.random.Generator,
    k: int,
    voters: int,
    phi: float,
    length_weights: list[float],
) -> dict[tuple[int, ...], int]:
    """Mallows-style profile of partial rankings.

    A voter's complete ranking has probability proportional to
    ``phi ** d`` (``d`` = Kendall distance to a seeded central ranking) and
    is cut after ``l`` candidates with probability ``length_weights[l-1]``.
    Each signature gets the integer part of its expected count; the
    remaining voters go to signatures drawn by their fractional parts, so a
    seed changes which rare signatures appear and who the candidates are,
    but the margins stay close to their expectation from seed to seed.
    """
    centre = rng.permutation(k)
    centre_pos = [0] * k
    for p, c in enumerate(centre):
        centre_pos[int(c)] = p
    perms = list(itertools.permutations(range(k)))
    weight = np.array([phi ** _kendall(p, centre_pos) for p in perms])
    weight /= weight.sum()
    lengths = np.asarray(length_weights, dtype=float) / sum(length_weights)
    expected: dict[tuple[int, ...], float] = {}
    for perm, w in zip(perms, weight):
        for l in range(1, k + 1):
            sig = perm[:l]
            expected[sig] = expected.get(sig, 0.0) + w * lengths[l - 1]
    sigs = sorted(expected)
    want = np.array([expected[s] * voters for s in sigs])
    counts = np.floor(want).astype(np.int64)
    frac = want - counts
    rest = voters - int(counts.sum())
    if rest:
        extra = rng.choice(len(sigs), size=rest, replace=False, p=frac / frac.sum())
        counts[extra] += 1
    return {s: int(n) for s, n in zip(sigs, counts) if n}


def write_preflib(path: Path, names: list[str], profile: dict) -> None:
    """Write a Preflib ``soi`` file (1-based candidate numbers)."""
    lines = [
        f"# FILE NAME: {path.name}",
        "# DATA TYPE: soi",
        f"# NUMBER ALTERNATIVES: {len(names)}",
        f"# NUMBER VOTERS: {sum(profile.values())}",
        f"# NUMBER UNIQUE ORDERS: {len(profile)}",
    ]
    lines += [f"# ALTERNATIVE NAME {i + 1}: {n}" for i, n in enumerate(names)]
    for sig, n in sorted(profile.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{n}: " + ",".join(str(c + 1) for c in sig))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_stream(
    rng: np.random.Generator, profile: dict, error_rate: float
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """A random draw order of the whole population under the error model.

    Each drawn ballot is independently replaced, with probability
    ``error_rate``, by a uniformly random *other* signature of the election.
    Returns the signature list and the audited signature index per draw.
    """
    sigs = sorted(profile)
    population = np.repeat(np.arange(len(sigs)), [profile[s] for s in sigs])
    audited = population[rng.permutation(population.size)]
    hit = np.flatnonzero(rng.random(audited.size) < error_rate)
    if hit.size and len(sigs) > 1:
        other = rng.integers(0, len(sigs) - 1, size=hit.size)
        other += other >= audited[hit]
        audited[hit] = other
    return sigs, audited


def write_stream(path: Path, names: list[str], sigs: list, audited: np.ndarray) -> None:
    """Write a draw order as the JSON-lines sample file ``audit`` reads."""
    line_of = [json.dumps({"audited": [names[c] for c in s]}) for s in sigs]
    path.write_text("\n".join(line_of[i] for i in audited.tolist()) + "\n", encoding="utf-8")

