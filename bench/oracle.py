"""Brute-force oracles the benchmark checks every operation's output against.

Written from the definitions in the README, not from the library: pairwise
tallies by direct preference tests, Ranked Pairs by locking majorities with
a reachability search, Kemeny by enumerating every ranking, and the
Kaplan-Kolmogorov test recomputed in log space with numpy.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np


def ballot_prefers(sig: tuple[int, ...], i: int, j: int) -> bool:
    """A ranking prefers i to j when i is listed and j is listed later or not at all."""
    if i not in sig:
        return False
    return j not in sig or sig.index(i) < sig.index(j)


def tallies(profile: dict, k: int) -> np.ndarray:
    t = np.zeros((k, k), dtype=np.int64)
    for sig, n in profile.items():
        for i in range(k):
            for j in range(k):
                if i != j and ballot_prefers(sig, i, j):
                    t[i, j] += n
    return t


def _reaches(edges: set, a: int, b: int) -> bool:
    seen, todo = {a}, [a]
    while todo:
        x = todo.pop()
        if x == b:
            return True
        for (u, v) in edges:
            if u == x and v not in seen:
                seen.add(v)
                todo.append(v)
    return False


def _path_length(edges: set, a: int, b: int) -> int:
    frontier, seen, steps = {a}, {a}, 0
    while b not in frontier:
        if not frontier:
            raise ValueError(f"no locked path from {a} to {b}")
        frontier = {v for (u, v) in edges if u in frontier} - seen
        seen |= frontier
        steps += 1
    return steps


def ranked_pairs(t: np.ndarray) -> tuple[int, int]:
    """Ranked Pairs winner and the size of its assertion set.

    Majorities are locked strongest first (equal margins by candidate
    index) unless they close a cycle, until one candidate reaches all
    others.  The set needs one positive-majority claim per rival the winner
    beats directly, and one comparison per edge of a shortest locked path to
    every other rival.
    """
    k = t.shape[0]
    s = t - t.T
    pairs = sorted((-int(s[i, j]), i, j) for i in range(k) for j in range(k) if i != j and s[i, j] > 0)
    locked: set = set()
    for _, i, j in pairs:
        if _reaches(locked, j, i):
            continue
        locked.add((i, j))
        leaders = [w for w in range(k) if all(_reaches(locked, w, c) for c in range(k))]
        if leaders:
            w = leaders[0]
            count = sum(1 if (w, c) in locked else _path_length(locked, w, c) for c in range(k) if c != w)
            return w, count
    raise ValueError("no Ranked Pairs winner: tied majorities")


def ranking_tally(ranking, t: np.ndarray) -> int:
    return sum(int(t[ranking[p], ranking[q]]) for p in range(len(ranking)) for q in range(p + 1, len(ranking)))


def kemeny(t: np.ndarray) -> tuple[int, int]:
    """Kemeny winner (the unique best ranking's leader) and k! - (k-1)! assertions."""
    k = t.shape[0]
    scored = sorted((ranking_tally(p, t), p) for p in itertools.permutations(range(k)))
    if len(scored) > 1 and scored[-1][0] == scored[-2][0]:
        raise ValueError("Kemeny ranking is tied")
    return scored[-1][1][0], math.factorial(k) - math.factorial(k - 1)


_PAIR = re.compile(r"^s\((\w+),(\w+)\) > (?:0|s\((\w+),(\w+)\))$")
_RANK = re.compile(r"^T\(\[([\w,]+)\]\) > T\(\[([\w,]+)\]\)$")


def parse_assertion(text: str, names: list[str]) -> tuple:
    """Parse one rendered assertion into ('pair', w, l), ('score', hi, lo) or ('rank', a, b)."""
    idx = {n: i for i, n in enumerate(names)}
    m = _PAIR.match(text)
    if m and m.group(3) is None:
        return ("pair", idx[m.group(1)], idx[m.group(2)])
    if m:
        return ("score", (idx[m.group(1)], idx[m.group(2)]), (idx[m.group(3)], idx[m.group(4)]))
    m = _RANK.match(text)
    if m:
        return ("rank", tuple(idx[n] for n in m.group(1).split(",")), tuple(idx[n] for n in m.group(2).split(",")))
    raise ValueError(f"unrecognised assertion {text!r}")


def claim_holds(claim: tuple, t: np.ndarray) -> bool:
    s = t - t.T
    if claim[0] == "pair":
        return s[claim[1], claim[2]] > 0
    if claim[0] == "score":
        return s[claim[1]] > s[claim[2]]
    return ranking_tally(claim[1], t) > ranking_tally(claim[2], t)


def covers_rivals(claims: list[tuple], winner: int, k: int) -> bool:
    """Every rival is beaten directly, or through a path whose every edge
    outscores that rival's margin over the winner."""
    for c in range(k):
        if c == winner or ("pair", winner, c) in claims:
            continue
        edges = {hi for kind, hi, lo in claims if kind == "score" and lo == (c, winner)}
        if not _reaches(edges, winner, c):
            return False
    return True


def assorter(claim: tuple, sig: tuple[int, ...]) -> float:
    """Polling assorter h = (g - a) / (-2a) of one ballot for a claim."""
    if claim[0] == "pair":
        _, w, l = claim
        g = int(ballot_prefers(sig, w, l)) - int(ballot_prefers(sig, l, w))
        return (g + 1) / 2
    if claim[0] == "score":
        _, (i, j), (c, w) = claim
        g = (int(ballot_prefers(sig, i, j)) + int(ballot_prefers(sig, w, c))
             - int(ballot_prefers(sig, c, w)) - int(ballot_prefers(sig, j, i)))
        return (g + 2) / 4
    raise ValueError("only pairwise and score claims are audited by this benchmark")


def kk_audit(x: np.ndarray, population: int, risk_limit: float, padding: float = 0.1):
    """Sequential Kaplan-Kolmogorov audit over draws ``x`` (assertions x draws).

    Returns (draws examined, final p-value per assertion): the audit stops at
    the first draw after which every p-value is at or below the risk limit.
    """
    y = x + padding
    n = y.shape[1]
    drawn_before = np.cumsum(y, axis=1) - y
    null_mass = population * (0.5 + padding) - drawn_before
    m = null_mass / (population - np.arange(n))
    impossible = np.logical_or.accumulate(m <= 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_growth = np.where(impossible, 0.0, np.log(y / m))
    log_mart = np.cumsum(log_growth, axis=1)
    log_mart[impossible] = np.inf
    p = np.minimum(1.0, np.exp(-np.maximum.accumulate(log_mart, axis=1)))
    done = np.flatnonzero((p <= risk_limit).all(axis=0))
    examined = int(done[0]) + 1 if done.size else n
    return examined, p[:, examined - 1]
