"""Core data model for ranked-ballot elections.

Candidates are dense integer indices ``0..k-1``; display names live on the
election roster and are only used at I/O boundaries.  A ballot is a tuple of
distinct candidate indices, most preferred first; it may rank any subset of
the candidates, including none.  An election stores its ballots as a multiset
keyed by signature (the exact ranking tuple).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Ballot = tuple[int, ...]


class CapacityError(ValueError):
    """Raised when an input exceeds what a method can compute: a combinatorial blow-up or a count past int64."""


def as_integer(value) -> int | None:
    """``value`` as an int if it is an integer (a numpy one too) other than a bool, else None."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class Election:
    """A candidate roster plus a multiset of ballot signatures.

    ``candidates[i]`` is the name of candidate ``i``.  ``profile`` maps each
    distinct ballot signature to the (nonnegative) number of ballots cast
    with that exact ranking: an integer, a numpy one too, but not a bool,
    which is refused rather than read as 0 or 1.  Instances are validated
    on construction and must be treated as immutable.
    """

    candidates: tuple[str, ...]
    profile: dict[Ballot, int] = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(self.candidates)
        object.__setattr__(self, "candidates", names)
        if len(set(names)) != len(names):
            raise ValueError("candidate names must be unique")
        k = len(names)
        prof: dict[Ballot, int] = {}
        for sig, count in self.profile.items():
            sig, count = tuple(sig), as_integer(count)
            if count is None or count < 0:
                raise ValueError(f"ballot count for {sig} must be a nonnegative integer")
            if len(set(sig)) != len(sig):
                raise ValueError(f"duplicate candidate in ballot {sig}")
            for c in sig:
                if not 0 <= c < k:
                    raise ValueError(f"ballot {sig} references unknown candidate index {c}")
            prof[sig] = prof.get(sig, 0) + count
        object.__setattr__(self, "profile", prof)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def total_ballots(self) -> int:
        return sum(self.profile.values())

    def digest(self) -> str:
        """SHA-256 of a canonical serialization, for tying artifacts to inputs."""
        doc = {
            "candidates": list(self.candidates),
            "profile": sorted([list(sig), n] for sig, n in self.profile.items()),
        }
        blob = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def preference_matrix(signatures: Sequence[Ballot], num_candidates: int) -> np.ndarray:
    """Boolean array ``P`` with ``P[s, i, j]`` true iff signature s prefers i over j.

    A ballot prefers i over j when i appears before j on it, or when i
    appears and j does not; a ballot mentioning neither, or only j, expresses
    no preference for i, and no ballot prefers a candidate over itself.  So
    i is preferred when its position is smaller, with unranked candidates at
    position ``num_candidates``.
    """
    lengths = np.fromiter(map(len, signatures), dtype=np.intp, count=len(signatures))
    ranked = np.fromiter(itertools.chain.from_iterable(signatures), dtype=np.intp, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(signatures)), lengths)
    pos = np.full((len(signatures), num_candidates), num_candidates, dtype=np.intp)
    # A ranked candidate's position is its offset within its own signature.
    pos[rows, ranked] = np.arange(ranked.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return pos[:, :, None] < pos[:, None, :]


def pairwise_tallies(election: Election) -> np.ndarray:
    """k x k matrix whose (i, j) entry counts ballots preferring i over j.

    Ballots ranking only one of the pair count for the ranked candidate;
    ballots ranking neither count for neither, so opposing entries may sum
    to less than the total number of ballots.  The diagonal is zero.
    """
    sigs = list(election.profile)
    return np.tensordot(ballot_counts(election, sigs), preference_matrix(sigs, election.num_candidates), axes=1)


def ballot_counts(election: Election, signatures: Sequence[Ballot]) -> np.ndarray:
    """The int64 ballot count of each of ``signatures``, 0 for one the profile lacks.

    A tally or margin is at most the total, so a total of 2**63 ballots or more raises :class:`CapacityError`.
    """
    if election.total_ballots > np.iinfo(np.int64).max:
        raise CapacityError(f"tallies count fewer than 2**63 ballots; the election has {election.total_ballots:,}")
    return np.array([election.profile.get(sig, 0) for sig in signatures], dtype=np.int64)


def scores(tallies: np.ndarray) -> np.ndarray:
    """Pairwise margin matrix: entry (i, j) is tallies[i, j] - tallies[j, i]."""
    tallies = np.asarray(tallies)
    return tallies - tallies.T


def restrict_to(election: Election, keep: Iterable[int]) -> Election:
    """Project an election onto a candidate subset.

    Kept candidates are renumbered densely in ascending original order;
    rankings are filtered to kept candidates, preserving order, and
    identical filtered signatures are merged.
    """
    kept = sorted(set(keep))
    for c in kept:
        if not 0 <= c < election.num_candidates:
            raise ValueError(f"unknown candidate index {c}")
    remap = {old: new for new, old in enumerate(kept)}
    names = tuple(election.candidates[c] for c in kept)
    profile: dict[Ballot, int] = {}
    for sig, count in election.profile.items():
        reduced = tuple(remap[c] for c in sig if c in remap)
        profile[reduced] = profile.get(reduced, 0) + count
    return Election(names, profile)
