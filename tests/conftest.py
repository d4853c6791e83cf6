import simd  # noqa: F401  (first: it pins numpy's dispatch before numpy is imported)

import pytest

from condaudit import Election


@pytest.fixture
def election1() -> Election:
    return Election(
        ("A", "B", "C"),
        {(0, 1): 5000, (1, 2): 2500, (2, 0, 1): 500, (1, 0): 300},
    )


@pytest.fixture
def election2() -> Election:
    return Election(
        ("A", "B", "C"),
        {(0, 2, 1): 20000, (1, 2, 0): 19000, (2,): 5000},
    )


@pytest.fixture
def election3() -> Election:
    return Election(
        ("A", "B", "C", "D"),
        {
            (0, 1, 3, 2): 7000,
            (0, 2, 1, 3): 2000,
            (1, 2, 3, 0): 4000,
            (1, 3, 0, 2): 6000,
            (2, 0, 1, 3): 2000,
            (2, 3, 0, 1): 7000,
            (3, 2, 0, 1): 1000,
        },
    )


@pytest.fixture
def smith_tie_election() -> Election:
    """Three candidates where A and B tie pairwise and both beat C."""
    return Election(
        ("A", "B", "C"),
        {(0, 2, 1): 2, (1, 2, 0): 2, (0, 1, 2): 1, (1, 0, 2): 1},
    )
