"""Tabulation and risk-limiting audits for ranked-ballot elections.

The package tabulates instant-runoff and Condorcet-family elections
(Condorcet winner, Ranked Pairs, Minimax, Smith, Kemeny-Young), generates
the assertion set that justifies each method's reported winner, scores
assertions per ballot as normalized assorters, and estimates or executes
sequential audits under the Kaplan-Kolmogorov risk function.
"""

from .model import Ballot, Election, pairwise_tallies, preference_matrix, prefers, restrict_to, scores
from .ballots import (
    ParseError,
    ParseReport,
    parse_native,
    parse_path,
    parse_preflib,
    scale,
    serialize_election,
)
from .tabulation import (
    CapacityError,
    CommittedPair,
    IrvResult,
    KemenyResult,
    MinimaxResult,
    RankedPairsResult,
    SmithResult,
    TransitiveInference,
    condorcet_winner,
    irv_tabulate,
    kemeny_tabulate,
    minimax_tabulate,
    ranked_pairs_tabulate,
    smith_set,
)
from .assertions import (
    METHODS,
    Assertion,
    AssertionSet,
    FullHandCount,
    PairwisePositive,
    RankingComparison,
    SchemaError,
    ScoreComparison,
    assorter_mean,
    assorter_values,
    condorcet_assertions,
    describe,
    export_assertions,
    import_assertions,
    kemeny_assertions,
    method_assertions,
    minimax_assertions,
    ranked_pairs_assertions,
    smith_assertions,
)
from .audit import (
    ASNEstimate,
    AuditConfig,
    AuditReport,
    AuditSample,
    estimate_audit,
    kk_pvalue_trace,
    load_samples,
    run_audit,
)

__version__ = "0.1.0"
