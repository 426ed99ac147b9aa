"""Distance-fraud analysis toolkit for graph-based distance-bounding protocols.

Core pieces: a labeled-digraph model with walk counting and an exact
most-frequent-sequence solver; generators for the canonical protocol
graphs; exact, brute-force, and Monte-Carlo computation of the
distance-fraud success probability; a SAT-to-frequency-gadget reduction
with empirical verification; and a round-by-round protocol simulator.
"""

from .cnf import CnfFormula, brute_force_sat, parse_dimacs, satisfies
from .errors import (
    DEFAULT_LIMITS,
    DimacsError,
    GraphError,
    GraphFormatError,
    LabelingConflictError,
    Limits,
    MfskitError,
    ProtocolError,
    ReductionError,
    ResourceLimitError,
)
from .fraud import (
    CdfTable,
    DistanceFraudReport,
    DyadicProbability,
    TreeExpectation,
    base_case_prob,
    brute_force_expected_max,
    distance_fraud_probability,
    expected_max_tree,
    expected_max_tree_float,
    monte_carlo_expected_max,
    recursive_prob,
)
from .generators import make_generalized_tree, make_poulidor, make_tree
from .graphs import (
    BinaryCheck,
    LabeledDigraph,
    graph_from_dict,
    graph_json_text,
    graph_to_dict,
    read_graph,
    validate_binary_instance,
    write_graph,
)
from .protocol import (
    AdversaryStrategy,
    ProtocolConfig,
    RateReport,
    SessionTranscript,
    early_reply,
    estimate_success_rate,
    exhaustive_challenge_success,
    greedy_early_reply,
    honest,
    label_graph_from_prf,
    run_session,
)
from .reduction import (
    ReductionOutput,
    ReductionParams,
    ReductionVerdict,
    WalkLengthVerdict,
    build_leaf_tree,
    check_maximal_walks,
    extract_assignment,
    reduce_sat_to_mfs,
    verify_reduction,
)
from .walks import (
    MfsResult,
    complementary_sibling_labeling,
    count_walks,
    enumerate_walk_sequences,
    most_frequent_sequence,
    occ_count,
)

__version__ = "0.1.0"
