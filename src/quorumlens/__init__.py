"""Safety and influence analysis for open quorum systems on trust networks.

The package models networks where each node chooses whom to trust and
which coalitions of trustees may settle its opinion, then answers three
families of questions exactly, at desk scale:

* can two honest nodes ever settle on opposite values (fork and
  strong-fork search, quorum intersection with witnesses);
* what do quota rules force structurally (observation and trust-overlap
  bounds, common trust, expansion to explicit coalitions);
* who actually controls outcomes (pivot-probability influence matrices,
  their digraph structure, and the limit of their powers).

A DIMACS-driven reduction generates provably hard quorum-intersection
instances, and a seeded generator supplies random networks for the
property suites. The ``quorumlens`` command line fronts all of it.
"""

from .bounds import (
    ObservationBounds,
    OverlapReport,
    check_overlap_bounds,
    common_trust_set,
    expand_quota_network,
    observation_bounds,
    overlap_premise_holds,
    respects_failure_model,
    shared_byzantine_bound,
)
from .influence import (
    CentralizationReport,
    InfluenceGraph,
    InfluenceMatrix,
    LimitReport,
    analyze_graph,
    banzhaf_raw_row,
    banzhaf_row,
    centralization_limit_report,
    influence_matrix,
    is_idempotent_exact,
    limit_matrix,
)
from .instances import (
    Cnf,
    DimacsError,
    GenParams,
    brute_sat,
    cnf_to_network,
    decode_qi_witness,
    parse_dimacs,
    random_quota_network,
    satisfies,
    serialize_dimacs,
    slice_addition_instance,
)
from .netio import (
    LoadedNetwork,
    NetworkFormatError,
    load_network,
    load_network_file,
    network_document,
    parse_network_document,
    save_network,
)
from .network import (
    BudgetExceededError,
    ForkWitness,
    Network,
    NetworkValidationError,
    NodeId,
    OpinionProfile,
    QuotaNetwork,
    QuotaRangeWarning,
    TrustNetwork,
    as_fraction,
    find_fork,
    network_violations,
    observed_set,
    profile_violations,
    threshold,
    validate_network,
    validates,
    with_veto_slices,
)
from .quorum import (
    QuorumReport,
    check_qi_honest,
    check_quorum_intersection,
    check_slice_addition,
    find_strong_fork,
    is_quorum,
    max_quorum_within,
    minimal_quora,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CentralizationReport",
    "Cnf",
    "DimacsError",
    "ForkWitness",
    "GenParams",
    "InfluenceGraph",
    "InfluenceMatrix",
    "LimitReport",
    "LoadedNetwork",
    "Network",
    "NetworkFormatError",
    "NetworkValidationError",
    "NodeId",
    "ObservationBounds",
    "OpinionProfile",
    "OverlapReport",
    "QuorumReport",
    "QuotaNetwork",
    "QuotaRangeWarning",
    "TrustNetwork",
    "analyze_graph",
    "as_fraction",
    "banzhaf_raw_row",
    "banzhaf_row",
    "brute_sat",
    "centralization_limit_report",
    "check_overlap_bounds",
    "check_qi_honest",
    "check_quorum_intersection",
    "check_slice_addition",
    "cnf_to_network",
    "common_trust_set",
    "decode_qi_witness",
    "expand_quota_network",
    "find_fork",
    "find_strong_fork",
    "influence_matrix",
    "is_idempotent_exact",
    "is_quorum",
    "limit_matrix",
    "load_network",
    "load_network_file",
    "max_quorum_within",
    "minimal_quora",
    "network_document",
    "network_violations",
    "observation_bounds",
    "observed_set",
    "overlap_premise_holds",
    "parse_dimacs",
    "parse_network_document",
    "profile_violations",
    "random_quota_network",
    "respects_failure_model",
    "satisfies",
    "save_network",
    "serialize_dimacs",
    "shared_byzantine_bound",
    "slice_addition_instance",
    "threshold",
    "validate_network",
    "validates",
    "with_veto_slices",
]
