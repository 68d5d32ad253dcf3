"""Exact-arithmetic toolkit for leaf powers, PCGs, and generalized leaf powers."""

from .errors import (
    CapacityError,
    CeilingExceededError,
    CertificateLabelMismatch,
    DegenerateTreeError,
    InternalError,
    InvalidWitnessError,
    LabelNotFoundError,
    LeafPowerError,
    MalformedGraphError,
    MalformedMetricError,
    MalformedTreeError,
    RealizationMismatchError,
    TocFormatError,
)
from .glp_core import (
    GlpCertificate,
    SimpleGraph,
    ThresholdSequence,
    complement,
    disjoint_union,
    graph_from_certificate,
    integerize_certificate,
    integerize_certificate_info,
    is_chordal,
    verify_certificate,
)
from .rational import Rational, format_rational, parse_rational
from .recognition import (
    RecognitionLimits,
    TopologyCatalog,
    enumerate_topologies,
    is_k_leaf_power,
    leaf_rank,
    recognize_glp,
)
from .reductions import (
    ExtendedOrder,
    GadgetGraph,
    TocInstance,
    build_gs,
    cert_complement,
    cert_lift,
    extend_order,
    extract_toc_tree,
    glp_step,
    leaf_root_from_tree,
    non_glp_family,
    toc_from_tree,
    toc_realizability_small,
)
from .tree_metric import (
    VIOLATION,
    QuartetVerdict,
    WeightedTree,
    check_split_lemma,
    check_twins_lemma,
    classify_leaf_quartet,
    contract_degree_two,
    diameter,
    distance,
    four_point_classify,
    restrict_to_leaves,
)

__version__ = "0.1.0"
