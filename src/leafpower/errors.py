"""Exception types shared across the package."""


class LeafPowerError(Exception):
    """Base class for all package errors."""


class LabelNotFoundError(LeafPowerError, KeyError):
    """A leaf label or vertex id is not present in the tree."""


class DegenerateTreeError(LeafPowerError):
    """The tree is too small for the requested metric operation."""


class MalformedMetricError(LeafPowerError):
    """A distance mapping is not symmetric / zero on the diagonal."""


class MalformedTreeError(LeafPowerError):
    """Edge set is not a tree, weights non-positive, or labels invalid."""


class MalformedGraphError(LeafPowerError):
    """Adjacency data is not a simple undirected graph."""


class CertificateLabelMismatch(LeafPowerError):
    """Certificate leaf labels differ from the graph vertex set."""


class CapacityError(LeafPowerError):
    """Instance exceeds the configured brute-force size cap."""


class CeilingExceededError(LeafPowerError):
    """A k-leaf search would pass its k ceiling."""


class TocFormatError(LeafPowerError):
    """Triangle-order input is malformed or violates the ii < ik convention."""


class RealizationMismatchError(LeafPowerError):
    """A tree claimed to realize a triangle order violates a recorded triple."""


class InvalidWitnessError(LeafPowerError):
    """A certificate handed to a construction does not verify."""


class InternalError(LeafPowerError):
    """A self-check failed: a bug in the package, never an answer."""
