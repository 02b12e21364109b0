"""Exception hierarchy shared by all diagnostic modules.

Errors are grouped into families so the command-line layer can map each
family to a stable exit code.
"""


class RdsError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 5


class IngestError(RdsError):
    """Structural problem found while reading or validating input files."""

    exit_code = 2


class MissingColumn(IngestError):
    pass


class MissingData(IngestError):
    pass


class DuplicateId(IngestError):
    pass


class DanglingCoupon(IngestError):
    """A redeemed coupon was issued by nobody in the dataset."""


class CycleDetected(IngestError):
    pass


class NonContiguousOrder(IngestError):
    """interview_order is not 1..n, or a recruiter is ordered after a recruit."""


class MalformedCell(IngestError):
    """A cell holds a value its column cannot parse (a number, date or
    yes/no answer)."""


class ConfigError(RdsError):
    exit_code = 3


class UnrealizableConfig(ConfigError):
    pass


class PopulationTooSmall(ConfigError):
    pass


class DataRequirementError(RdsError):
    """A diagnostic cannot run because required responses are absent."""

    exit_code = 4


class UnknownTrait(DataRequirementError):
    pass


class EmptySample(DataRequirementError):
    pass


class EmptySeries(DataRequirementError):
    pass


class TooFewTrees(DataRequirementError):
    pass


class NoData(DataRequirementError):
    pass


class NoEligibleRecruiters(DataRequirementError):
    pass


class InsufficientData(DataRequirementError):
    pass


class DegenerateTable(DataRequirementError):
    pass


class EmptyData(DataRequirementError):
    """A figure has nothing to draw."""
