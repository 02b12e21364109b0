"""Exception hierarchy shared by all diagnostic modules.

One class per exit code, so the command-line layer maps each family to a
stable code: ``IngestError`` 2, ``UnrealizableConfig`` 3,
``DataRequirementError`` 4 and any other ``RdsError`` 5.  The four structure
errors name the rule of ``StudyDataset`` that a study breaks.
"""


class RdsError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 5


class IngestError(RdsError):
    """An input file that cannot be read, lacks a column, holds a cell its
    column cannot parse, or breaks a structure rule."""

    exit_code = 2


class DuplicateId(IngestError):
    """An id, trait, or issued or redeemed coupon that appears twice."""


class DanglingCoupon(IngestError):
    """A redeemed coupon was issued by nobody in the dataset."""


class CycleDetected(IngestError):
    """A respondent recruited by their own coupon."""


class NonContiguousOrder(IngestError):
    """interview_order is not 1..n, or a recruiter is ordered after a recruit."""


class UnrealizableConfig(RdsError):
    """A setting out of range, or one the study or the file system cannot
    meet (an SS population below the sample size, an unwritable path)."""

    exit_code = 3


class DataRequirementError(RdsError):
    """A diagnostic cannot run because the data it needs is absent."""

    exit_code = 4
