"""Exception types shared across the package."""


class CmsError(Exception):
    """Base class for all cmsvote errors."""


class BudgetExceeded(CmsError):
    """Factor or bucket tables would exceed ``_scan.MAX_TABLE_ENTRIES``."""


class NotGroupDichotomous(CmsError):
    """A solver requiring group-dichotomous binary ballots was given something else.

    Carries a witness describing the first offending statement (or issue).
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not group-dichotomous: {witness}")


class InvalidDecomposition(CmsError):
    """A supplied tree decomposition violates one of the decomposition conditions."""


class InternalMismatch(CmsError):
    """A solver's claimed cost disagrees with the recomputed dissatisfaction.

    This signals a bug in a reduction or kernel and must abort the run.
    """


class Intractable(CmsError):
    """No solver route applies to some component of the instance."""

    def __init__(self, report):
        self.report = report
        super().__init__("instance classified as intractable")


class ParseError(CmsError):
    """Input document rejected; carries the offending line number."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
