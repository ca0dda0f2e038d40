"""Exception hierarchy shared across the package."""


class GroupAHPError(Exception):
    """Base class for all library errors."""


class DomainError(GroupAHPError, ValueError):
    """A value violates a mathematical precondition (e.g. non-positive entry)."""


class ShapeError(GroupAHPError, ValueError):
    """Dimensions of the inputs do not line up."""


class CredibilityOrderError(DomainError):
    """Credibility anchors came out unordered (h > m > l violated)."""


class EmptyReportError(GroupAHPError, ValueError):
    """A summary was requested over an empty record set."""


class PanelParseError(GroupAHPError):
    """A panel or config file is malformed: bad JSON, a missing key or a wrong type."""
