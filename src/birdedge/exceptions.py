"""Exception types shared across the toolkit.

Every input error the package raises on purpose is a BirdEdgeError, and the
command line reports exactly these (and OSError) as exit 1; any other
exception is a bug. BirdEdgeError is also a ValueError, so callers that
catch ValueError for a bad argument keep working.
"""


class BirdEdgeError(ValueError):
    """Base class for every error this package raises on purpose."""


class FormatError(BirdEdgeError):
    """A file is malformed: bad magic, truncated payload, garbage fields, an unreadable CSV row."""


class UnsupportedError(BirdEdgeError):
    """The container is valid but uses an encoding this toolkit does not handle."""


class ConfigError(BirdEdgeError):
    """A configuration value violates its documented constraints."""


class ShapeError(BirdEdgeError):
    """Array arguments have incompatible shapes."""


class GraphError(BirdEdgeError):
    """A model graph fails structural validation."""


class DegenerateInputError(BirdEdgeError):
    """Input is degenerate for the requested operation, e.g. all zeros."""


class EmptyError(BirdEdgeError):
    """An operation that needs at least one element got an empty collection."""
