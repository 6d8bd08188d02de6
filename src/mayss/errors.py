"""Exception types shared across the package."""


class MayssError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(MayssError):
    """Out-of-range or inconsistent parameters (bad prime, bad indices, bad query)."""


class ParseError(MayssError):
    """Malformed element text. Carries the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position

