"""Exception hierarchy shared across the package."""


class ArrangeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(ArrangeError):
    """A configuration value or CLI argument is out of its allowed range."""


class DimensionMismatch(ArrangeError):
    """Array shapes disagree with the architecture configuration."""


class LevelOutOfRange(ArrangeError):
    """A cell holds a value outside the 0..15 program-level range."""


class NotABijection(ArrangeError):
    """A permutation or mapping table does not visit every index exactly once."""


class TooFewWordlines(ArrangeError):
    """The operation needs at least three wordlines."""


class TooManyWordlines(ArrangeError):
    """Exhaustive enumeration refused; the factorial search space is too large."""


class TooFewBlocks(ArrangeError):
    """Dataset splitting needs at least ten blocks."""


class CodecError(ArrangeError):
    """Base class for binary format decode failures."""


class BadMagic(CodecError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersion(CodecError):
    """File carries a format version this build does not understand."""


class TruncatedFile(CodecError):
    """File size does not match what the header promises."""


class NonFiniteLoss(ArrangeError):
    """Training loss or a gradient left the finite range; ``epoch`` names the
    training epoch, or is None for a lone backward pass."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
