"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all anivex errors."""


class NotExpansive(ToolkitError):
    """The matrix has an eigenvalue of modulus <= 1."""


class SeriesDivergence(ToolkitError):
    """The shape matrix violates the dilation inequality."""


class ScaleOverflow(ToolkitError):
    """A quasi-norm level search left the configured level cap."""


class EmptyMask(ToolkitError):
    """A ball contains no lattice point of the grid."""


class ScaleTooFine(ToolkitError):
    """A rescaled kernel's support dropped below one grid cell."""


class NonFinite(ToolkitError):
    """A norm computation produced no finite positive value."""


class NotConjugable(ToolkitError):
    """Conjugate exponent requested for an exponent with p_minus <= 1."""


class InsufficientSamples(ToolkitError):
    """The ball's lattice points do not fix a polynomial of the requested
    degree: too few of them, or all on the zero set of one such polynomial."""


class ZeroDenominator(ToolkitError):
    """A configuration produced a zero aggregation norm."""


class DegenerateSeed(ToolkitError):
    """The atom seed coincides with a polynomial on the ball."""


class CoverFailure(ToolkitError):
    """Tent decomposition leaked more mass than the configured bound."""


class FourierBoundFailure(ToolkitError):
    """Analyzing function failed the Fourier lower bound after retry."""


class ConfigError(ToolkitError):
    """An experiment config file failed to parse or validate."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class CorruptFile(ToolkitError, ValueError):
    """A binary lattice file failed its header or size check on load."""


class UnknownSuite(ToolkitError):
    """Requested verification suite name does not exist."""
