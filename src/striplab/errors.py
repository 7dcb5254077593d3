"""Exception and warning types shared across the package."""


class StripLabError(Exception):
    """Base class for all errors raised by this package."""


# -- geometry -----------------------------------------------------------------

class EnvelopeViolation(StripLabError):
    """A metric sample left its certified Taylor envelope (integrator bug)."""


class NonPositiveMetric(StripLabError):
    """The integrated metric factor became non-positive somewhere."""


class CurvatureDomainError(StripLabError):
    """Envelope bound undefined: column curvature bound times a^2 >= 1."""


class GeometryInvalid(StripLabError):
    """Strip parameters violate the basic smallness or truncation invariants."""


# -- spectral -----------------------------------------------------------------

class SingularMass(StripLabError):
    """A retained node carries non-positive lumped mass."""


class NoConvergence(StripLabError):
    """Eigensolver did not converge; the message gives the largest residual and the tolerance."""


class ShiftInsideSpectrum(StripLabError):
    """The shift-invert shift is not strictly below the spectrum."""


class GridMisaligned(StripLabError):
    """No grid node at a required location (e.g. origin for the pinned problem),
    or a pair that does not sit on its grid's stencil structure."""


class HypothesisFailed(StripLabError):
    """A spectral hypothesis (e.g. sign of the transverse gap) does not hold."""


class TruncationWarning(UserWarning):
    """Computational box likely too small for the requested eigenvalues."""


# -- evolution ----------------------------------------------------------------

class NotInWeightedSpace(StripLabError):
    """Requested initial datum has infinite Gaussian-weighted norm."""


class LinearSolveFailure(StripLabError):
    """Implicit time step could not be solved."""


class BadCheckpoint(StripLabError):
    """A checkpoint lies before the initial time or would repeat a sample."""


class DegenerateFit(StripLabError):
    """Too few trajectory samples inside the fit window."""


# -- stochastic ---------------------------------------------------------------

class BadStart(StripLabError):
    """Starting point lies outside the open strip."""


class StepTooLarge(StripLabError):
    """Time step violates the kill-resolution precondition."""


class CheckpointMissing(StripLabError):
    """Requested time was not recorded in the ensemble."""


class TooFewSurvivors(StripLabError):
    """Not enough surviving paths for a conditional histogram."""


class InsufficientSignal(StripLabError):
    """Too few estimates bounded away from the confidence floor and below 1."""


# -- oracle -------------------------------------------------------------------

class TailTooLarge(StripLabError):
    """Series truncation error exceeds the requested tolerance."""


# -- cli ----------------------------------------------------------------------

class ConfigInvalid(StripLabError):
    """Experiment configuration fails validation (exit code 2)."""


class NumericalFailure(StripLabError):
    """An experiment failed numerically (exit code 3)."""


class AcceptanceFailure(StripLabError):
    """One or more acceptance criteria failed (exit code 4, report mode)."""

