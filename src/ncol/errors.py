"""Exception types shared across the package."""


class NcolError(Exception):
    """Base class for all package-specific errors."""


class CollisionConfiguration(NcolError):
    """Two bodies closer than the collision threshold."""


class ZeroConfiguration(NcolError):
    """Configuration with zero moment of inertia."""


class OverflowingConfiguration(NcolError):
    """Configuration whose moment of inertia about its center of mass overflows."""


class InvalidMass(NcolError):
    """Nonpositive mass."""


class InvalidN(NcolError):
    """Body count outside the valid range for a family."""


class NotCentral(NcolError):
    """Centrality residual exceeds tolerance."""


class NoConvergence(NcolError):
    """Iterative solver exhausted its iteration budget."""


class ConvergedToCollision(NcolError):
    """Solver iterate entered the collision neighborhood."""


class BracketFailure(NcolError):
    """Root bracket endpoints do not change sign."""


class StepFailure(NcolError):
    """Adaptive step size underflowed."""


class EllipsoidDrift(NcolError):
    """Per-step constraint correction exceeded its bound."""


class NotTangent(NcolError, ValueError):
    """Direction is not an admissible tangent at the shape, up to round-off."""


class SupportOutOfRange(NcolError):
    """Variation support exceeds the integrated horizon, or is too narrow to refine."""


class OverlappingSupports(NcolError):
    """Bump supports are not pairwise disjoint."""


class NotHomographic(NcolError):
    """Trajectory has nonzero shape velocity where a frozen shape is required."""


class NonCollapsing(NcolError):
    """Radial variable fails to decrease toward collision."""


class InsufficientHorizon(NcolError):
    """Trajectory too short to estimate asymptotic limits."""
