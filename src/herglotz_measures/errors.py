"""Domain exceptions shared across the package."""


class HerglotzMeasureError(Exception):
    """Base class for every domain error raised by this package."""


class NodeOutsideDisc(HerglotzMeasureError):
    """An interpolation node lies on or outside the unit circle, or has a subnormal modulus."""


class DuplicateNode(HerglotzMeasureError):
    """Two interpolation nodes coincide exactly."""


class EmptyNodeList(HerglotzMeasureError):
    """No interpolation nodes were supplied."""


class TooManyNodes(HerglotzMeasureError):
    """More interpolation nodes than MAX_NODES were supplied."""


class ParameterNotCertified(HerglotzMeasureError):
    """A parameter failed its Schur-class certificate."""


class PoleHit(HerglotzMeasureError):
    """Evaluation outside the closed unit disc, where 1 - conj(z_k)*z may vanish."""


class CayleySingularity(HerglotzMeasureError):
    """s came within the singularity threshold of 1.

    On the boundary this signals an atom location of the representing
    measure rather than a fault.
    """


class NotInnerParameter(HerglotzMeasureError):
    """Atom extraction requested for a parameter that is not inner."""


class PhaseWindingMismatch(HerglotzMeasureError):
    """The boundary phase solve did not give one converged atom per degree."""


class UnsupportedMixedCase(HerglotzMeasureError):
    """Defensive: a non-inner parameter grazed the unit circle on the grid."""


class MassConsistencyFailure(HerglotzMeasureError):
    """Quadrature mass disagrees with the Herglotz value at the origin."""


class SchemaError(HerglotzMeasureError):
    """A document or job configuration does not match its schema."""
