"""Interpolation nodes, certified Schur-class parameters, and the pointwise
analytic pipeline

    B  ->  omega  ->  s = B*omega  ->  c = (1+s)/(1-s)  ->  h = Re c,

together with the rank-one special system behind the phi-conditions.

All types are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    CayleySingularity,
    DuplicateNode,
    EmptyNodeList,
    NodeOutsideDisc,
    ParameterNotCertified,
    PoleHit,
    TooManyNodes,
)

#: |1 - s| below this raises CayleySingularity (atom signal, not a fault).
CAYLEY_SINGULARITY_THRESHOLD = 1e-9

#: Boundary samples used to certify a rational parameter.
CERTIFICATION_GRID_SIZE = 8192

#: Required headroom: certified sup|omega| <= 1 - this, so certified rational
#: parameters are strictly contractive and never spawn spurious atoms.
CERTIFICATION_HEADROOM = 1e-9

#: |gamma| within this of 1 is snapped to exactly unimodular (inner form).
UNIMODULAR_SNAP_TOL = 1e-12

#: Default residual tolerance of the special system (matches quadrature accuracy).
SPECIAL_SYSTEM_TOL = 1e-8

#: Largest node count.  Past the bounded phi pass and the streamed writer, memory grows
#: like n^2 (the Gram matrices in the measure document, the special system).  At
#: n = 1024 generate peaks at 99 MB of RSS (N = 4096) and 147 MB (N = 2**20), and verify,
#: which parses the whole 91 MB (119 MB) document, at 456 MB (650 MB); n = 4096 would
#: need about 10 GB.
MAX_NODES = 1024

_DISC_SLACK = 1e-12


@dataclass(frozen=True)
class NodeSet:
    """Pairwise-distinct interpolation nodes in the open unit disc."""

    points: tuple[complex, ...]

    def __post_init__(self):
        points = tuple(complex(p) for p in self.points)
        if not points:
            raise EmptyNodeList("at least one interpolation node is required")
        if len(points) > MAX_NODES:
            raise TooManyNodes(f"{len(points)} interpolation nodes, above the limit of {MAX_NODES}")
        for k, p in enumerate(points):
            if not abs(p) < 1.0:
                raise NodeOutsideDisc(f"node {k} = {p} is not inside the open unit disc")
        if len(set(points)) != len(points):
            raise DuplicateNode("interpolation nodes must be pairwise distinct")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)


def validate_nodes(points) -> NodeSet:
    """Validate a point list into a NodeSet, preserving input order."""
    return NodeSet(tuple(points))


def _snap_multiplier(gamma: complex) -> tuple[complex, bool]:
    modulus = abs(gamma)
    if not modulus <= 1.0 + UNIMODULAR_SNAP_TOL:
        raise ParameterNotCertified(f"|gamma| = {modulus} is not at most 1")
    if modulus >= 1.0 - UNIMODULAR_SNAP_TOL:
        return gamma / modulus, True
    return gamma, False


class SchurParameter:
    """A certified member of the Schur class.

    Only the three certified forms below exist; only inner parameters
    (unimodular multiplier) admit exact atom extraction.
    """

    @property
    def is_inner(self) -> bool:
        raise NotImplementedError

    def values(self, z):
        """Evaluate omega at a scalar or ndarray of points."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScaledBlaschke(SchurParameter):
    """omega = gamma * (finite Blaschke product with the given zeros); |gamma| = 1 is inner."""

    gamma: complex
    zeros: tuple[complex, ...] = ()
    _inner: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma, inner = _snap_multiplier(complex(self.gamma))
        zeros = tuple(complex(a) for a in self.zeros)
        for k, a in enumerate(zeros):
            if not abs(a) < 1.0:
                raise ParameterNotCertified(
                    f"Blaschke zero {k} = {a} is not inside the open unit disc"
                )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "_inner", inner)

    @property
    def is_inner(self) -> bool:
        return self._inner

    def values(self, z):
        # np.multiply, not gamma * B: on an owned temporary of 256 KiB or more the
        # operator works in place, with its operands swapped, and changes last bits.
        return np.multiply(self.gamma, blaschke_values(z, self.zeros))


@dataclass(frozen=True)
class Constant(ScaledBlaschke):
    """omega(z) = gamma with |gamma| <= 1: the scaled Blaschke product with no zeros."""

    zeros: tuple[complex, ...] = field(default=(), init=False, repr=False)


@dataclass(frozen=True)
class CertifiedRational(SchurParameter):
    """omega = p/q with q zero-free on the closed disc and a certified boundary bound.

    Coefficients are in ascending order.  Certification samples
    ``CERTIFICATION_GRID_SIZE`` uniform boundary points and requires
    sup|omega| <= 1 - CERTIFICATION_HEADROOM, so the form is strictly
    contractive (never inner).  The achieved sup is stored as the certificate.
    """

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    boundary_sup: float = field(init=False, compare=False)

    def __post_init__(self):
        num = tuple(complex(c) for c in self.numerator)
        den = tuple(complex(c) for c in self.denominator)
        if not num or not den:
            raise ParameterNotCertified("numerator and denominator must be non-empty")
        if not np.all(np.isfinite(num + den)):
            raise ParameterNotCertified("coefficients must be finite")
        den_trimmed = np.trim_zeros(np.asarray(den, dtype=complex), "b")
        if den_trimmed.size == 0:
            raise ParameterNotCertified("denominator is identically zero")
        if den_trimmed.size > 1:
            roots = npoly.polyroots(den_trimmed)
            bad = np.abs(roots) <= 1.0
            if np.any(bad):
                raise ParameterNotCertified(
                    f"denominator roots {roots[bad]} lie in the closed unit disc"
                )
        grid = np.exp(2j * np.pi * np.arange(CERTIFICATION_GRID_SIZE) / CERTIFICATION_GRID_SIZE)
        sup = float(np.max(np.abs(npoly.polyval(grid, num) / npoly.polyval(grid, den))))
        if not sup <= 1.0 - CERTIFICATION_HEADROOM:
            raise ParameterNotCertified(
                f"boundary sup {sup} exceeds the certified bound {1.0 - CERTIFICATION_HEADROOM}"
            )
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "boundary_sup", sup)

    @property
    def is_inner(self) -> bool:
        return False

    def values(self, z):
        za = np.asarray(z, dtype=complex)
        num = np.asarray(self.numerator, dtype=complex)
        den = np.asarray(self.denominator, dtype=complex)
        vals = npoly.polyval(za, num) / npoly.polyval(za, den)
        if za.ndim == 0:
            return complex(vals)
        return vals


def _require_closed_disc(za: np.ndarray) -> None:
    if za.size and float(np.max(np.abs(za))) > 1.0 + _DISC_SLACK:
        raise PoleHit("evaluation point outside the closed unit disc")


def blaschke_values(z, zeros):
    """Normalized Blaschke product with the given zeros at a scalar or array z, no disc check.

    The factor of a zero a = 0 is z itself.
    """
    za = np.asarray(z, dtype=complex)
    t = za.ravel()
    out = np.ones_like(t)
    for a in np.asarray(zeros, dtype=complex):
        if a == 0:
            out = out * t
        else:
            out = out * ((a - t) / (1.0 - a.conjugate() * t) * (abs(a) / a))
    return complex(out[0]) if za.ndim == 0 else out.reshape(za.shape)


def blaschke_eval(nodes: NodeSet, z):
    """Blaschke product of the nodes at z, factor z_k -> t replaced by t at z_k = 0."""
    _require_closed_disc(np.asarray(z, dtype=complex))
    return blaschke_values(z, nodes.points)


def schur_eval(param: SchurParameter, z):
    """Value of the certified parameter omega at z."""
    _require_closed_disc(np.asarray(z, dtype=complex))
    return param.values(z)


def s_eval(nodes: NodeSet, param: SchurParameter, z):
    """s = B * omega; vanishes at every node and is contractive on the disc."""
    return blaschke_eval(nodes, z) * schur_eval(param, z)


def herglotz_eval(nodes: NodeSet, param: SchurParameter, z):
    """h = Re c computed as (1-|s|^2)/|1-s|^2, non-negative by construction."""
    return herglotz_from_s(s_eval(nodes, param, z))


def herglotz_samples(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = (1-|s|^2)/|1-s|^2 on an array of s, and the mask where |1 - s| < CAYLEY_SINGULARITY_THRESHOLD.

    Masked entries of h are zero: so close to s = 1, h is not a density sample.
    """
    gap = np.abs(1.0 - s)
    flagged = gap < CAYLEY_SINGULARITY_THRESHOLD
    # In place: one float array besides gap (a sweep's row blocks with six, one per
    # operation, made glibc trim and re-fault the heap on every block).
    gap[flagged] = 1.0
    h = np.abs(s)
    np.subtract(1.0, np.square(h, out=h), out=h)
    np.divide(h, np.square(gap, out=gap), out=h)
    h[flagged] = 0.0
    return h, flagged


def _singularity(gap) -> CayleySingularity:
    return CayleySingularity(f"|1 - s| = {float(gap)} below threshold {CAYLEY_SINGULARITY_THRESHOLD}")


def herglotz_from_s(s):
    """h = (1-|s|^2)/|1-s|^2 from values of s; CayleySingularity where s is near 1.

    One value (a Python or numpy number) takes numpy scalar operations and returns a
    float, bit for bit what the array formula gives on a 0-d array, without its array
    overhead: gap * gap is how the array path squares, and gap ** 2 on a scalar is not.
    """
    if not isinstance(s, (complex, float, int)):
        sa = np.asarray(s, dtype=complex)
        if sa.ndim:
            h, flagged = herglotz_samples(sa)
            if flagged.any():
                raise _singularity(np.min(np.abs(1.0 - sa)))
            return h
        s = complex(sa)
    gap = np.abs(1.0 - s)
    if gap < CAYLEY_SINGULARITY_THRESHOLD:
        raise _singularity(gap)
    return float((1.0 - np.abs(s) ** 2) / (gap * gap))


@dataclass(frozen=True)
class SpecialSystemResult:
    """Outcome of the rank-one system phi_k + conj(phi_l) = 2 (all pairs).

    ``residual`` is the mean absolute defect |phi_k + conj(phi_l) - 2| over
    the n^2 ordered pairs (it equals the single defect when n = 1);
    ``max_defect`` is the worst pair and decides solvability.
    """

    beta: float | None
    residual: float
    max_defect: float

    @property
    def solvable(self) -> bool:
        return self.beta is not None


def solve_special_system(phi, tol: float = SPECIAL_SYSTEM_TOL) -> SpecialSystemResult:
    """Solve phi_k + conj(phi_l) = 2 for the common value phi_k = 1 - i*beta.

    Returns beta = -mean(Im phi) when every pairwise defect is within ``tol``,
    otherwise a NotSolvable result carrying the defect diagnostics.
    """
    values = np.asarray(list(phi), dtype=complex)
    if values.size == 0:
        raise EmptyNodeList("the special system needs at least one value")
    defects = np.abs(values[:, None] + values[None, :].conj() - 2.0)
    max_defect = float(defects.max())
    residual = float(defects.mean())
    if max_defect <= tol:
        return SpecialSystemResult(float(-values.imag.mean()), residual, max_defect)
    return SpecialSystemResult(None, residual, max_defect)


def mass_bound_base(nodes: NodeSet) -> float:
    """B(0) = prod |z_k|, the quantity governing the sharp mass bounds."""
    return float(np.prod(np.abs(nodes.as_array())))
