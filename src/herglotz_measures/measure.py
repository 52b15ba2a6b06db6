"""Recovery of the representing measure of h = Re (1+B*omega)/(1-B*omega).

Strictly contractive parameters give an absolutely continuous measure,
sampled on a uniform circle grid against normalized Lebesgue measure
(density 1 means the Lebesgue measure itself).  Inner parameters give a
purely atomic measure whose atoms sit where B*omega = 1 on the circle;
locations come from tracking the boundary phase (strictly increasing, total
winding 2*pi*degree) and weights from the boundary residue
mu = 1/(t0 * s'(t0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .analytic import (
    CAYLEY_SINGULARITY_THRESHOLD,
    BoundaryPoint,
    NodeSet,
    ScaledBlaschke,
    SchurParameter,
    blaschke_log_derivative,
    blaschke_values,
    herglotz_eval,
)
from .errors import (
    AtomWeightNotReal,
    MassConsistencyFailure,
    NotInnerParameter,
    PhaseWindingMismatch,
    UnsupportedMixedCase,
)

TWO_PI = 2.0 * math.pi

DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 256
#: Largest quadrature grid: 2**20 points are 16 MiB per complex array.
MAX_GRID_SIZE = 1 << 20

#: Quadrature mass must match herglotz_eval(..., 0) this closely.
MASS_CONSISTENCY_TOL = 1e-9

#: Allowed imaginary residual of the residue weight formula.
ATOM_IMAG_TOL = 1e-10

#: Newton stop on |s(t0) - 1| when refining atom locations.
NEWTON_TARGET = 1e-13
NEWTON_MAX_ITER = 50

_ATOM_SCAN_SIZE = 4096
_ATOM_SCAN_CAP = 1 << 20
_WINDING_TOL = 1e-6


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class MeasureKind(Enum):
    ABSOLUTELY_CONTINUOUS = "absolutely-continuous"
    PURELY_ATOMIC = "purely-atomic"
    MIXED = "mixed"


@dataclass(frozen=True)
class CircleGrid:
    """Uniform power-of-two grid t_j = exp(2*pi*i*j/N) on the circle."""

    size: int
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_power_of_two(self.size):
            raise ValueError(f"grid size {self.size} is not a positive power of two")
        angles = TWO_PI * np.arange(self.size) / self.size
        points = np.exp(1j * angles)
        angles.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "points", points)


def check_grid_size(size) -> None:
    """Raise ValueError unless ``size`` is a power of two in [MIN_GRID_SIZE, MAX_GRID_SIZE]."""
    if (
        not isinstance(size, int)
        or isinstance(size, bool)
        or not MIN_GRID_SIZE <= size <= MAX_GRID_SIZE
        or not _is_power_of_two(size)
    ):
        raise ValueError(
            f"grid size must be a power of two in [{MIN_GRID_SIZE}, {MAX_GRID_SIZE}], "
            f"got {size!r}"
        )


@lru_cache(maxsize=4)
def circle_grid(size: int) -> CircleGrid:
    """The shared CircleGrid of this size; its arrays are read-only."""
    return CircleGrid(size)


@lru_cache(maxsize=4)
def grid_blaschke(nodes: NodeSet, grid: CircleGrid) -> np.ndarray:
    """Read-only B of the nodes on the grid, shared by every parameter on these nodes."""
    values = blaschke_values(grid.points, nodes.as_array())
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Atom:
    """Point mass of the representing measure, located on the unit circle."""

    angle: float
    location: complex
    weight: float

    def __post_init__(self):
        if not abs(abs(self.location) - 1.0) <= 1e-12:
            raise ValueError(f"atom location {self.location} is not on the unit circle")
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"atom weight {self.weight} must be a positive real")

    @classmethod
    def at_angle(cls, angle: float, weight: float) -> "Atom":
        angle = float(angle) % TWO_PI
        return cls(angle=angle, location=complex(np.exp(1j * angle)), weight=float(weight))

    @property
    def point(self) -> BoundaryPoint:
        return BoundaryPoint(angle=self.angle, value=self.location)


@dataclass(frozen=True, eq=False)
class GeneratedMeasure:
    """A measure on the circle: sampled density plus exact atoms.

    ``param`` is None for externally assembled data (e.g. deserialized or
    hand-made test measures); generated measures always carry their parameter.
    """

    nodes: NodeSet
    param: SchurParameter | None
    grid: CircleGrid
    density: np.ndarray
    atoms: tuple[Atom, ...]
    kind: MeasureKind
    #: Quadrature mass: density mean plus atom weights (unchecked; see total_mass).
    mass: float = field(init=False, repr=False)

    def __post_init__(self):
        density = np.ascontiguousarray(self.density, dtype=float)
        if density.shape != (self.grid.size,):
            raise ValueError(
                f"density has {density.shape[0]} samples, grid has {self.grid.size}"
            )
        density.setflags(write=False)
        atoms = tuple(self.atoms)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "mass", float(density.mean()) + sum(a.weight for a in atoms))

    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        locs = np.asarray([a.location for a in self.atoms], dtype=complex)
        weights = np.asarray([a.weight for a in self.atoms], dtype=float)
        return locs, weights


def _density_values(s: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Herglotz density (1-|s|^2)/|1-s|^2 with near-singular entries zeroed and flagged."""
    gap = np.abs(1.0 - s)
    flagged = gap < threshold
    safe = np.where(flagged, 1.0, gap)
    density = np.where(flagged, 0.0, (1.0 - np.abs(s) ** 2) / safe**2)
    return density, flagged


def boundary_density(
    nodes: NodeSet, param: SchurParameter, grid: CircleGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Densities h(t_j) = (1-|s|^2)/|1-s|^2 plus a mask of near-singular points.

    Flagged entries (|1 - s| below the Cayley singularity threshold) are set
    to zero so that quadrature automatically excludes them.
    """
    s = grid_blaschke(nodes, grid) * param.values(grid.points)
    return _density_values(s, CAYLEY_SINGULARITY_THRESHOLD)


def _inner_data(nodes: NodeSet, param: SchurParameter) -> tuple[complex, tuple[complex, ...]]:
    extra = param.zeros if isinstance(param, ScaledBlaschke) else ()
    return param.gamma, nodes.points + tuple(extra)


def _scalar_s(gamma: complex, zeros_arr: np.ndarray, theta: float) -> complex:
    t = complex(np.exp(1j * theta))
    return gamma * complex(blaschke_values(np.array([t]), zeros_arr)[0])


def _scalar_slope(zeros_arr: np.ndarray, theta: float) -> float:
    """Boundary phase derivative of the Blaschke product: sum((1-|a|^2)/|t-a|^2)."""
    t = np.array([complex(np.exp(1j * theta))])
    out = np.zeros(1)
    for a in zeros_arr:
        out += (1.0 - abs(a) ** 2) / np.abs(t - a) ** 2
    return float(out[0])


def _refine_root(
    lo: float,
    hi: float,
    phase_lo: float,
    phase_hi: float,
    target: float,
    gamma: complex,
    zeros_arr: np.ndarray,
) -> float:
    # Inside the bracket the principal argument of s equals phase - target.
    theta = lo + (target - phase_lo) / (phase_hi - phase_lo) * (hi - lo)
    best_theta, best_resid = theta, math.inf
    for _ in range(NEWTON_MAX_ITER):
        sv = _scalar_s(gamma, zeros_arr, theta)
        resid = abs(sv - 1.0)
        if resid < best_resid:
            best_theta, best_resid = theta, resid
        defect = math.atan2(sv.imag, sv.real)
        if resid <= NEWTON_TARGET:
            # one polishing step; quadratic convergence lands near eps
            polished = theta - defect / _scalar_slope(zeros_arr, theta)
            if lo <= polished <= hi and abs(_scalar_s(gamma, zeros_arr, polished) - 1.0) < resid:
                return polished
            return theta
        if defect > 0.0:
            hi = theta
        elif defect < 0.0:
            lo = theta
        candidate = theta - defect / _scalar_slope(zeros_arr, theta)
        theta = candidate if lo < candidate < hi else 0.5 * (lo + hi)
    # Newton budget exhausted: bisection on the sign of the phase defect.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        sv = _scalar_s(gamma, zeros_arr, mid)
        resid = abs(sv - 1.0)
        if resid < best_resid:
            best_theta, best_resid = mid, resid
        if resid <= NEWTON_TARGET or hi - lo < 1e-15:
            break
        if math.atan2(sv.imag, sv.real) > 0.0:
            hi = mid
        else:
            lo = mid
    return best_theta


def find_atoms(nodes: NodeSet, param: SchurParameter) -> tuple[Atom, ...]:
    """Locate and weigh the atoms of the measure of an inner parameter.

    s = B*omega is a unimodular constant times a Blaschke product of degree
    d = n + deg(omega); its boundary phase increases by exactly 2*pi*d, so
    each solution of s(t) = 1 is bracketed by a phase crossing of a multiple
    of 2*pi and refined by Newton iteration on the phase defect.
    """
    if not param.is_inner:
        raise NotInnerParameter("atom extraction requires an inner parameter")
    gamma, zeros = _inner_data(nodes, param)
    zeros_arr = np.asarray(zeros, dtype=complex)
    degree = zeros_arr.size

    size = _ATOM_SCAN_SIZE
    while True:
        theta = np.linspace(0.0, TWO_PI, size + 1)
        svals = gamma * blaschke_values(np.exp(1j * theta), zeros_arr)
        phase = np.unwrap(np.angle(svals))
        winding = phase[-1] - phase[0]
        if np.all(np.diff(phase) > 0.0) and abs(winding - TWO_PI * degree) < _WINDING_TOL:
            break
        size *= 2
        if size > _ATOM_SCAN_CAP:
            raise PhaseWindingMismatch(
                f"boundary winding {winding / TWO_PI} never settled at degree {degree}"
            )

    first_crossing = math.ceil(phase[0] / TWO_PI)
    atoms = []
    for k in range(degree):
        target = TWO_PI * (first_crossing + k)
        idx = int(np.searchsorted(phase, target))
        if idx == 0:
            theta_root = theta[0]
        else:
            theta_root = _refine_root(
                theta[idx - 1], theta[idx], phase[idx - 1], phase[idx],
                target, gamma, zeros_arr,
            )
        t0 = complex(np.exp(1j * theta_root))
        s0 = gamma * complex(blaschke_values(np.array([t0]), zeros_arr)[0])
        s_prime = s0 * blaschke_log_derivative(zeros, t0)
        weight = 1.0 / (t0 * s_prime)
        if abs(weight.imag) > ATOM_IMAG_TOL:
            raise AtomWeightNotReal(
                f"residue weight {weight} at angle {theta_root} is not real"
            )
        atoms.append(Atom.at_angle(theta_root, weight.real))

    if len(atoms) != degree:
        raise PhaseWindingMismatch(f"found {len(atoms)} atoms, expected {degree}")
    return tuple(sorted(atoms, key=lambda a: a.angle))


def build_measure(
    nodes: NodeSet, param: SchurParameter, grid_size: int = DEFAULT_GRID_SIZE
) -> GeneratedMeasure:
    """Recover the representing measure of the parameter: atoms or density.

    The result is cross-checked: its quadrature mass must match the Herglotz
    value at the origin (MassConsistencyFailure otherwise).
    """
    check_grid_size(grid_size)
    grid = circle_grid(grid_size)
    if param.is_inner:
        measure = GeneratedMeasure(
            nodes=nodes,
            param=param,
            grid=grid,
            density=np.zeros(grid.size),
            atoms=find_atoms(nodes, param),
            kind=MeasureKind.PURELY_ATOMIC,
        )
    else:
        density, flagged = boundary_density(nodes, param, grid)
        if flagged.any():
            raise UnsupportedMixedCase(
                f"{int(flagged.sum())} boundary points of a non-inner parameter "
                "came within the singularity threshold of s = 1"
            )
        measure = GeneratedMeasure(
            nodes=nodes,
            param=param,
            grid=grid,
            density=density,
            atoms=(),
            kind=MeasureKind.ABSOLUTELY_CONTINUOUS,
        )
    total_mass(measure)
    return measure


def integrate_against(measure: GeneratedMeasure, f) -> complex:
    """Integral of f against the measure: grid trapezoid rule plus atom sums.

    ``f`` must accept complex scalars and ndarrays (numpy-style).  The
    trapezoid rule on the uniform grid is spectrally accurate for smooth
    periodic integrands.
    """
    total = 0.0 + 0.0j
    if np.any(measure.density):
        values = np.asarray(f(measure.grid.points))
        total += complex(np.mean(measure.density * values))
    if measure.atoms:
        locations, weights = measure.atom_arrays()
        total += complex(np.sum(weights * np.asarray(f(locations))))
    return total


def total_mass(measure: GeneratedMeasure, *, consistency_tol: float = MASS_CONSISTENCY_TOL) -> float:
    """Total mass by quadrature, cross-checked against the Herglotz value at 0."""
    mass = measure.mass
    if measure.param is not None:
        expected = herglotz_eval(measure.nodes, measure.param, 0j)
        if abs(mass - expected) > consistency_tol:
            raise MassConsistencyFailure(
                f"quadrature mass {mass} vs h(0) = {expected} "
                f"(difference {abs(mass - expected):.3e})"
            )
    return mass


def phi_sigma(measure: GeneratedMeasure, z: complex) -> complex:
    """The associated function phi(z) = integral of (t+z)/(t-z) d(sigma)."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("phi_sigma is defined for |z| < 1")
    total = 0.0 + 0.0j
    if np.any(measure.density):
        t = measure.grid.points
        total += complex(np.mean(measure.density * (t + z) / (t - z)))
    for atom in measure.atoms:
        total += atom.weight * (atom.location + z) / (atom.location - z)
    return total
