"""Recovery of the representing measure of h = Re (1+B*omega)/(1-B*omega).

Strictly contractive parameters give an absolutely continuous measure,
sampled on a uniform circle grid against normalized Lebesgue measure
(density 1 means the Lebesgue measure itself).  Inner parameters give a
purely atomic measure whose atoms sit where B*omega = 1 on the circle.
On the circle arg(B*omega) has a closed-form, strictly increasing lift Phi
(total increase 2*pi*degree) whose slope is the Poisson sum of the zeros;
the atoms are the solutions of Phi = 2*pi*m and their residue weights
mu = 1/(t0 * s'(t0)) equal 1/Phi'(theta0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .analytic import (
    CAYLEY_SINGULARITY_THRESHOLD,
    NodeSet,
    ScaledBlaschke,
    SchurParameter,
    blaschke_values,
    herglotz_eval,
)
from .errors import (
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

#: Iteration cap of the safeguarded Newton solve for the atom angles.
NEWTON_MAX_ITER = 50

#: Angles at which the boundary phase is scanned for root brackets.
_ATOM_SCAN_SIZE = 4096


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


def _boundary_lift(
    gamma: complex, zeros: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous boundary phase Phi of s = gamma * B_zeros at the angles theta, and Phi'.

    On t = exp(i*theta) the factor (|a|/a)(a - t)/(1 - conj(a) t) has argument
    pi - arg(a) + theta + 2*Arg(1 - a exp(-i*theta)), and t for a = 0.  Each
    Arg term is continuous because |a exp(-i*theta)| < 1, so

        Phi = arg(gamma) + sum_{a != 0} (pi - arg a) + d*theta + 2*sum_a Arg(1 - a exp(-i*theta))

    is an exact lift of arg s, and Phi' = sum_a (1 - |a|^2)/|1 - a exp(-i*theta)|^2
    (the Poisson sum) is positive.  The loop over the zeros keeps memory at O(theta.size).
    """
    rotation = np.exp(-1j * theta)
    args = np.zeros(theta.shape)
    slope = np.zeros(theta.shape)
    for a in zeros:
        factor = 1.0 - a * rotation
        args += np.angle(factor)
        slope += (1.0 - abs(a) ** 2) / np.abs(factor) ** 2
    offset = cmath.phase(gamma) + sum(math.pi - cmath.phase(a) for a in zeros if a != 0)
    return offset + zeros.size * theta + 2.0 * args, slope


def find_atoms(nodes: NodeSet, param: SchurParameter) -> tuple[Atom, ...]:
    """Locate and weigh the atoms of the measure of an inner parameter.

    s = B*omega is a unimodular constant times a Blaschke product of degree
    d = n + deg(omega).  Its exact boundary lift Phi (see _boundary_lift)
    increases by 2*pi*d over the circle, so the atoms are the d solutions of
    Phi(theta) = 2*pi*m.  One scan of Phi brackets every solution, safeguarded
    Newton refines them all at once, and the weight 1/(t0 s'(t0)) equals 1/Phi'(theta0).
    """
    if not param.is_inner:
        raise NotInnerParameter("atom extraction requires an inner parameter")
    gamma, zeros = _inner_data(nodes, param)
    zeros_arr = np.asarray(zeros, dtype=complex)
    degree = zeros_arr.size

    # Phi is exact and increasing, so a scan bracket holds its root at any scan resolution.
    scan = np.linspace(0.0, TWO_PI, _ATOM_SCAN_SIZE + 1)
    scan_phase, _ = _boundary_lift(gamma, zeros_arr, scan)
    targets = TWO_PI * (math.ceil(scan_phase[0] / TWO_PI) + np.arange(degree))
    idx = np.clip(np.searchsorted(scan_phase, targets), 1, _ATOM_SCAN_SIZE)
    lo, hi = scan[idx - 1], scan[idx]
    theta = 0.5 * (lo + hi)
    for _ in range(NEWTON_MAX_ITER):
        phase, slope = _boundary_lift(gamma, zeros_arr, theta)
        defect = phase - targets
        # Rounding floor of the defect: d + 1 terms of size up to 2*pi, plus one ulp of theta.
        converged = np.abs(defect) <= 8.0 * np.finfo(float).eps * TWO_PI * (degree + 1 + slope)
        lo = np.where(defect < 0.0, theta, lo)
        hi = np.where(defect > 0.0, theta, hi)
        step = theta - defect / slope
        theta = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if converged.all():  # the step just taken polishes theta below the floor
            break
    else:
        raise PhaseWindingMismatch(
            f"Newton on the boundary phase did not converge in {NEWTON_MAX_ITER} steps "
            f"at degree {degree}"
        )

    _, slope = _boundary_lift(gamma, zeros_arr, theta)
    atoms = tuple(sorted(map(Atom.at_angle, theta, 1.0 / slope), key=lambda a: a.angle))
    distinct = len({a.angle for a in atoms})
    if distinct != degree:
        raise PhaseWindingMismatch(f"found {distinct} distinct atoms, expected {degree}")
    return atoms


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


def total_mass(measure: GeneratedMeasure) -> float:
    """Total mass by quadrature, cross-checked against the Herglotz value at 0."""
    mass = measure.mass
    if measure.param is not None:
        expected = herglotz_eval(measure.nodes, measure.param, 0j)
        if abs(mass - expected) > MASS_CONSISTENCY_TOL:
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
