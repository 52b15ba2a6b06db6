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
from itertools import chain, islice, tee

import numpy as np

from .analytic import (
    NodeSet,
    SchurParameter,
    blaschke_eval,
    blaschke_values,
    herglotz_eval,
    herglotz_from_s,
    herglotz_samples,
)
from .errors import (
    MassConsistencyFailure,
    NotInnerParameter,
    ParameterNotCertified,
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

#: A density sample below -DENSITY_TOL is negative beyond rounding: |omega| > 1 there.
DENSITY_TOL = 1e-12

#: Iteration cap of the safeguarded Newton solve for the atom angles.
NEWTON_MAX_ITER = 50

#: Angles at which the boundary phase is scanned for root brackets.
_ATOM_SCAN_SIZE = 4096

#: Entries of a sweep's row block of either kind, at least one row: R * max(N, n^2) <= this for s
#: and Gram matrices (4 rows at N = 4096, n <= 64), R * d <= this for atoms.  In three perfbench
#: sweep passes 2**13 cost 9-16% more CPU, and 2**15 a few % less but 0.8-1 MB more peak RSS.
_SWEEP_BLOCK_ELEMENTS = 1 << 14


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


def boundary_density(
    nodes: NodeSet, param: SchurParameter, grid: CircleGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Densities h(t_j) = (1-|s|^2)/|1-s|^2 plus a mask of near-singular points.

    Flagged entries (|1 - s| below the Cayley singularity threshold) are set
    to zero so that quadrature automatically excludes them.
    """
    blaschke = blaschke_values(grid.points, nodes.points)
    # s = B * omega with B first: on an owned temporary of 256 KiB or more the operator
    # would work in place as omega * B, which differs in the last bits.
    return herglotz_samples(np.multiply(blaschke, param.values(grid.points)))


def _lift_offset(gamma: complex, zeros: np.ndarray) -> float:
    """Constant part arg(gamma) + sum_{a != 0} (pi - arg a) of the boundary lift Phi."""
    return cmath.phase(gamma) + sum(math.pi - cmath.phase(a) for a in zeros if a != 0)


def _lift_sums(zeros: np.ndarray, theta: np.ndarray, slope: bool = True):
    """sum_a Arg(1 - a exp(-i*theta)) and the Poisson sum Phi' (None unless ``slope``) at theta.

    On t = exp(i*theta) the factor (|a|/a)(a - t)/(1 - conj(a) t) has argument
    pi - arg(a) + theta + 2*Arg(1 - a exp(-i*theta)), and t for a = 0.  Each
    Arg term is continuous because |a exp(-i*theta)| < 1, so

        Phi = _lift_offset(gamma, zeros) + d*theta + 2*sum_a Arg(1 - a exp(-i*theta))

    is an exact lift of arg(gamma * B_zeros), and Phi' = sum_a (1 - |a|^2)/|1 - a exp(-i*theta)|^2
    is positive.  The loop over the zeros keeps memory at O(theta.size).
    """
    rotation = np.exp(-1j * theta)
    args = np.zeros(theta.shape)
    slopes = np.zeros(theta.shape) if slope else None
    for a in zeros:
        factor = 1.0 - a * rotation
        args += np.angle(factor)
        if slope:
            slopes += (1.0 - abs(a) ** 2) / np.abs(factor) ** 2
    return args, slopes


def solve_atoms(gammas, zeros: np.ndarray):
    """Yield the atoms of s = gamma * B_zeros for each unimodular gamma, in order.

    The lift Phi (see _lift_sums) increases by 2*pi*d over the circle, so the
    atoms are the d solutions of Phi(theta) = 2*pi*m.  One scan of Phi per call
    brackets every solution; safeguarded Newton refines blocks of at most
    _SWEEP_BLOCK_ELEMENTS // d rows at once, and the weight 1/(t0 s'(t0)) equals
    1/Phi'(theta0).  A row freezes after the step that follows its own convergence,
    so it ends as a lone solve would.  A row that does not converge, or whose atoms
    are not d distinct angles, raises PhaseWindingMismatch when it is reached.
    """
    degree = zeros.size
    # Phi is exact and increasing, so a scan bracket holds its root at any scan resolution.
    scan = np.linspace(0.0, TWO_PI, _ATOM_SCAN_SIZE + 1)
    scan_args = _lift_sums(zeros, scan, slope=False)[0]
    gammas = iter(gammas)
    while block := list(islice(gammas, max(1, _SWEEP_BLOCK_ELEMENTS // degree))):
        offsets = np.array([[_lift_offset(gamma, zeros)] for gamma in block])
        targets = np.empty((len(offsets), degree))
        idx = np.empty(targets.shape, dtype=np.intp)
        # Row by row, in the operation order of a one-row solve, so that every row ends
        # bit for bit as that solve would and memory stays O(scan) per row.
        for row, offset in enumerate(offsets):
            scan_phase = offset + degree * scan + 2.0 * scan_args
            targets[row] = TWO_PI * (math.ceil(scan_phase[0] / TWO_PI) + np.arange(degree))
            idx[row] = np.clip(np.searchsorted(scan_phase, targets[row]), 1, _ATOM_SCAN_SIZE)
        lo, hi = scan[idx - 1], scan[idx]
        theta = 0.5 * (lo + hi)
        active = np.ones(len(theta), dtype=bool)  # rows still iterating
        for _ in range(NEWTON_MAX_ITER):
            args, slope = _lift_sums(zeros, theta)
            defect = offsets + degree * theta + 2.0 * args - targets
            # Rounding floor of the defect: d + 1 terms of size up to 2*pi, plus one ulp of theta.
            converged = np.abs(defect) <= 8.0 * np.finfo(float).eps * TWO_PI * (degree + 1 + slope)
            lo = np.where(defect < 0.0, theta, lo)
            hi = np.where(defect > 0.0, theta, hi)
            step = theta - defect / slope
            step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            theta = np.where(active[:, None], step, theta)
            # Converged rows freeze: the step just taken polishes them below the floor.
            active &= ~converged.all(axis=1)
            if not active.any():
                break

        _, slope = _lift_sums(zeros, theta)
        for row in range(len(theta)):
            if active[row]:
                raise PhaseWindingMismatch(
                    f"Newton on the boundary phase did not converge in {NEWTON_MAX_ITER} steps "
                    f"at degree {degree}"
                )
            weights = 1.0 / slope[row]
            atoms = tuple(sorted(map(Atom.at_angle, theta[row], weights), key=lambda a: a.angle))
            distinct = len({a.angle for a in atoms})
            if distinct != degree:
                raise PhaseWindingMismatch(f"found {distinct} distinct atoms, expected {degree}")
            yield atoms


def find_atoms(nodes: NodeSet, param: SchurParameter) -> tuple[Atom, ...]:
    """Locate and weigh the atoms of the measure of an inner parameter.

    s = B*omega is a unimodular constant times a Blaschke product of degree
    d = n + deg(omega); this is the one row of solve_atoms for its gamma.
    """
    if not param.is_inner:
        raise NotInnerParameter("atom extraction requires an inner parameter")
    return next(solve_atoms((param.gamma,), np.asarray(nodes.points + param.zeros, dtype=complex)))


def inner_measures(nodes: NodeSet, params, grid: CircleGrid, b0: complex | None = None):
    """Yield the checked, purely atomic measure of each of one or more inner ``params`` in order.

    The parameters share the zeros of the first, so one solve_atoms call (one phase
    scan) serves them all, and ``params`` is read one solve block at a time.  Each row
    raises what build_measure raises for it: its PhaseWindingMismatch, or a
    MassConsistencyFailure against h(0) = herglotz_from_s(B(0) * omega(0)), where
    ``b0`` is B(0) of the nodes when the caller already has it.
    """
    params = iter(params)
    first = next(params)
    zeros = np.asarray(nodes.points + first.zeros, dtype=complex)
    b0 = blaschke_eval(nodes, 0j) if b0 is None else b0
    density = np.zeros(grid.size)  # read-only once in a measure, so every row shares it
    params, solved = tee(chain((first,), params))
    for param, atoms in zip(params, solve_atoms((p.gamma for p in solved), zeros)):
        row = GeneratedMeasure(nodes, param, grid, density, atoms, MeasureKind.PURELY_ATOMIC)
        check_mass(row.mass, herglotz_from_s(b0 * param.values(0j)))
        yield row


def check_density(density: np.ndarray, flagged: int, low: int) -> None:
    """Raise unless a non-inner parameter's density has no ``flagged`` samples (see
    herglotz_samples) and its least sample, at index ``low``, is not negative."""
    if flagged:
        raise UnsupportedMixedCase(
            f"{flagged} boundary points of a non-inner parameter "
            "came within the singularity threshold of s = 1"
        )
    if density[low] < -DENSITY_TOL:
        raise ParameterNotCertified(
            f"density sample {low} = {density[low]} < 0: |omega| > 1 there, not Schur-class"
        )


def build_measure(
    nodes: NodeSet, param: SchurParameter, grid_size: int = DEFAULT_GRID_SIZE
) -> GeneratedMeasure:
    """Recover the representing measure of the parameter: atoms or density.

    The result is cross-checked: its quadrature mass must match the Herglotz value at
    the origin (MassConsistencyFailure otherwise), and a density must pass check_density.
    """
    check_grid_size(grid_size)
    grid = CircleGrid(grid_size)
    if param.is_inner:
        return next(inner_measures(nodes, (param,), grid))
    density, flagged = boundary_density(nodes, param, grid)
    check_density(density, int(flagged.sum()), int(np.argmin(density)))
    measure = GeneratedMeasure(nodes, param, grid, density, (), MeasureKind.ABSOLUTELY_CONTINUOUS)
    total_mass(measure)
    return measure


def total_mass(measure: GeneratedMeasure) -> float:
    """Total mass by quadrature, cross-checked against the Herglotz value at 0."""
    if measure.param is not None:
        check_mass(measure.mass, herglotz_eval(measure.nodes, measure.param, 0j))
    return measure.mass


def check_mass(mass: float, expected: float) -> None:
    """Raise MassConsistencyFailure unless the quadrature mass matches h(0) = expected."""
    if abs(mass - expected) > MASS_CONSISTENCY_TOL:
        raise MassConsistencyFailure(
            f"quadrature mass {mass} vs h(0) = {expected} "
            f"(difference {abs(mass - expected):.3e})"
        )
