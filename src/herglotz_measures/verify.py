"""Certification: Gram identities, phi-conditions, and sharp mass bounds.

A measure reproduces the Lebesgue scalar product on the Cauchy fractions
1/(t - z_k) exactly when its Gram matrix matches the closed-form target
1/(1 - z_k conj(z_l)); equivalently, when phi(z_k) + conj(phi(z_l)) = 2 for
all pairs.  Both certificates are computed here at finite tolerance.

On |t| = 1 the kernel identity

    1/((t-z') conj(t-z'')) = [(t+z')/(t-z') + conj((t+z'')/(t-z''))] / (2 (1 - z' conj z''))

holds pointwise, so it holds exactly for grid samples and atoms too: the
Gram matrix is (phi(z_k) + conj(phi(z_l)))/2 times the target, and both
certificates come from the n values phi(z_k), one O(nN) pass.  The direct
route, one quadrature of 1/((t - z') conj(t - z'')) per pair, lives only in
the tests, as their Gram oracle.

Both certificates judge the sampled measure they are given.  The boundary
sup of a rational parameter is a maximum over 8192 samples, a sampled check
and not a bound; a negative density sample proves |omega| > 1 there, so
``assemble_measure`` refuses it and ``generate`` never certifies a signed measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import (
    Constant,
    NodeSet,
    SpecialSystemResult,
    blaschke_eval,
    herglotz_from_s,
    mass_bound_base,
    solve_special_system,
)
from .errors import PhaseWindingMismatch
from .measure import (
    DEFAULT_GRID_SIZE,
    GeneratedMeasure,
    assemble_measure,
    build_measure,
    check_grid_size,
    check_mass,
    circle_grid,
    solve_atoms,
)


@dataclass(frozen=True, eq=False)
class GramReport:
    """Target vs computed Gram matrix with an entrywise-error verdict."""

    target: np.ndarray
    computed: np.ndarray
    max_abs_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class PhiConditionsReport:
    """phi values at the nodes and the special-system outcome."""

    phi_values: np.ndarray
    system: SpecialSystemResult

    @property
    def beta(self) -> float | None:
        return self.system.beta

    @property
    def residual(self) -> float:
        return self.system.residual

    @property
    def passed(self) -> bool:
        return self.system.solvable


def _cauchy_matrix(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1/(t_j - z_k) as one n x len(t) matrix, inverted in place."""
    cauchy = points[None, :] - z[:, None]
    np.reciprocal(cauchy, out=cauchy)
    return cauchy


def _node_phi(measure: GeneratedMeasure, grid_cauchy: np.ndarray | None = None) -> np.ndarray:
    """phi(z_k) at every node in one pass: mass + 2 z_k * integral of 1/(t - z_k).

    ``grid_cauchy`` is the _cauchy_matrix of the grid at the nodes, when a caller already has it.
    """
    z = measure.nodes.as_array()
    sums = np.zeros(z.size, dtype=complex)
    if np.any(measure.density):
        # Weights before a fresh matrix, and the matrix freed right after its product:
        # the reverse raised a roundtrip benchmark run's peak RSS by 5 MB.
        weights = measure.density / measure.grid.size
        if grid_cauchy is None:
            sums += _cauchy_matrix(measure.grid.points, z) @ weights
        else:
            sums += grid_cauchy @ weights
    if measure.atoms:
        locations, weights = measure.atom_arrays()
        sums += _cauchy_matrix(locations, z) @ weights
    return measure.mass + 2.0 * z * sums


@lru_cache(maxsize=4)
def gram_target(nodes: NodeSet) -> np.ndarray:
    """Read-only Lebesgue Gram matrix of the Cauchy fractions: 1/(1 - z_k conj(z_l))."""
    z = nodes.as_array()
    target = 1.0 / (1.0 - np.outer(z, z.conj()))
    # Conjugate-symmetric assembly: keep k <= l, reflect, real diagonal.
    out = np.triu(target) + np.triu(target, 1).conj().T
    np.fill_diagonal(out, out.diagonal().real)
    out.setflags(write=False)
    return out


def _gram_from_phi(phi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The kernel identity: (phi_k + conj phi_l)/2 * target_kl, exactly Hermitian."""
    return 0.5 * (phi[:, None] + phi.conj()[None, :]) * target


def gram_compute(measure: GeneratedMeasure) -> np.ndarray:
    """Gram matrix of the measure (quadrature plus exact atom sums) via phi at the nodes."""
    return _gram_from_phi(_node_phi(measure), gram_target(measure.nodes))


def _gram_report(nodes: NodeSet, phi: np.ndarray, tolerance: float) -> GramReport:
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    target = gram_target(nodes)
    computed = _gram_from_phi(phi, target)
    max_abs_error = float(np.max(np.abs(computed - target)))
    return GramReport(
        target=target,
        computed=computed,
        max_abs_error=max_abs_error,
        tolerance=float(tolerance),
        passed=max_abs_error <= tolerance,
    )


def _phi_report(phi: np.ndarray, tolerance: float) -> PhiConditionsReport:
    return PhiConditionsReport(phi_values=phi, system=solve_special_system(phi, tol=tolerance))


def verify_membership(measure: GeneratedMeasure, tolerance: float) -> GramReport:
    """Certify membership by the entrywise Gram defect; never raises on fail."""
    return _gram_report(measure.nodes, _node_phi(measure), tolerance)


def check_phi_conditions(measure: GeneratedMeasure, tolerance: float) -> PhiConditionsReport:
    """Evaluate phi at the nodes and solve the rank-one system.

    Success (a common value 1 - i*beta exists within tolerance) is equivalent
    to membership; the returned beta is free diagnostic information.
    """
    return _phi_report(_node_phi(measure), tolerance)


def certify(measure: GeneratedMeasure, tolerance: float) -> tuple[GramReport, PhiConditionsReport]:
    """Both certificates (verify_membership, check_phi_conditions) from one phi pass."""
    phi = _node_phi(measure)
    return _gram_report(measure.nodes, phi, tolerance), _phi_report(phi, tolerance)


def mass_bounds(nodes: NodeSet) -> tuple[float, float]:
    """Sharp (min, max) of the total mass over all admissible measures."""
    b0 = mass_bound_base(nodes)
    return (1.0 - b0) / (1.0 + b0), (1.0 + b0) / (1.0 - b0)


def extremal_measures(
    nodes: NodeSet, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[GeneratedMeasure, GeneratedMeasure]:
    """The two extremal measures (omega = +1 maximal mass, omega = -1 minimal)."""
    return (
        build_measure(nodes, Constant(1.0), grid_size),
        build_measure(nodes, Constant(-1.0), grid_size),
    )


def sweep_reports(nodes: NodeSet, gammas, grid_size: int, tolerance: float):
    """Yield (mass, verify_membership report) of build_measure(nodes, Constant(gamma)) per gamma.

    ``gammas`` is a sequence of complex numbers in the closed disc.  Raises what
    build_measure raises for the first failing gamma.  The node-only work runs once
    per call (B on the grid and at 0, the Gram target, the grid's Cauchy matrix),
    and the |gamma| = 1 rows share one atom solve.
    """
    check_grid_size(grid_size)
    grid = circle_grid(grid_size)
    z = nodes.as_array()
    b0 = blaschke_eval(nodes, 0j)
    cauchy = ring = None
    # Parameters are made one row at a time: a list of them all left the small-object
    # heap fragmented and raised peak RSS.
    for k, param in enumerate(map(Constant, gammas)):
        atoms = ()
        if param.is_inner:
            if ring is None:  # one solve for this and every later |gamma| = 1 row
                later = [p.gamma for p in map(Constant, gammas[k:]) if p.is_inner]
                ring = iter(solve_atoms(later, z))
            atoms = next(ring)
            if isinstance(atoms, PhaseWindingMismatch):
                raise atoms
        measure = assemble_measure(nodes, param, grid, atoms)
        check_mass(measure, herglotz_from_s(b0 * param.gamma))
        if cauchy is None:
            # Built after the first row has filled the node caches: cached arrays
            # allocated above it pinned the freed matrix and raised peak RSS.
            cauchy = _cauchy_matrix(grid.points, z)
        yield measure.mass, _gram_report(nodes, _node_phi(measure, cauchy), tolerance)
