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
route, one quadrature of 1/((t - z') conj(t - z'')) per pair, survives only
in ``kernel_identity_check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import (
    Constant,
    NodeSet,
    SpecialSystemResult,
    mass_bound_base,
    solve_special_system,
)
from .measure import DEFAULT_GRID_SIZE, GeneratedMeasure, build_measure, phi_sigma, total_mass

#: Tolerance for "mass attains the extremal bound" flags.
ATTAINMENT_TOL = 1e-9


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


@dataclass(frozen=True)
class MassReport:
    """Total mass against the sharp bounds (1 -+ B(0))/(1 +- B(0))."""

    mass: float
    lower_bound: float
    upper_bound: float
    attains_max: bool
    attains_min: bool


def _cauchy_sums(points: np.ndarray, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sums over j of w_j / (t_j - z_k): one n x len(t) matrix, inverted in place."""
    cauchy = points[None, :] - z[:, None]
    np.reciprocal(cauchy, out=cauchy)
    return cauchy @ weights


def _node_phi(measure: GeneratedMeasure) -> np.ndarray:
    """phi(z_k) at every node in one pass: mass + 2 z_k * integral of 1/(t - z_k)."""
    z = measure.nodes.as_array()
    sums = np.zeros(z.size, dtype=complex)
    if np.any(measure.density):
        sums += _cauchy_sums(measure.grid.points, measure.density / measure.grid.size, z)
    if measure.atoms:
        sums += _cauchy_sums(*measure.atom_arrays(), z)
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


def mass_report(measure: GeneratedMeasure, *, attain_tol: float = ATTAINMENT_TOL) -> MassReport:
    """Total mass sandwiched between the sharp bounds, with attainment flags."""
    lower, upper = mass_bounds(measure.nodes)
    mass = total_mass(measure)
    return MassReport(
        mass=mass,
        lower_bound=lower,
        upper_bound=upper,
        attains_max=abs(mass - upper) <= attain_tol,
        attains_min=abs(mass - lower) <= attain_tol,
    )


def extremal_measures(
    nodes: NodeSet, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[GeneratedMeasure, GeneratedMeasure]:
    """The two extremal measures (omega = +1 maximal mass, omega = -1 minimal)."""
    return (
        build_measure(nodes, Constant(1.0), grid_size),
        build_measure(nodes, Constant(-1.0), grid_size),
    )


def pair_integral(measure: GeneratedMeasure, zeta1: complex, zeta2: complex) -> complex:
    """Integral of 1/((t - zeta1) conj(t - zeta2)): grid quadrature plus atom sums."""
    z1, z2 = complex(zeta1), complex(zeta2)
    total = 0.0 + 0.0j
    if np.any(measure.density):
        t = measure.grid.points
        total += complex(np.mean(measure.density / ((t - z1) * np.conj(t - z2))))
    for atom in measure.atoms:
        total += atom.weight / ((atom.location - z1) * (atom.location - z2).conjugate())
    return total


def kernel_identity_check(measure: GeneratedMeasure, zeta1: complex, zeta2: complex) -> float:
    """Residual of the kernel identity linking phi to the pair integrals.

    Compares [phi(z') + conj(phi(z''))] / (2 (1 - z' conj(z''))) against the
    direct integral of 1/((t - z') conj(t - z'')); a self-consistency
    diagnostic of the quadrature path.
    """
    z1, z2 = complex(zeta1), complex(zeta2)
    lhs = (phi_sigma(measure, z1) + phi_sigma(measure, z2).conjugate()) / (
        2.0 * (1.0 - z1 * z2.conjugate())
    )
    return abs(lhs - pair_integral(measure, z1, z2))
