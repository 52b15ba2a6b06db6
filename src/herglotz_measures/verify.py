"""Certification: Gram identities, phi-conditions, and sharp mass bounds.

A measure reproduces the Lebesgue scalar product on the Cauchy fractions
1/(t - z_k) exactly when its Gram matrix matches the closed-form target
1/(1 - z_k conj(z_l)); equivalently, when phi(z_k) + conj(phi(z_l)) = 2 for
all pairs.  Both certificates are computed here at finite tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _hermitian_assembly(gram: np.ndarray) -> np.ndarray:
    """Conjugate-symmetric assembly: keep k <= l, reflect, real diagonal."""
    out = np.triu(gram) + np.triu(gram, 1).conj().T
    np.fill_diagonal(out, out.diagonal().real)
    return out


def _cauchy_gram(points: np.ndarray, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Hermitian matrix of the sums over j of w_j / ((t_j - z_k) conj(t_j - z_l))."""
    cauchy = 1.0 / (points[None, :] - z[:, None])
    weighted = cauchy * weights[None, :]
    np.conj(cauchy, out=cauchy)
    return _hermitian_assembly(weighted @ cauchy.T)


def gram_target(nodes: NodeSet) -> np.ndarray:
    """Lebesgue Gram matrix of the Cauchy fractions: 1/(1 - z_k conj(z_l))."""
    z = nodes.as_array()
    return _hermitian_assembly(1.0 / (1.0 - np.outer(z, z.conj())))


def gram_compute(measure: GeneratedMeasure) -> np.ndarray:
    """Gram matrix of the measure by quadrature plus exact atom sums."""
    z = measure.nodes.as_array()
    gram = np.zeros((z.size, z.size), dtype=complex)
    if np.any(measure.density):
        # N is a power of two, so 1/N on the weights rounds as 1/N on the sum would.
        gram += _cauchy_gram(measure.grid.points, measure.density / measure.grid.size, z)
    if measure.atoms:
        locations, weights = measure.atom_arrays()
        gram += _cauchy_gram(locations, weights, z)
    return gram


def verify_membership(measure: GeneratedMeasure, tolerance: float) -> GramReport:
    """Certify membership by the entrywise Gram defect; never raises on fail."""
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    target = gram_target(measure.nodes)
    computed = gram_compute(measure)
    max_abs_error = float(np.max(np.abs(computed - target)))
    return GramReport(
        target=target,
        computed=computed,
        max_abs_error=max_abs_error,
        tolerance=float(tolerance),
        passed=max_abs_error <= tolerance,
    )


def check_phi_conditions(measure: GeneratedMeasure, tolerance: float) -> PhiConditionsReport:
    """Evaluate phi at the nodes and solve the rank-one system.

    Success (a common value 1 - i*beta exists within tolerance) is equivalent
    to membership; the returned beta is free diagnostic information.
    """
    phi_values = np.asarray([phi_sigma(measure, z) for z in measure.nodes.points])
    return PhiConditionsReport(
        phi_values=phi_values,
        system=solve_special_system(phi_values, tol=tolerance),
    )


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
