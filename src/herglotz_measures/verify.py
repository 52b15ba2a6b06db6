"""Certification: Gram identities, phi-conditions, and sharp mass bounds.

A measure reproduces the Lebesgue scalar product on the Cauchy fractions
1/(t - z_k) exactly when its Gram matrix matches the closed-form target
1/(1 - z_k conj(z_l)); equivalently, when phi(z_k) + conj(phi(z_l)) = 2 for
all pairs.  Both certificates are computed here at finite tolerance.

On |t| = 1 the kernel identity

    1/((t-z') conj(t-z'')) = [(t+z')/(t-z') + conj((t+z'')/(t-z''))] / (2 (1 - z' conj z''))

holds pointwise, so it holds exactly for grid samples and atoms too: the
Gram matrix is (phi(z_k) + conj(phi(z_l)))/2 times the target, and both
certificates come from the n values phi(z_k), one O(nN) pass.  That pass
holds at most one block of the n x N Cauchy matrix, _PHI_BLOCK_ELEMENTS
entries (2 MiB), so its memory is bounded for any n and N.  A sweep whose
whole matrix fits in _SWEEP_REUSE_ELEMENTS (8 MiB) builds it once; every row
then takes phi as one product with it when one block covers it, or else sums
the same blocks as slices of it.  Its contractive rows go in row blocks:
s = B * gamma (B first, as in generate), the density, its mean and least
sample, the weights and the Gram errors are one array pass per block, while
phi and h(0) (a numpy scalar expression) stay per row, so each row equals what
generate computes, bit for bit.
The direct route, one quadrature of 1/((t - z') conj(t - z'')) per pair,
lives only in the tests, as their Gram oracle.

Both certificates judge the sampled measure they are given.  The boundary
sup of a rational parameter is a maximum over 8192 samples, a sampled check
and not a bound; a negative density sample proves |omega| > 1 there, so
``assemble_measure`` refuses it and ``generate`` never certifies a signed measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from .analytic import (
    Constant,
    NodeSet,
    SpecialSystemResult,
    blaschke_eval,
    blaschke_values,
    herglotz_from_s,
    herglotz_samples,
    mass_bound_base,
    solve_special_system,
)
from .errors import PhaseWindingMismatch
from .measure import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    GeneratedMeasure,
    assemble_measure,
    build_measure,
    check_density,
    check_grid_size,
    check_mass,
    solve_atoms,
)

#: Entries of one block of the phi pass's Cauchy matrix (complex, so 2 MiB).  Memory
#: stays bounded for any n and N, and verify's block fits in the heap its document parse
#: left behind instead of raising the peak RSS above it.  Against 2**19 entries the pass
#: is 6-10% faster at n <= 32 and N >= 65536 and 16-29% slower at n = 128 (2.5 -> 2.9 ms
#: at N = 4096, 40 -> 49 ms at N = 65536).
_PHI_BLOCK_ELEMENTS = 1 << 17
#: Largest whole n x N Cauchy matrix (8 MiB) that sweep_reports builds once and slices
#: into the phi pass's blocks for every row; above it each row builds its own blocks.
_SWEEP_REUSE_ELEMENTS = 1 << 19
#: Entries of a sweep's row block: R rows of N samples of s and of n x n Gram matrices,
#: R * max(N, n^2) <= this (4 rows at N = 4096, n <= 64), or one row.  Over three perfbench
#: sweep passes 2**13 took 9-16% more CPU, and 2**15 at most a few % less but raised the
#: peak RSS from 40.4 to 41.2-41.4 MB.
_SWEEP_BLOCK_ELEMENTS = 1 << 14


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


def _cauchy_matrix(points: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1/(t_j - z_k) as one n x len(t) matrix, inverted in place (written into ``out`` if given)."""
    cauchy = np.subtract(points[None, :], z[:, None], out=out)
    np.reciprocal(cauchy, out=cauchy)
    return cauchy


def _node_phi(measure: GeneratedMeasure) -> np.ndarray:
    """phi(z_k) at every node of the measure in one pass (see _phi)."""
    weights = measure.density / measure.grid.size if np.any(measure.density) else None
    atoms = measure.atom_arrays() if measure.atoms else None
    return _phi(measure.nodes.as_array(), measure.mass, measure.grid.points, weights, atoms)


def _phi(z, mass, points, weights, atoms=None, grid_cauchy=None) -> np.ndarray:
    """phi(z_k) = mass + 2 z_k * integral of 1/(t - z_k): grid ``weights`` (or None) plus atoms.

    The density part is summed over column blocks of at most _PHI_BLOCK_ELEMENTS entries,
    in the same blocks whatever their source: slices of ``grid_cauchy``, the whole
    _cauchy_matrix of the grid at the nodes when a caller already has it, or else one
    reused buffer filled block by block.  ``atoms`` is a (locations, weights) pair.  The
    sum starts from the first product, not from zeros: one block costs one product.
    """
    sums = None
    if weights is not None:
        width = min(points.size, max(1, _PHI_BLOCK_ELEMENTS // z.size))
        if grid_cauchy is None:
            block = np.empty((z.size, width), dtype=complex)
        for start in range(0, points.size, width):
            columns = slice(start, start + width)
            if grid_cauchy is None:
                chunk = points[columns]
                cauchy = _cauchy_matrix(chunk, z, block[:, : chunk.size])
            else:
                cauchy = grid_cauchy[:, columns]
            part = cauchy @ weights[columns]
            sums = part if sums is None else sums + part
    if atoms is not None:
        locations, atom_weights = atoms
        part = _cauchy_matrix(locations, z) @ atom_weights
        sums = part if sums is None else sums + part
    if sums is None:
        sums = np.zeros(z.size, dtype=complex)
    return mass + 2.0 * z * sums


def gram_target(nodes: NodeSet) -> np.ndarray:
    """Lebesgue Gram matrix of the Cauchy fractions: 1/(1 - z_k conj(z_l))."""
    z = nodes.as_array()
    target = 1.0 / (1.0 - np.outer(z, z.conj()))
    # Conjugate-symmetric assembly: keep k <= l, reflect, real diagonal.
    out = np.triu(target) + np.triu(target, 1).conj().T
    np.fill_diagonal(out, out.diagonal().real)
    return out


def _gram_from_phi(phi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The kernel identity (phi_k + conj phi_l)/2 * target_kl per row of phi, exactly Hermitian."""
    return 0.5 * (phi[..., :, None] + phi.conj()[..., None, :]) * target


def gram_compute(measure: GeneratedMeasure) -> np.ndarray:
    """Gram matrix of the measure (quadrature plus exact atom sums) via phi at the nodes."""
    return _gram_from_phi(_node_phi(measure), gram_target(measure.nodes))


def _gram_reports(phi: np.ndarray, target: np.ndarray, tolerance: float) -> list[GramReport]:
    """One GramReport per row of the (R, n) array ``phi``, from one (R, n, n) array pass."""
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    computed = _gram_from_phi(phi, target)
    errors = np.abs(computed - target).max(axis=(1, 2)).tolist()
    return [
        GramReport(target, matrix, error, float(tolerance), passed=error <= tolerance)
        for matrix, error in zip(computed, errors)
    ]


def _gram_report(phi: np.ndarray, target: np.ndarray, tolerance: float) -> GramReport:
    return _gram_reports(phi[None, :], target, tolerance)[0]


def _phi_report(phi: np.ndarray, tolerance: float) -> PhiConditionsReport:
    return PhiConditionsReport(phi_values=phi, system=solve_special_system(phi, tol=tolerance))


def verify_membership(measure: GeneratedMeasure, tolerance: float) -> GramReport:
    """Certify membership by the entrywise Gram defect; never raises on fail."""
    return _gram_report(_node_phi(measure), gram_target(measure.nodes), tolerance)


def check_phi_conditions(measure: GeneratedMeasure, tolerance: float) -> PhiConditionsReport:
    """Evaluate phi at the nodes and solve the rank-one system.

    Success (a common value 1 - i*beta exists within tolerance) is equivalent
    to membership; the returned beta is free diagnostic information.
    """
    return _phi_report(_node_phi(measure), tolerance)


def certify(measure: GeneratedMeasure, tolerance: float) -> tuple[GramReport, PhiConditionsReport]:
    """Both certificates (verify_membership, check_phi_conditions) from one phi pass."""
    phi = _node_phi(measure)
    return _gram_report(phi, gram_target(measure.nodes), tolerance), _phi_report(phi, tolerance)


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
    and each run of consecutive |gamma| = 1 rows shares one atom solve.  Runs of
    contractive rows go in row blocks of _SWEEP_BLOCK_ELEMENTS entries (see
    _sweep_block), and a block's rows are yielded once all of them have passed their checks.
    """
    check_grid_size(grid_size)
    grid = CircleGrid(grid_size)
    z = nodes.as_array()
    b0 = blaschke_eval(nodes, 0j)
    blaschke = blaschke_values(grid.points, z)
    target = gram_target(nodes)
    # Built once for every row only up to the reuse limit; above that each row builds its blocks.
    reuse = z.size * grid.size <= _SWEEP_REUSE_ELEMENTS
    cauchy = _cauchy_matrix(grid.points, z) if reuse else None
    rows = max(1, _SWEEP_BLOCK_ELEMENTS // max(grid.size, z.size**2))
    # s of every block, then its weights, in one buffer: a fresh 256 KiB one per block was
    # trimmed from the heap and page-faulted back by the next, which cost a one-sweep
    # process its gain.
    work = np.empty((rows, grid.size), dtype=complex)
    # Parameters are made as the rows are reached: a list of them all left the small-object
    # heap fragmented and raised peak RSS.
    for inner, run in groupby(map(Constant, gammas), key=lambda p: p.is_inner):
        if not inner:
            while block := [p.gamma for p in islice(run, rows)]:
                yield from _sweep_block(
                    z, block, b0, blaschke, grid, target, cauchy, tolerance, work
                )
            continue
        params = list(run)
        for param, atoms in zip(params, solve_atoms([p.gamma for p in params], z)):
            if isinstance(atoms, PhaseWindingMismatch):
                raise atoms
            measure = assemble_measure(nodes, param, grid, atoms)
            check_mass(measure.mass, herglotz_from_s(b0 * param.gamma))
            yield measure.mass, _gram_report(_node_phi(measure), target, tolerance)


def _sweep_block(z, gammas, b0, blaschke, grid, target, cauchy, tolerance, work):
    """(mass, GramReport) rows of consecutive contractive ``gammas``, bit for bit as generate's.

    The rows are checked in order, so the first failing gamma raises as build_measure
    would.  The weights density / N of the whole block are one division into ``work``,
    once s is spent, and each row's phi is _phi on its row of them (one product with the
    grid's Cauchy matrix when one block of the phi pass covers the grid, as in every
    sweep with n * N <= _PHI_BLOCK_ELEMENTS).
    phi stays one matrix-vector product per row and h(0) one scalar: a matrix product's
    rows, and the array path of herglotz_from_s, differ in rare last bits.
    """
    s = np.multiply(blaschke[None, :], np.asarray(gammas)[:, None], out=work[: len(gammas)])
    density, flagged = herglotz_samples(s)
    masses = density.mean(axis=1).tolist()
    counts, lows = flagged.sum(axis=1).tolist(), density.argmin(axis=1).tolist()
    # Complex weights in s's buffer, with zero imaginary parts: the values that a product
    # with float weights would cast them to.
    weights = np.divide(density, grid.size, out=s)
    phi = np.empty((len(gammas), z.size), dtype=complex)
    for k, gamma in enumerate(gammas):
        check_density(density[k], counts[k], lows[k])
        check_mass(masses[k], herglotz_from_s(b0 * gamma))
        phi[k] = _phi(z, masses[k], grid.points, weights[k], grid_cauchy=cauchy)
    return zip(masses, _gram_reports(phi, target, tolerance))
