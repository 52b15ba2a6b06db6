"""Certification: Gram identities, phi-conditions, and sharp mass bounds.

A measure reproduces the Lebesgue scalar product on the Cauchy fractions
1/(t - z_k) exactly when its Gram matrix matches the closed-form target
1/(1 - z_k conj(z_l)); equivalently, when phi(z_k) + conj(phi(z_l)) = 2 for
all pairs.  ``certify`` judges both at finite tolerance and returns them as one
``Certificate``: the phi values, the target and the Gram error, from which the
Gram matrix, the special system (solved on first read) and the verdicts follow.

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
generate computes, bit for bit; its |gamma| = 1 rows come from measure.inner_measures.
The direct route, one quadrature of 1/((t - z') conj(t - z'')) per pair,
lives only in the tests, as their Gram oracle.

Both certificates judge the sampled measure they are given.  The boundary
sup of a rational parameter is a maximum over 8192 samples, a sampled check
and not a bound; a negative density sample proves |omega| > 1 there, so
``check_density`` refuses it and ``generate`` never certifies a signed measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from . import measure as _measure
from .measure import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    GeneratedMeasure,
    check_density,
    check_grid_size,
    check_mass,
    inner_measures,
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


@dataclass(frozen=True, eq=False)
class Certificate:
    """Both certificates of a measure, from its n values phi(z_k).

    ``gram_error`` is the entrywise Gram defect max |computed - target|.  The Gram
    matrix itself (``computed``) and the special system (``system``) are derived on
    read, the system once: a sweep row, which reads only the Gram verdict, never solves it.
    """

    phi: np.ndarray
    target: np.ndarray
    tolerance: float
    gram_error: float

    @property
    def computed(self) -> np.ndarray:
        """Gram matrix of the measure (quadrature plus exact atom sums), by the kernel identity."""
        # The (1, n, n) shape of the error pass, so the document's matrix keeps its bits.
        return _gram_from_phi(self.phi[None, :], self.target)[0]

    @property
    def gram_passed(self) -> bool:
        return self.gram_error <= self.tolerance

    @cached_property
    def system(self) -> SpecialSystemResult:
        """The rank-one system phi_k + conj(phi_l) = 2; solvable exactly for members."""
        return solve_special_system(self.phi, tol=self.tolerance)

    @property
    def passed(self) -> bool:
        return self.gram_passed and self.system.solvable


def _certificates(phi: np.ndarray, target: np.ndarray, tolerance: float) -> list[Certificate]:
    """One Certificate per row of the (R, n) array ``phi``, their errors from one (R, n, n) pass."""
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    errors = np.abs(_gram_from_phi(phi, target) - target).max(axis=(1, 2)).tolist()
    return [Certificate(row, target, float(tolerance), error) for row, error in zip(phi, errors)]


def certify(measure: GeneratedMeasure, tolerance: float) -> Certificate:
    """The measure's certificate, from one phi pass; never raises on fail."""
    return _certificates(_node_phi(measure)[None, :], gram_target(measure.nodes), tolerance)[0]


# perfbench/replay.py calls the two names below and reads .max_abs_error, .residual and
# .passed off their results; not exported, they go with its next revision (ROADMAP item 11).


@dataclass(frozen=True, eq=False)
class _Verdict:
    """A certificate with one of its verdicts as ``passed``, and the old report fields."""

    certificate: Certificate
    passed: bool

    def __getattr__(self, name):
        return getattr(self.certificate, name)

    @property
    def max_abs_error(self) -> float:
        return self.certificate.gram_error

    @property
    def residual(self) -> float:
        return self.certificate.system.residual


def verify_membership(measure: GeneratedMeasure, tolerance: float) -> _Verdict:
    certificate = certify(measure, tolerance)
    return _Verdict(certificate, certificate.gram_passed)


def check_phi_conditions(measure: GeneratedMeasure, tolerance: float) -> _Verdict:
    certificate = certify(measure, tolerance)
    return _Verdict(certificate, certificate.system.solvable)


def mass_bounds(nodes: NodeSet) -> tuple[float, float]:
    """Sharp (min, max) of the total mass over all admissible measures."""
    b0 = mass_bound_base(nodes)
    return (1.0 - b0) / (1.0 + b0), (1.0 + b0) / (1.0 - b0)


def extremal_measures(
    nodes: NodeSet, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[GeneratedMeasure, GeneratedMeasure]:
    """The extremal measures build_measure(nodes, Constant(+-1.0)): +1 maximal, -1 minimal mass."""
    check_grid_size(grid_size)
    return tuple(inner_measures(nodes, (Constant(1.0), Constant(-1.0)), CircleGrid(grid_size)))


def sweep_reports(nodes: NodeSet, gammas, grid_size: int, tolerance: float):
    """Yield (mass, certify(measure, tolerance)) of build_measure(nodes, Constant(gamma)) per gamma.

    ``gammas`` is a sequence of complex numbers in the closed disc.  Raises what
    build_measure raises for the first failing gamma.  The node-only work runs once
    per call (B on the grid and at 0, the Gram target, the grid's Cauchy matrix).
    Each run of consecutive |gamma| = 1 rows goes through inner_measures, and runs of
    contractive rows go in row blocks of _SWEEP_BLOCK_ELEMENTS entries (see
    _sweep_block), whose rows are yielded once all of them have passed their checks.
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
    rows = max(1, _measure._SWEEP_BLOCK_ELEMENTS // max(grid.size, z.size**2))
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
        for measure in inner_measures(nodes, run, grid, b0):
            yield measure.mass, _certificates(_node_phi(measure)[None, :], target, tolerance)[0]


def _sweep_block(z, gammas, b0, blaschke, grid, target, cauchy, tolerance, work):
    """(mass, Certificate) rows of consecutive contractive ``gammas``, bit for bit as generate's.

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
    return zip(masses, _certificates(phi, target, tolerance))
