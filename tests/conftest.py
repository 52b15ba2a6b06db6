"""Shared fixtures: random admissible inputs and independent oracles.

The oracle helpers re-implement the underlying formulas directly (plain
numpy, no package kernels) so tests can cross-check the library against an
independent route.  The paper identities at the end (Caratheodory and
Cayley maps, phi, pair integrals, mass attainment) are checks on the
program, so they live here and not in the package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# One BLAS thread, as in the benchmark: a second thread oversubscribes a loaded core.  Set
# before numpy is first imported, which pytest has not done when it loads this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import herglotz_measures as hm  # noqa: E402
from herglotz_measures.errors import DuplicateNode  # noqa: E402

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# random admissible inputs
# ---------------------------------------------------------------------------


def random_nodes(rng, max_n: int = 6, radius: float = 0.8) -> hm.NodeSet:
    """Random pairwise-distinct nodes with |z_k| <= radius."""
    n = int(rng.integers(1, max_n + 1))
    while True:
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
        ang = rng.uniform(0.0, TWO_PI, n)
        try:
            return hm.validate_nodes(r * np.exp(1j * ang))
        except DuplicateNode:  # pragma: no cover - probability zero
            continue


def _random_disc_points(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, count))


def random_contractive_param(rng) -> hm.SchurParameter:
    """A random strictly contractive parameter from the certified grammar."""
    form = int(rng.integers(0, 3))
    if form == 0:
        return hm.Constant(complex(0.9 * rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, TWO_PI))))
    if form == 1:
        count = int(rng.integers(0, 4))
        zeros = tuple(_random_disc_points(rng, count, 0.8))
        gamma = 0.9 * rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        return hm.ScaledBlaschke(complex(gamma), zeros)
    degree = int(rng.integers(1, 4))
    num = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    roots = rng.uniform(1.3, 3.0, degree) * np.exp(1j * rng.uniform(0.0, TWO_PI, degree))
    den = np.polynomial.polynomial.polyfromroots(roots)
    grid = np.exp(1j * TWO_PI * np.arange(4096) / 4096)
    sup = np.max(
        np.abs(
            np.polynomial.polynomial.polyval(grid, num)
            / np.polynomial.polynomial.polyval(grid, den)
        )
    )
    num = num * (0.9 * rng.uniform(0.3, 1.0) / sup)
    return hm.CertifiedRational(tuple(num), tuple(den))


def random_inner_param(rng, max_extra: int = 3) -> hm.SchurParameter:
    gamma = complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))
    count = int(rng.integers(0, max_extra + 1))
    if count == 0 and rng.integers(0, 2):
        return hm.Constant(gamma)
    return hm.ScaledBlaschke(gamma, tuple(_random_disc_points(rng, count, 0.8)))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_blaschke(zeros, z):
    """Direct product formula, factor t for a zero at the origin."""
    out = np.ones_like(np.asarray(z, dtype=complex))
    for a in zeros:
        a = complex(a)
        if a == 0:
            out = out * z
        else:
            out = out * (a - z) / (1 - a.conjugate() * z) * (abs(a) / a)
    return out


def oracle_s(nodes: hm.NodeSet, param, z):
    """s = B * omega evaluated with the test-local product formula.

    Works outside the closed disc too (needed by the derivative oracle),
    unlike the library entry point.
    """
    b = oracle_blaschke(nodes.points, z)
    if isinstance(param, hm.Constant):
        omega = param.gamma
    elif isinstance(param, hm.ScaledBlaschke):
        omega = param.gamma * oracle_blaschke(param.zeros, z)
    else:
        omega = np.polynomial.polynomial.polyval(
            z, np.asarray(param.numerator)
        ) / np.polynomial.polynomial.polyval(z, np.asarray(param.denominator))
    return b * omega


def oracle_s_derivative(nodes: hm.NodeSet, param, t0: complex, radius: float = 0.12, samples: int = 1024):
    """s'(t0) by the Cauchy integral over a small circle around t0."""
    ang = TWO_PI * np.arange(samples) / samples
    xi = t0 + radius * np.exp(1j * ang)
    values = oracle_s(nodes, param, xi)
    # (1/2 pi i) * integral s(xi)/(xi-t0)^2 dxi, dxi = i r e^{i ang} d ang
    return complex(np.mean(values / (radius * np.exp(1j * ang)) ** 2 * radius * np.exp(1j * ang)))


def oracle_atom_angles(gamma: complex, zeros) -> np.ndarray:
    """Angles in [0, 2 pi) of the d solutions of gamma * B(t) = 1, from polynomial roots.

    They are the roots of gamma * prod u_k (a_k - t) - prod (1 - conj(a_k) t)
    with u_k = |a_k|/a_k (the factor is t for a_k = 0): the nodes of the
    rational Szego quadrature, computed by companion eigenvalues.
    """
    numerator = np.array([gamma], dtype=complex)
    denominator = np.array([1.0], dtype=complex)
    for a in np.asarray(zeros, dtype=complex):
        if a == 0:
            numerator = np.polynomial.polynomial.polymul(numerator, [0.0, 1.0])
        else:
            u = abs(a) / a
            numerator = np.polynomial.polynomial.polymul(numerator, [u * a, -u])
            denominator = np.polynomial.polynomial.polymul(denominator, [1.0, -a.conjugate()])
    roots = np.polynomial.polynomial.polyroots(
        np.polynomial.polynomial.polysub(numerator, denominator)
    )
    return np.angle(roots) % TWO_PI


def compressed_shift(zeros) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_B of the Blaschke product with these zeros, and x, y with I - SS* = xx*, I - S*S = yy*.

    In the Takenaka-Malmquist basis S is lower triangular: S_kk = a_k and, for j > k,
    S_jk = sqrt(1 - |a_j|^2) sqrt(1 - |a_k|^2) prod_{k<m<j} (-conj a_m).  Row j's products
    are one cumulative product from the diagonal leftwards.  Background: Garcia-Mashreghi-Ross,
    *Introduction to Model Spaces and their Operators*, CUP 2016, ch. 11.
    """
    a = np.asarray(zeros, dtype=complex)
    d = a.size
    root = np.sqrt(1.0 - np.abs(a) ** 2)
    factors = np.ones((d, d), dtype=complex)  # factors[j, k] = -conj a_{k+1} for k < j - 1
    rows, cols = np.tril_indices(d, -2)
    factors[rows, cols] = -a[cols + 1].conj()
    products = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    shift = np.tril(products * root[:, None] * root[None, :], -1) + np.diag(a)
    x = root * np.concatenate(([1.0], np.cumprod(-a[:-1].conj())))
    y = root * np.concatenate((np.cumprod(-a[:0:-1])[::-1], [1.0]))
    return shift, x, y


def clark_unitary(zeros, u: complex) -> np.ndarray:
    """U = S + lam x y* (see compressed_shift), unitary for lam = (u - mu)/|x|^2 with |u| = 1.

    S* x = conj(mu) y with mu = x* S y / |x|^2, so U*U = I on exactly that circle of lam.
    """
    shift, x, y = compressed_shift(zeros)
    norm = np.vdot(x, x).real
    mu = np.vdot(x, shift @ y) / norm
    return shift + (u - mu) / norm * np.outer(x, y.conj())


def oracle_clark_angles(gamma: complex, zeros, fit_tol: float = 1e-12) -> np.ndarray:
    """Sorted angles in [0, 2 pi) of the d solutions of gamma * B(t) = 1, as eigen-angles of U.

    The eigenvalues of clark_unitary(zeros, u) are the d points where B = alpha(u), and
    u -> alpha is a Mobius map (the atoms of a Clark measure).  It is fitted from three
    values of u, checked at a fourth to ``fit_tol``, and inverted at alpha = conj(gamma).
    U is normal, so each eigenvalue is within ||dU|| of an exact one (Bauer-Fike).
    """

    def alpha(u):  # B is the same at every eigenvalue; the mean damps its rounding
        return complex(np.mean(oracle_blaschke(zeros, np.linalg.eigvals(clark_unitary(zeros, u)))))

    samples = np.exp(1j * np.array([0.0, 2.0, 4.0]))
    rows = [[u, 1.0, -value * u, -value] for u, value in zip(samples, map(alpha, samples))]
    p, q, r, s = np.linalg.svd(np.array(rows))[2][-1].conj()  # alpha = (p u + q)/(r u + s)
    check = np.exp(5.5j)
    assert abs((p * check + q) / (r * check + s) - alpha(check)) <= fit_tol
    w = complex(gamma).conjugate()
    u = (s * w - q) / (p - r * w)
    eigenvalues = np.linalg.eigvals(clark_unitary(zeros, u / abs(u)))
    return np.sort(np.angle(eigenvalues) % TWO_PI)


def oracle_integral(measure: hm.GeneratedMeasure, f) -> complex:
    """Trapezoid plus atom sums, written independently of the package kernels."""
    total = 0.0 + 0.0j
    density = np.asarray(measure.density)
    if density.size:
        t = np.exp(1j * TWO_PI * np.arange(density.size) / density.size)
        total += complex(np.sum(density * f(t)) / density.size)
    for atom in measure.atoms:
        total += atom.weight * f(atom.location)
    return total


def oracle_gram_target(points) -> np.ndarray:
    z = np.asarray(points, dtype=complex)
    n = z.size
    out = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            out[k, l] = 1.0 / (1.0 - z[k] * z[l].conjugate())
    return out


def oracle_gram(measure: hm.GeneratedMeasure) -> np.ndarray:
    """Direct O(n^2 N) Gram matrix: one quadrature of 1/((t - z_k) conj(t - z_l)) per pair."""
    z = np.asarray(measure.nodes.points, dtype=complex)
    n = z.size
    out = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            out[k, l] = oracle_integral(measure, lambda t: 1.0 / ((t - z[k]) * np.conj(t - z[l])))
    return out


def oracle_h_scalar(s) -> tuple[float, bool]:
    """h = (1-|s|^2)/|1-s|^2 at one s by the array formula on a 0-d array, and whether
    |1 - s| is below the singularity threshold (h is then 0)."""
    sa = np.asarray(s, dtype=complex)
    gap = np.abs(1.0 - sa)
    flagged = gap < hm.CAYLEY_SINGULARITY_THRESHOLD
    h = (1.0 - np.abs(sa) ** 2) / np.where(flagged, 1.0, gap) ** 2
    return float(np.where(flagged, 0.0, h)), bool(flagged)


# ---------------------------------------------------------------------------
# paper identities
# ---------------------------------------------------------------------------

#: Tolerance for "mass attains the extremal bound" flags.
ATTAINMENT_TOL = 1e-9


def caratheodory_eval(nodes: hm.NodeSet, param: hm.SchurParameter, z):
    """c = (1+s)/(1-s); equals 1 at every node and has non-negative real part."""
    s = hm.s_eval(nodes, param, z)
    gap = np.abs(1.0 - np.asarray(s, dtype=complex))
    if float(np.min(gap)) < hm.CAYLEY_SINGULARITY_THRESHOLD:
        raise hm.CayleySingularity(
            f"|1 - s| = {float(np.min(gap))} below threshold {hm.CAYLEY_SINGULARITY_THRESHOLD}"
        )
    return (1.0 + s) / (1.0 - s)


def cayley_to_s(c_value):
    """Inverse Cayley transform s = (c-1)/(c+1); singular at c = -1."""
    ca = np.asarray(c_value, dtype=complex)
    if float(np.min(np.abs(ca + 1.0))) < hm.CAYLEY_SINGULARITY_THRESHOLD:
        raise hm.CayleySingularity("c = -1 has no Schur counterpart")
    s = (ca - 1.0) / (ca + 1.0)
    if ca.ndim == 0:
        return complex(s)
    return s


def integrate_against(measure: hm.GeneratedMeasure, f) -> complex:
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


def phi_sigma(measure: hm.GeneratedMeasure, z: complex) -> complex:
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


@dataclass(frozen=True)
class MassReport:
    """Total mass against the sharp bounds (1 -+ B(0))/(1 +- B(0))."""

    mass: float
    lower_bound: float
    upper_bound: float
    attains_max: bool
    attains_min: bool


def mass_report(measure: hm.GeneratedMeasure) -> MassReport:
    """Total mass sandwiched between the sharp bounds, with attainment flags."""
    lower, upper = hm.mass_bounds(measure.nodes)
    mass = hm.total_mass(measure)
    return MassReport(
        mass=mass,
        lower_bound=lower,
        upper_bound=upper,
        attains_max=abs(mass - upper) <= ATTAINMENT_TOL,
        attains_min=abs(mass - lower) <= ATTAINMENT_TOL,
    )


def pair_integral(measure: hm.GeneratedMeasure, zeta1: complex, zeta2: complex) -> complex:
    """Integral of 1/((t - zeta1) conj(t - zeta2)): grid quadrature plus atom sums."""
    z1, z2 = complex(zeta1), complex(zeta2)
    total = 0.0 + 0.0j
    if np.any(measure.density):
        t = measure.grid.points
        total += complex(np.mean(measure.density / ((t - z1) * np.conj(t - z2))))
    for atom in measure.atoms:
        total += atom.weight / ((atom.location - z1) * (atom.location - z2).conjugate())
    return total


def kernel_identity_check(measure: hm.GeneratedMeasure, zeta1: complex, zeta2: complex) -> float:
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
