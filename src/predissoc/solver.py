"""Direct resonance computation for the coupled two-channel operator.

The operator

    P = [[-h^2 d2/dx2 + v1,  h (r0 + h r1 d/dx)],
         [h (r0 - h d/dx r1), -h^2 d2/dx2 + v2]]

is discretized on an interval with Dirichlet ends, after exterior complex
scaling of the right half-line: x is replaced by F(x) = x + i theta f(x)
where f vanishes identically left of x_start, one unit past the exit point,
ramps up through a cubic smoothstep of width ``RAMP_WIDTH``, and is exactly
x - x_start beyond the ramp.  Resonances appear as complex eigenvalues of
the scaled matrix that are insensitive to the scaling angle; the rotated
continuum sweeps past them as theta changes, which is what the stability
filter exploits when pairing eigenvalues with semiclassical estimates.

That insensitivity is measured from one eigensolve: the scaled operator is
complex-symmetric under the bilinear form (u, v) = integral of u v dz, so
the left eigenvector of an eigenpair (lambda, x) is conj(W F' x), with W
the grid's quadrature weights, and first-order perturbation theory gives
d lambda / d theta = y^H (dH/dtheta) x / y^H x.

Chebyshev collocation gives four dense n x n channel blocks; the
finite-difference scheme gives one band over the channel-interleaved
unknowns u1_0, u2_0, u1_1, u2_1, ..., built from its ``STENCILS`` row.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    ContourEvaluationError,
    EigensolveFailure,
    InvalidAngle,
)
from .expressions import differentiate
from .potentials import EnergyWindow, PotentialSystem
from .spectrum import ResonanceEstimate, resonance_estimates
from .turning_points import find_exit_point

__all__ = [
    "DiscretizationConfig",
    "HamiltonianMatrix",
    "ResonanceRecord",
    "ComparisonRecords",
    "build_hamiltonian",
    "compute_resonances",
    "theta_stability",
    "match_resonances",
    "compare_with_direct",
]

SCHEMES = ("chebyshev_collocation", "finite_difference_4")

#: Central-difference stencils of the finite-difference schemes: the D1 and
#: D2 weights at grid offsets -p..p, in units of 1/dx and 1/dx^2.
STENCILS = {
    "finite_difference_4": ((1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0),
                            (-1.0 / 12.0, 4.0 / 3.0, -2.5, 4.0 / 3.0, -1.0 / 12.0)),
}

#: Eigenvalues may creep slightly above the real axis through roundoff;
#: anything below this is still treated as a resonance candidate.
IM_ROUNDOFF_GUARD = 1e-9

#: The largest predicted theta-drift (see ``_drifts``) of an eigenvalue
#: that the stability screen keeps as a resonance.
STAB_TOL = 1e-6

#: Width of the contour's smoothstep ramp.  Resonances depend on neither it
#: nor the scaling start (Simon, Phys. Lett. A 71, 211 (1979)).
RAMP_WIDTH = 3.0

#: Eigenvalues asked of the first shift-invert solve of a box disc, whose
#: count is unknown; the solve doubles this until it reaches past the disc.
#: The reference box disc holds about 17 eigenvalues.
K_START = 24

logger = logging.getLogger("predissoc.solver")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid, scheme and complex-scaling parameters for the matrix solver."""

    x_min: float = -8.0
    x_max: float = 12.0
    n: int = 400
    scheme: str = "chebyshev_collocation"
    theta: float = 0.15

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not self.x_min < 0.0 < self.x_max:
            raise ValueError("interval must contain the crossing point x = 0")
        if self.n < 64:
            raise ValueError("need at least 64 interior grid points")
        if not 0.0 <= self.theta < math.pi / 4:
            raise InvalidAngle(
                f"scaling angle {self.theta!r} outside [0, pi/4)"
            )


def _contour_parts(x: np.ndarray, x_inf: float):
    """(f, f', f'') of the ramp profile at the nodes, all piecewise analytic.

    The slope is the cubic smoothstep: f' = 3u^2 - 2u^3 with
    u = (x - x_inf)/width on the ramp of width RAMP_WIDTH, so f' climbs
    monotonically from 0 to 1 and f'' vanishes at both ramp edges (the
    profile is C^2 on all of the axis).  Integrating,
    f = (x - x_inf)(u^2 - u^3/2) on the ramp and f = x - x_inf - width/2
    exactly beyond it.
    """
    width = RAMP_WIDTH
    f = np.zeros_like(x)
    fp = np.zeros_like(x)
    fpp = np.zeros_like(x)
    on_ramp = (x > x_inf) & (x < x_inf + width)
    u = (x[on_ramp] - x_inf) / width
    f[on_ramp] = (x[on_ramp] - x_inf) * (u * u - 0.5 * u ** 3)
    fp[on_ramp] = 3.0 * u * u - 2.0 * u ** 3
    fpp[on_ramp] = 6.0 * (u - u * u) / width
    beyond = x >= x_inf + width
    f[beyond] = x[beyond] - x_inf - width / 2.0
    fp[beyond] = 1.0
    return f, fp, fpp


def _cheb_matrix(n_total: int):
    """Spectral differentiation matrix on the n_total+1 Chebyshev points."""
    j = np.arange(n_total + 1)
    x = np.cos(np.pi * j / n_total)
    c = np.ones(n_total + 1)
    c[0] = 2.0
    c[-1] = 2.0
    c *= (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n_total + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


@lru_cache(maxsize=4)
def _derivative_matrices(scheme: str, n: int, x_min: float, x_max: float):
    """Interior-node first/second derivatives, the (ascending) nodes and
    their quadrature weights W, with Dirichlet conditions imposed by
    dropping the endpoint rows and columns.

    The Chebyshev derivatives are dense n x n matrices.  A finite-difference
    scheme's are its ``STENCILS`` rows scaled by 1/dx and 1/dx^2 on the
    uniform interior grid; rows near the Dirichlet ends are plain
    truncations of the infinite stencil, which keeps D1 exactly
    skew-symmetric and D2 exactly symmetric.

    W is the W of :func:`_left_weights`: 1 on the finite-difference grid,
    and the Clenshaw-Curtis weights of the interior Chebyshev points
    cos(pi j / N), N = n + 1 (Trefethen, Spectral Methods in MATLAB,
    ch. 12).

    Cached per grid, as they depend on neither h nor theta: every
    assembly of a scan shares one set.  Their values are read-only.
    """
    if scheme == "chebyshev_collocation":
        d_full, xi = _cheb_matrix(n + 1)
        d2_full = d_full @ d_full
        order = np.argsort(xi)
        d_full = d_full[np.ix_(order, order)]
        d2_full = d2_full[np.ix_(order, order)]
        xi = xi[order]
        scale = 2.0 / (x_max - x_min)
        nodes = x_min + (xi[1:-1] + 1.0) / scale
        d1 = d_full[1:-1, 1:-1] * scale
        d2 = d2_full[1:-1, 1:-1] * scale * scale
        big_n = n + 1
        angle = np.pi * np.arange(1, big_n) / big_n
        k = np.arange(1, (big_n - 1) // 2 + 1)[:, None]
        # summed elementwise: a numpy matrix product would wake numpy's BLAS
        weight = 1.0 - np.sum(2.0 / (4.0 * k * k - 1.0) * np.cos(2.0 * k * angle), axis=0)
        if big_n % 2 == 0:
            weight -= np.cos(big_n * angle) / (big_n * big_n - 1.0)
        weight *= (x_max - x_min) / big_n
    else:
        dx = (x_max - x_min) / (n + 1)
        nodes = x_min + dx * np.arange(1, n + 1)
        weight = np.ones(n)
        d1, d2 = STENCILS[scheme]
        d1, d2 = np.array(d1) / dx, np.array(d2) / (dx * dx)
    for arr in (d1, d2, nodes, weight):
        arr.flags.writeable = False
    return d1, d2, nodes, weight


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Discretized, contour-deformed two-channel operator.

    ``blocks`` is the operator in the layout the shift-invert factor reads.
    Chebyshev collocation gives the tuple ``(H11, H12, H21, H22)`` of its
    n x n channel blocks, dense Fortran-ordered arrays, except that the
    coupling blocks are the 1-D vector h r0 of their diagonal when r1 is
    identically zero.  The finite-difference scheme gives one array, the
    channel-interleaved band (see :func:`_band`).
    """

    blocks: tuple | np.ndarray
    x_nodes: np.ndarray
    z_nodes: np.ndarray
    contour_scale: np.ndarray
    x_start_scaling: float
    config: DiscretizationConfig
    h: float


def _resolve_x_inf(sys: PotentialSystem, cfg: DiscretizationConfig,
                   window: EnergyWindow | None) -> float:
    if cfg.theta == 0.0:
        return cfg.x_max  # no scaling region needed on an unrotated contour
    if window is None:
        raise ValueError("a rotated contour needs a window to place its scaling start")
    c = float(np.real(find_exit_point(sys, window.e_ref)))
    x_inf = c + 1.0
    if x_inf + RAMP_WIDTH > cfg.x_max:
        # valid for DiscretizationConfig, too short for this window: the
        # interval is a configuration choice, so the error is one too
        raise ConfigError(
            f"derived scaling start {x_inf!r} leaves no room for the ramp "
            f"before x_max = {cfg.x_max!r}; enlarge the interval"
        )
    return x_inf


def _on_contour(name: str, expr, z: np.ndarray, cfg: DiscretizationConfig,
                x_inf: float) -> np.ndarray:
    """Values of ``expr`` at the contour nodes z, checked finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(expr(z), dtype=complex)
    if vals.ndim == 0:
        vals = np.full(z.shape, complex(vals))
    if not np.all(np.isfinite(vals)):
        raise ContourEvaluationError(
            f"{name} is not finite on the deformed contour "
            f"(theta={cfg.theta!r}, x_start_scaling={x_inf!r})"
        )
    return vals


def build_hamiltonian(sys: PotentialSystem, cfg: DiscretizationConfig, h: float,
                      window: EnergyWindow | None = None) -> HamiltonianMatrix:
    """Assemble the complex-scaled operator: four n x n channel blocks
    (Chebyshev) or one channel-interleaved band (finite differences).

    The scaling starts one unit beyond the exit point at the window's
    reference energy (``window`` may be omitted at theta = 0 only).  All
    coefficient functions are evaluated on the deformed contour
    z = x + i theta f(x); derivative matrices pick up 1/F' (first order)
    and 1/F'^2 together with the curvature term -F''/F'^3 (second order).

    The dense (Chebyshev) blocks are written in place, about 1.1 x their
    own size at peak: the kinetic block once, with the F'' term only on
    the ramp rows where F'' is nonzero, copied to the other channel; v1 and
    v2 on the diagonals; and the coupling blocks, which are the vector h r0
    when r1 is identically zero, else h (r0 + h r1 D1c) and
    h (r0 - h D1c r1) in full.
    """
    x_inf = _resolve_x_inf(sys, cfg, window)
    d1, d2, nodes, _ = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)
    f, fp, fpp = _contour_parts(nodes, x_inf)
    fprime = 1.0 + 1j * cfg.theta * fp
    fsecond = 1j * cfg.theta * fpp
    z = nodes + 1j * cfg.theta * f
    v1, v2, r0, r1 = (_on_contour(name, expr, z, cfg, x_inf)
                      for name, expr in (("v1", sys.v1), ("v2", sys.v2),
                                         ("r0", sys.r0), ("r1", sys.r1)))
    build = _dense_blocks if d1.ndim == 2 else _band
    blocks = build(d1, d2, fprime, fsecond, v1, v2, r0, r1, h)
    return HamiltonianMatrix(blocks=blocks, x_nodes=nodes, z_nodes=z,
                             contour_scale=fprime, x_start_scaling=x_inf,
                             config=cfg, h=h)


def _band(d1, d2, fprime, fsecond, v1, v2, r0, r1, h):
    """The finite-difference operator as one channel-interleaved band.

    Unknown 2i + a is channel a + 1 at node i.  With the stencils d1, d2 of
    half-width p, grid row i couples to i + s for |s| <= p, so row 2i + a
    reaches columns up to q = 2p + 1 away.  Returns the (2q + 1, 2n) array
    B with B[q + d, r] = H[r, r + d]; entries whose column falls outside
    the matrix are zero.  The channel blocks are

        H11 = -h^2 D2c + v1,    H12 = h (r0 + h r1 D1c),
        H21 = h (r0 - h D1c r1),    H22 = -h^2 D2c + v2,

    with D1c = (1/F') D1 and D2c = (1/F'^2) D2 - (F''/F'^3) D1, D1 and D2
    the stencils truncated at the Dirichlet ends.
    """
    n, p = fprime.size, d1.size // 2
    q = 2 * p + 1
    # row p + s of each (2p + 1, n) array below holds stencil entry s of
    # every grid row i, zero where i + s runs past a Dirichlet end
    inside = np.lib.stride_tricks.sliding_window_view(np.pad(np.ones(n), p), n)
    d1_rows, d2_rows = d1[:, None] * inside, d2[:, None] * inside
    kinetic = -h * h * (d2_rows * (1.0 / fprime ** 2) - d1_rows * (fsecond / fprime ** 3))
    d1c = (1.0 / fprime) * d1_rows
    r1_next = np.lib.stride_tricks.sliding_window_view(np.pad(r1, p), n)  # r1 at node i + s
    h12 = (h * r1) * d1c
    h21 = -(h * d1c) * r1_next
    h12[p] += r0
    h21[p] += r0
    band = np.zeros((2 * q + 1, n, 2), dtype=complex)  # [q + d, i, a]
    band[1:2 * q:2, :, 0] = kinetic  # H11 at d = 2s on channel-1 rows
    band[1:2 * q:2, :, 1] = kinetic  # H22 at d = 2s on channel-2 rows
    band[q, :, 0] += v1
    band[q, :, 1] += v2
    band[2:2 * q + 1:2, :, 0] = h * h12  # H12 at d = 2s + 1
    band[0:2 * q - 1:2, :, 1] = h * h21  # H21 at d = 2s - 1
    return band.reshape(2 * q + 1, 2 * n)


def _dense_blocks(d1, d2, fprime, fsecond, v1, v2, r0, r1, h):
    """The Chebyshev channel blocks, built in place (see
    :func:`build_hamiltonian`)."""
    diagonal = np.diag_indices(fprime.size)

    # -h^2 D2c, D2c = (1/F'^2) D2 - (F''/F'^3) D1
    h11 = np.multiply((1.0 / fprime ** 2)[:, None], d2, order="F")
    ramp = np.flatnonzero(fsecond)
    h11[ramp] -= (fsecond[ramp] / fprime[ramp] ** 3)[:, None] * d1[ramp]
    h11 *= -h * h
    h22 = h11.copy(order="F")
    h11[diagonal] += v1
    h22[diagonal] += v2

    # h (r0 + h r1 D1c) above and h (r0 - h D1c r1) below, D1c = (1/F') D1
    if not np.any(r1):
        coupling = h * r0
        return h11, coupling, coupling, h22
    h12 = np.multiply((1.0 / fprime)[:, None], d1, order="F")
    h21 = h12 * h
    h12 *= (h * r1)[:, None]
    h21 *= r1[None, :]
    np.negative(h21, out=h21)
    h12[diagonal] += r0
    h21[diagonal] += r0
    h12 *= h
    h21 *= h
    return h11, h12, h21, h22


@lru_cache(maxsize=8)
def _band_pattern(stored: tuple, width: int, dim: int):
    """``(take, indices, indptr, diagonal)``: the CSC pattern of the
    matrix held in a (width, dim) band B of :func:`_band`, of which only
    the ``stored`` entries of the flattened (width, 2) table of band rows
    by channel are nonzero.  ``take`` indexes the flattened B, column by
    column with ascending rows (H[r, c] = B[q + c - r, r], q = width // 2),
    and ``diagonal`` locates the main diagonal in the data.  The zeros
    outside ``stored`` (with r1 identically zero, all of the odd diagonals
    but the r0 halves of d = +-1) never reach the factor.  Cached per grid
    size and stored set; read-only.
    """
    q = width // 2
    table = np.isin(np.arange(2 * width), stored).reshape(width, 2)
    offsets = np.arange(q, -q - 1, -1)  # c - r, falling so that rows ascend
    row = np.arange(dim)[:, None] - offsets
    inside = (row >= 0) & (row < dim) & table[q + offsets, row % 2]
    take = ((q + offsets) * dim + row)[inside]
    indices = row[inside].astype(np.intc)
    indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))]).astype(np.intc)
    diagonal = np.flatnonzero(np.broadcast_to(offsets == 0, row.shape)[inside])
    for arr in (take, indices, indptr, diagonal):
        arr.flags.writeable = False
    return take, indices, indptr, diagonal


def _shift_invert(blocks, sigma: complex):
    """Factor H - sigma once; returns ``(solve, fill)``, the map
    x -> (H - sigma)^-1 x and the band factor's fill, nnz(L) + nnz(U) as
    SuperLU stores them, or None for dense blocks.

    The finite-difference band (:func:`_band`) is gathered into a CSC
    matrix through its cached :func:`_band_pattern` and factored by
    ``splu`` in its natural order: a band LU with row pivoting keeps L
    within the band and U within twice its upper half-width, so no
    fill-reducing ordering is needed (Golub & Van Loan, Matrix
    Computations, banded LU).  Its solve works in the band's
    channel-interleaved order.

    Dense channel blocks H = [[H11, H12], [H21, H22]] are factored by
    channel, in their own memory, and are unusable afterwards.  With
    A1 = H11 - sigma and A2 = H22 - sigma, block elimination (Golub & Van
    Loan, block LU) of channel 1 factors A1, forms W = A1^-1 H12 and the
    Schur complement S = A2 - H21 W, and factors S; a solve is then

        y1 = A1^-1 b1,    x2 = S^-1 (b2 - H21 y1),    x1 = y1 - W x2,

    two n x n LU solves and one product with W, plus one with H21 when the
    r1 D1 term makes the coupling dense.  Every LU pivots by rows.  W is
    formed over H12 when that block is dense; a diagonal coupling (a 1-D
    block) makes W the one new n x n array, and S then scales W's rows.
    Two n x n factors replace one 2n x 2n factor, and a solve reads about
    3/4 of the bytes.

    The channel eliminated first is the one whose shifted block stays far
    from singular, as block LU's backward stability needs: at a complex
    sigma (a box centre) channel 1, whose A1 has v1's real bound states at
    least C0 h / 2 away; at a real sigma (a level e_k of
    :func:`_compare_level`, O(h^2) from a bound state) channel 2, whose
    continuum the scaling rotates off the real axis.  There, with a dense
    coupling, channel 1 first read 21-82 x a full LU's backward error and
    channel 2 first reads 1-2 x.  An exactly singular first block, S or
    band factor raises EigensolveFailure.  Every matrix product runs on
    scipy's BLAS (see :func:`_blas_apply`).

    The returned solve must not be shared between threads: concurrent
    solves with one dense factor can abort the interpreter, so each thread
    needs its own factor.
    """
    import scipy.linalg  # on first use, as in _disc_eigenvalues
    import scipy.sparse.linalg

    if isinstance(blocks, np.ndarray):
        width, dim = blocks.shape
        # band row by channel (a strided reduction over a (width, n, 2) view is slower)
        stored = np.stack([np.any(blocks[:, a::2], axis=1) for a in (0, 1)], axis=1)
        stored[width // 2] = True  # the shift lands on the main diagonal
        take, indices, indptr, diagonal = _band_pattern(tuple(np.flatnonzero(stored)),
                                                        width, dim)
        data = blocks.take(take)
        data[diagonal] -= sigma
        shifted = scipy.sparse.csc_array((data, indices, indptr), shape=(dim, dim))
        try:
            lu = scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL")
        except RuntimeError as exc:  # exactly singular factor
            raise EigensolveFailure(f"shift-invert factorisation failed: {exc}") from exc
        return lu.solve, lu.nnz

    first = 1 if sigma.imag else 2  # the channel eliminated first
    # channel 2 first is the same elimination of the swapped blocks
    h11, h12, h21, h22 = blocks if first == 1 else blocks[::-1]
    n = h11.shape[0]
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (h11,))
    gemv, gemm = scipy.linalg.get_blas_funcs(("gemv", "gemm"), (h11,))
    diagonal = np.diag_indices(n)

    def factor(block, name):
        block[diagonal] -= sigma
        lu, piv, info = getrf(block, overwrite_a=1)
        if info != 0:
            raise EigensolveFailure(
                f"shift-invert factorisation failed: {name} is exactly singular "
                f"at sigma = {sigma:.6g}")
        return lu, piv

    lu1, piv1 = factor(h11, f"the channel-{first} block")
    if h12.ndim == 2:
        w = h12
    else:
        w = np.zeros((n, n), dtype=complex, order="F")
        w[diagonal] = h12
    w, _ = getrs(lu1, piv1, w, overwrite_b=1)
    # S = A2 - H21 W, over H22 (factor shifts it last)
    if h21.ndim == 2:
        h22 = gemm(-1.0, h21, w, beta=1.0, c=h22, overwrite_c=1)
    else:  # 64 columns at a time, so no n x n transient is made
        for j in range(0, n, 64):
            h22[:, j:j + 64] -= h21[:, None] * w[:, j:j + 64]
    lu2, piv2 = factor(h22, f"the Schur complement of the channel-{first} block")

    def solve(b):
        x = np.array(b, dtype=complex).reshape(-1)
        x1, x2 = (x[:n], x[n:]) if first == 1 else (x[n:], x[:n])
        getrs(lu1, piv1, x1, overwrite_b=1)
        if h21.ndim == 2:
            gemv(-1.0, h21, x1, beta=1.0, y=x2, overwrite_y=1)
        else:
            x2 -= h21 * x1
        getrs(lu2, piv2, x2, overwrite_b=1)
        gemv(-1.0, w, x2, beta=1.0, y=x1, overwrite_y=1)
        return x

    return solve, None


def _disc_eigenvalues(blocks, sigma: complex, radius: float, k_start: int = K_START,
                      vectors: bool = False, until=None):
    """Every eigenvalue within ``radius`` of ``sigma`` of the operator whose
    ``blocks`` are those of :class:`HamiltonianMatrix`.

    Shift-invert Arnoldi (ARPACK) about sigma returns the k eigenvalues
    nearest it; k doubles from ``k_start`` until the farthest of them lies
    outside the disc, so the disc is complete.  ``until``, a predicate of
    each solve's ``(vals, vecs)``, may end the doubling earlier.  Returns
    ``(vals, vecs)``: those k eigenvalues (the disc's and the few just
    beyond it) and, with ``vectors``, their right eigenvectors as columns in
    channel order (channel 1 over channel 2), else None.  Dense blocks are
    consumed by the factorisation.  A disc too full for ARPACK, whose k
    must stay below dim - 2, raises EigensolveFailure rather than return
    part of it.

    Each solve keeps scipy's default of ncv = max(2k + 1, 20) Arnoldi
    vectors, at most dim: 49 for a box disc's first k = K_START, 20 for the
    few nearest eigenpairs of a scan row or of :func:`theta_stability`.
    With 2k + 1 alone, a k = 2 solve about a level e_k of the reference
    instance (k = 7), whose neighbours e_k-1 and e_k+1 lie almost equally
    far from it, did not converge in 8001 ARPACK iterations.

    The factorisation (:func:`_shift_invert`) runs once per disc, before
    ARPACK, and serves every k: a finite-difference band by ``splu`` in its
    natural order, dense blocks by block elimination of one channel, with
    row-pivoted LU factors and every product on scipy's BLAS.  Each call
    makes its own factor, and no factor may be shared between threads.
    ARPACK runs in the band's channel-interleaved order: the start vector is
    interleaved once and each solve's eigenvectors de-interleaved once, so
    no operator solve permutes.  The ``eigensolve:`` DEBUG line gives the
    final k and ncv, splits the time into ``factor_s`` (the factorisation),
    ``solve_s`` (inside the operator) and ``arpack_s`` (the rest of the
    ``eigs`` calls), and for a band gives the factor's ``fill``,
    nnz(L) + nnz(U).
    """
    # imported on first use: the commands with no eigensolve (levels,
    # widths, validate) start faster without it
    import scipy.sparse.linalg

    banded = isinstance(blocks, np.ndarray)
    dim = blocks.shape[1] if banded else 2 * blocks[0].shape[0]
    started = time.perf_counter()
    solve, fill = _shift_invert(blocks, sigma)
    factor_s = time.perf_counter() - started
    solves, solve_s, eigs_s = 0, 0.0, 0.0

    def counted_solve(x):
        nonlocal solves, solve_s
        began = time.perf_counter()
        out = solve(x)
        solve_s += time.perf_counter() - began
        solves += 1
        return out

    inverse = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=counted_solve,
                                                 dtype=complex)
    # a fixed random start vector: deterministic, and with no symmetry that
    # could hide an eigenvector from the Krylov space
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    if banded:
        v0 = v0.reshape(2, -1).T.ravel()
    k_cap = dim - 3  # ARPACK needs k < dim - 1; k = dim - 2 and up is refused
    k = min(k_start, k_cap)
    while True:
        ncv = min(max(2 * k + 1, 20), dim)
        began = time.perf_counter()
        try:
            # in shift-invert mode ARPACK applies only OPinv; the operator
            # passed as A supplies shape and dtype
            found = scipy.sparse.linalg.eigs(inverse, k=k, ncv=ncv, sigma=sigma,
                                             OPinv=inverse, v0=v0,
                                             return_eigenvectors=vectors)
        except scipy.sparse.linalg.ArpackError as exc:
            raise EigensolveFailure(f"shift-invert eigensolve failed: {exc}") from exc
        finally:
            eigs_s += time.perf_counter() - began
        vals, vecs = found if vectors else (found, None)
        if not np.all(np.isfinite(vals)):
            raise EigensolveFailure("eigensolve returned non-finite eigenvalues")
        if banded and vectors:
            vecs = vecs.reshape(-1, 2, vecs.shape[1]).transpose(1, 0, 2).reshape(dim, -1)
        if until is not None and until(vals, vecs):
            break
        if np.max(np.abs(vals - sigma)) > radius:
            break
        if k == k_cap:
            raise EigensolveFailure(
                f"the disc |E - ({sigma:.6g})| <= {radius:.6g} holds more than "
                f"{k_cap} eigenvalues, the most ARPACK returns for a {dim} x {dim} matrix")
        k = min(2 * k, k_cap)
    dist = np.abs(vals - sigma)
    logger.debug("eigensolve: dim=%d sigma=%.6g%+.6gj radius=%.3g k=%d ncv=%d in disc=%d "
                 "margin=%.3g operator solves=%d factor_s=%.6f solve_s=%.6f arpack_s=%.6f%s",
                 dim, sigma.real, sigma.imag, radius, k, ncv, int(np.sum(dist <= radius)),
                 dist.max() - radius, solves, factor_s, solve_s, eigs_s - solve_s,
                 "" if fill is None else f" fill={fill}")
    return vals, vecs


def _box_disc(window: EnergyWindow, h: float) -> tuple[complex, float]:
    """Centre and radius of the disc circumscribing the resonance box."""
    half_depth = 0.5 * window.im_depth_coeff * h
    sigma = complex(window.e_ref, -half_depth)
    return sigma, math.hypot(window.half_width, half_depth + IM_ROUNDOFF_GUARD)


def _filter_window(vals: np.ndarray, window: EnergyWindow, h: float) -> np.ndarray:
    """Indices into ``vals`` of its eigenvalues in the resonance box (see
    :func:`compute_resonances`), ordered by real part."""
    box = np.flatnonzero((vals.real >= window.lo) & (vals.real <= window.hi)
                         & (vals.imag > -window.im_depth_coeff * h)
                         & (vals.imag <= IM_ROUNDOFF_GUARD))
    return box[np.argsort(vals[box].real)]


def compute_resonances(sys: PotentialSystem, cfg: DiscretizationConfig, h: float,
                       window: EnergyWindow) -> np.ndarray:
    """Eigenvalues of the scaled matrix inside the window's resonance box.

    The box is Re in [lo, hi], -C0 h < Im <= (roundoff guard); results come
    back sorted by real part.  No stability screening happens here — the
    list may contain rotated-continuum points alongside true resonances.
    Only the eigenvalues in the disc circumscribing the box are computed,
    and no eigenvectors.
    """
    ham = build_hamiltonian(sys, cfg, h, window)
    vals, _ = _disc_eigenvalues(ham.blocks, *_box_disc(window, h))
    return vals[_filter_window(vals, window, h)]


def _left_weights(ham: HamiltonianMatrix) -> np.ndarray:
    """Weights w for which y = conj(w x) is the left eigenvector of an
    eigenpair (lambda, x) of ``ham``: W F' on each channel, with the grid's
    quadrature weights W (:func:`_derivative_matrices`).
    """
    cfg = ham.config
    weight = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)[3] * ham.contour_scale
    return np.concatenate([weight, weight])


def _blas_apply(d, block: np.ndarray) -> np.ndarray:
    """D @ block for a real derivative D (:func:`_derivative_matrices`)
    and a complex n x m block.

    A stencil row (1-D d) is applied as its truncated stencil, by shifted
    slices.  Dense products run on scipy's BLAS, which the LU
    factorisations use: numpy loads an OpenBLAS of its own, and its thread
    pool contends with scipy's when a numpy product runs between two
    factorisations.
    """
    if d.ndim == 1:
        p = d.size // 2
        out = d[p] * block
        for s in range(1, p + 1):
            out[:-s] += d[p + s] * block[s:]
            out[s:] += d[p - s] * block[:-s]
        return out
    import scipy.linalg  # loaded by the eigensolve that gave the block

    parts = np.asfortranarray(np.concatenate([block.real, block.imag], axis=1))
    # d.T is d's Fortran-ordered view, so trans_a=1 multiplies by d uncopied
    real, imag = np.split(scipy.linalg.blas.dgemm(1.0, d.T, parts, trans_a=1), 2, axis=1)
    return real + 1j * imag


def _theta_derivative(sys: PotentialSystem, ham: HamiltonianMatrix,
                      vecs: np.ndarray) -> np.ndarray:
    """(dH/dtheta) X for the 2n x m block X, at fixed nodes and x_start.

    theta enters H through z = x + i theta f, F' = 1 + i theta f' and
    F'' = i theta f'', whose theta-derivatives are i f, i f' and i f''.
    """
    cfg, h = ham.config, ham.h
    d1, d2, nodes, _ = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)
    f, fp, fpp = _contour_parts(nodes, ham.x_start_scaling)
    z, fprime = ham.z_nodes, ham.contour_scale
    fsecond = 1j * cfg.theta * fpp
    n = nodes.size
    x1, x2 = vecs[:n], vecs[n:]

    def along(name, expr):  # d/dtheta of expr(z) = expr'(z) i f
        return 1j * f * _on_contour(name, expr, z, cfg, ham.x_start_scaling)

    dv1, dv2 = along("v1'", sys.dv1), along("v2'", sys.dv2)
    dr0, dr1 = along("r0'", differentiate(sys.r0)), along("r1'", differentiate(sys.r1))
    r1 = _on_contour("r1", sys.r1, z, cfg, ham.x_start_scaling)
    inv_f = 1.0 / fprime
    # d(1/F'), d(1/F'^2) and d(-F''/F'^3), the row factors of D1c and D2c
    a1 = -1j * fp * inv_f ** 2
    b2 = -2j * fp * inv_f ** 3
    b1 = -1j * fpp * inv_f ** 3 + 3j * fp * fsecond * inv_f ** 4
    # every factor below scales the rows of an n x m block
    dv1, dv2, dr0, dr1, r1, inv_f, a1, b1, b2 = (
        v[:, None] for v in (dv1, dv2, dr0, dr1, r1, inv_f, a1, b1, b2))
    d1x1, d1x2, d1r1x1, d1dr1x1 = np.split(
        _blas_apply(d1, np.concatenate([x1, x2, r1 * x1, dr1 * x1], axis=1)), 4, axis=1)
    d2x1, d2x2 = np.split(_blas_apply(d2, np.concatenate([x1, x2], axis=1)), 2, axis=1)
    top = (-h * h * (b2 * d2x1 + b1 * d1x1) + dv1 * x1
           + h * (dr0 * x2 + h * (dr1 * inv_f + r1 * a1) * d1x2))
    bottom = (-h * h * (b2 * d2x2 + b1 * d1x2) + dv2 * x2
              + h * (dr0 * x1 - h * (a1 * d1r1x1 + inv_f * d1dr1x1)))
    return np.concatenate([top, bottom])


def _drifts(sys: PotentialSystem, ham: HamiltonianMatrix, x: np.ndarray) -> np.ndarray:
    """Predicted drift under theta -> 1.2 theta, |d lambda/d theta| 0.2 theta,
    of the eigenvalue of each right eigenvector of ``ham`` in the columns
    of ``x``.

    With the left eigenvector y = conj(w x) of :func:`_left_weights`,
    y^H v = sum(w x v) is a bilinear sum with no conjugation.
    """
    weight = _left_weights(ham)[:, None]
    rate = (np.sum(weight * x * _theta_derivative(sys, ham, x), axis=0)
            / np.sum(weight * x * x, axis=0))
    return np.abs(rate) * 0.2 * ham.config.theta


def theta_stability(sys: PotentialSystem, cfg: DiscretizationConfig, h: float,
                    E: complex, window: EnergyWindow) -> float:
    """How far the eigenvalue nearest E moves when theta grows by 20 %,
    to first order: |d lambda/d theta| 0.2 theta.

    Small values (<< local spacing) certify E as a genuine resonance of the
    unscaled problem.  One solve takes the eigenpair nearest E (k = 1, the
    solve of a scan row); the derivative follows from the eigenvector (see
    the module docstring).  ``window`` places the scaling start, as in
    :func:`build_hamiltonian`.  theta = 0 raises InvalidAngle before any
    work.
    """
    if cfg.theta <= 0.0:
        raise InvalidAngle("stability testing requires a positive scaling angle")
    E = complex(E)
    ham = build_hamiltonian(sys, cfg, h, window)
    _, vecs = _disc_eigenvalues(ham.blocks, E, 0.0, 1, vectors=True)
    return float(_drifts(sys, ham, vecs)[0])


@dataclass
class ResonanceRecord:
    """One semiclassical estimate paired (or not) with a direct eigenvalue:
    one row of ``compare.csv`` and of ``scan.csv``, whose columns are these
    fields in this order.

    The first five come from the level's :class:`ResonanceEstimate` (``S``
    is its ``s_at_ek``, ``width_formula`` its ``width``); the direct fields
    stay NaN, and ``accepted`` False, while the level is unmatched.
    """

    k: int
    h: float
    e_k: float
    S: float
    width_formula: float
    re_direct: float = math.nan
    width_direct: float = math.nan
    abs_dev_re: float = math.nan
    rel_dev_im: float = math.nan
    theta_stability: float = math.nan
    accepted: bool = False

    @property
    def computed(self) -> complex | None:
        """The matched eigenvalue, or None while the level is unmatched."""
        if math.isnan(self.re_direct):
            return None
        return complex(self.re_direct, self.width_direct)


class ComparisonRecords(list):
    """The records of :func:`compare_with_direct`, one per estimated level.

    ``skipped`` lists the window levels whose estimate failed, as
    ``(k, e_k, reason)``; they have no record.
    """

    def __init__(self, records, skipped):
        super().__init__(records)
        self.skipped = list(skipped)


def match_resonances(estimates: list[ResonanceEstimate],
                     eigenvalues: np.ndarray) -> list[ResonanceRecord]:
    """Greedily pair estimates with eigenvalues by real-part distance.

    Pairs are taken globally closest-first; each eigenvalue is used at most
    once, and pairs farther apart than 5 h^(3/2) (the next-correction
    scale of the level positions) are left unmatched.
    """
    records = [ResonanceRecord(est.k, est.h, est.e_k, est.s_at_ek, est.width)
               for est in estimates]
    if not estimates or len(eigenvalues) == 0:
        return records
    radius = 5.0 * estimates[0].h ** 1.5
    pairs = sorted(
        (abs(float(np.real(eigenvalues[j])) - est.e_k), i, j)
        for i, est in enumerate(estimates)
        for j in range(len(eigenvalues))
    )
    used_est: set[int] = set()
    used_eig: set[int] = set()
    for dist, i, j in pairs:
        if dist > radius:
            break
        if i in used_est or j in used_eig:
            continue
        used_est.add(i)
        used_eig.add(j)
        lam = complex(eigenvalues[j])
        rec = records[i]
        rec.re_direct, rec.width_direct = lam.real, lam.imag
        rec.abs_dev_re = dist
        width = rec.width_formula
        rec.rel_dev_im = abs(lam.imag - width) / abs(width) if width != 0 else math.inf
    return records


def _judge(estimates: list[ResonanceEstimate], vals: np.ndarray, drifts: np.ndarray,
           window: EnergyWindow, h: float) -> list[ResonanceRecord]:
    """The verdict of one solve: ``estimates`` matched (:func:`match_resonances`)
    against those of its theta-stable eigenvalues ``vals``, with predicted
    drifts ``drifts``, that lie in the resonance box.

    Each matched record carries its own eigenvalue's drift, and is accepted
    when its width is finite relative to the formula's and its |Im| clears
    the eigensolver noise floor, 100 x the largest matched drift.
    """
    box = _filter_window(vals, window, h)
    vals, drifts = vals[box], drifts[box]
    records = match_resonances(estimates, vals)
    # each matched eigenvalue is one of vals; built in reverse, so of two
    # equal eigenvalues the first gives the drift
    drift_of = dict(zip(vals[::-1], drifts[::-1]))
    matched = [rec for rec in records if rec.computed is not None]
    for rec in matched:
        rec.theta_stability = float(drift_of[rec.computed])
    noise_floor = 100.0 * max((rec.theta_stability for rec in matched), default=0.0)
    for rec in matched:
        rec.accepted = abs(rec.width_direct) >= noise_floor and math.isfinite(rec.rel_dev_im)
    return records


def compare_with_direct(sys: PotentialSystem, window: EnergyWindow,
                        cfg: DiscretizationConfig, h: float) -> ComparisonRecords:
    """Full pipeline: estimates, direct eigenvalues, stability, matching.

    Eigenvalues in the window are screened for theta-stability first, so
    rotated-continuum points (which can sit closer in real part than the
    true resonance) never enter the pairing; an eigenvalue is stable when
    its drift is at most ``STAB_TOL``.  The stable ones are judged together
    by :func:`_judge`.  Levels whose estimate failed are logged and kept in
    ``skipped``.

    One solve of the box disc gives the eigenvalues and, for the stability
    screen, their eigenvectors.  theta = 0 raises InvalidAngle before any
    work.
    """
    if cfg.theta <= 0.0:
        raise InvalidAngle("stability testing requires a positive scaling angle")
    estimates, skipped = resonance_estimates(sys, h, window)
    for k, e_k, reason in skipped:
        logger.warning("skipped level k=%d e_k=%.10g: %s", k, e_k, reason)
    if not estimates:
        return ComparisonRecords([], skipped)

    ham = build_hamiltonian(sys, cfg, h, window)
    vals, vecs = _disc_eigenvalues(ham.blocks, *_box_disc(window, h), vectors=True)
    box = _filter_window(vals, window, h)
    drifts = _drifts(sys, ham, vecs[:, box]) if box.size else np.empty(0)
    stable = drifts <= STAB_TOL
    return ComparisonRecords(_judge(estimates, vals[box][stable], drifts[stable], window, h),
                             skipped)


def _compare_level(sys: PotentialSystem, window: EnergyWindow,
                   cfg: DiscretizationConfig, h: float, k: int) -> ResonanceRecord | None:
    """The record of level k alone: its estimate, paired with the nearest
    theta-stable eigenvalue to its level e_k.

    Returns None, with a WARNING about level k only, when the window holds
    no level k or its estimate failed.  Shift-invert converges fastest for
    the eigenvalue nearest the shift (Ericsson & Ruhe, Math. Comp. 35, 1251
    (1980)), and the resonance lies within O(h^2) of e_k, so one factor of
    H - e_k serves a solve for the k = 1 nearest eigenpair.
    The shift is real: the formula's width never enters the solve.  While
    none of the eigenvalues returned is stable (drift at most ``STAB_TOL``),
    k doubles on the same factor, until the farthest of them lies beyond
    hypot(5 h^(3/2), C0 h), past which no box eigenvalue can match.

    The nearest stable eigenvalue is judged as in :func:`compare_with_direct`
    (:func:`_judge`): matched within 5 h^(3/2) in real part when it lies in
    the resonance box, and accepted when |Im| clears 100 x its own drift.  A
    level left unmatched logs a WARNING with k, h and the reason.  theta = 0
    raises InvalidAngle before any work.
    """
    if cfg.theta <= 0.0:
        raise InvalidAngle("stability testing requires a positive scaling angle")
    estimates, skipped = resonance_estimates(sys, h, window)
    estimate = next((est for est in estimates if est.k == k), None)
    if estimate is None:
        for level, e_k, reason in skipped:
            if level == k:
                logger.warning("skipped level k=%d e_k=%.10g: %s", k, e_k, reason)
                return None
        logger.warning("no level k=%d in the window %.10g +- %.10g at h=%.10g",
                       k, window.e_ref, window.half_width, h)
        return None
    e_k = complex(estimate.e_k)
    ham = build_hamiltonian(sys, cfg, h, window)
    stable = None  # the nearest stable eigenvalue and its drift, as 0- or 1-arrays

    def stable_found(vals, vecs):
        nonlocal stable
        nearest = np.argsort(np.abs(vals - e_k))
        drifts = _drifts(sys, ham, vecs[:, nearest])
        ok = np.flatnonzero(drifts <= STAB_TOL)[:1]
        stable = vals[nearest[ok]], drifts[ok]
        return ok.size > 0

    reach = math.hypot(5.0 * h ** 1.5, window.im_depth_coeff * h)
    _disc_eigenvalues(ham.blocks, e_k, reach, 1, vectors=True, until=stable_found)
    lam, drift = stable
    [record] = _judge([estimate], lam, drift, window, h)
    if record.computed is None:
        reason = (f"no theta-stable eigenvalue within {reach:.3g} of e_k" if lam.size == 0
                  else f"the nearest theta-stable eigenvalue {complex(lam[0]):.10g} lies "
                       f"outside the resonance box or {5.0 * h ** 1.5:.3g} from e_k in real part")
        logger.warning("unmatched level k=%d h=%.10g: %s", k, h, reason)
    return record
