"""Direct resonance computation for the coupled two-channel operator.

The operator

    P = [[-h^2 d2/dx2 + v1,  h (r0 + h r1 d/dx)],
         [h (r0 - h d/dx r1), -h^2 d2/dx2 + v2]]

is discretized on an interval with Dirichlet ends, after exterior complex
scaling of the right half-line: x is replaced by F(x) = x + i theta f(x)
where f vanishes identically left of ``x_start_scaling``, ramps up through
a cubic smoothstep of the configured width, and is exactly x - x_start
beyond the ramp.  Resonances appear as complex eigenvalues of the scaled
matrix that are insensitive to the scaling angle; the rotated continuum
sweeps past them as theta changes, which is what the stability filter
exploits when pairing eigenvalues with semiclassical estimates.

That insensitivity is measured from one eigensolve: the scaled operator is
complex-symmetric under the bilinear form (u, v) = integral of u v dz, so
the left eigenvector of an eigenpair (lambda, x) is conj(W F' x), with W
the grid's quadrature weights, and first-order perturbation theory gives
d lambda / d theta = y^H (dH/dtheta) x / y^H x.
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

#: Eigenvalues may creep slightly above the real axis through roundoff;
#: anything below this is still treated as a resonance candidate.
IM_ROUNDOFF_GUARD = 1e-9

#: Default of the largest predicted theta-drift (see ``_drifts``) of an
#: eigenvalue that the stability screen keeps as a resonance.
STAB_TOL = 1e-6

#: Eigenvalues asked of the first shift-invert solve of a disc whose count
#: is unknown; the solve doubles this until it reaches past the disc.  The
#: reference box disc holds about 17 eigenvalues, the scan boxes 3 to 9.
K_START = 24

#: A solve given the disc count of a neighbouring disc (the previous h of a
#: scan) asks for that count plus this many instead.  With the NCV_FLOOR
#: Krylov space, the seven scan_shallow discs take 717, 697 and 703
#: operator solves in all at pads 4, 3 and 2 (795 at 8).
K_HINT_PAD = 3

#: The least Krylov dimension of any solve: the 2k + 1 of a cold solve's
#: first k.  A hinted solve asks for fewer eigenvalues than K_START but
#: keeps this much room, which saves more restarts than it costs.
NCV_FLOOR = 2 * K_START + 1

logger = logging.getLogger("predissoc.solver")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid, scheme and complex-scaling parameters for the matrix solver."""

    x_min: float = -8.0
    x_max: float = 12.0
    n: int = 400
    scheme: str = "chebyshev_collocation"
    theta: float = 0.15
    x_start_scaling: float | None = None
    smoothing_width: float = 3.0

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
        if self.smoothing_width <= 0.0:
            raise ValueError("smoothing_width must be positive")
        if self.x_start_scaling is not None:
            x_inf = self.x_start_scaling
            if not (0.0 < x_inf and x_inf + self.smoothing_width <= self.x_max):
                raise ValueError(
                    "scaling region [x_start_scaling, x_start_scaling + width] "
                    "must lie inside (0, x_max]"
                )


def _contour_parts(x: np.ndarray, x_inf: float, width: float):
    """(f, f', f'') of the ramp profile at the nodes, all piecewise analytic.

    The slope is the cubic smoothstep: f' = 3u^2 - 2u^3 with
    u = (x - x_inf)/width on the ramp, so f' climbs monotonically from 0
    to 1 and f'' vanishes at both ramp edges (the profile is C^2 on all of
    the axis).  Integrating, f = (x - x_inf)(u^2 - u^3/2) on the ramp and
    f = x - x_inf - width/2 exactly beyond it.
    """
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
    """Interior-node first/second derivative matrices and the (ascending)
    nodes, with Dirichlet conditions imposed by dropping the endpoint rows
    and columns.

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
        frozen = (d1, d2, nodes)
    else:
        # fourth-order central differences on a uniform interior grid, stored
        # as sparse diagonals; rows near the Dirichlet ends are plain
        # truncations of the infinite stencil, which keeps D1 exactly
        # skew-symmetric and D2 exactly symmetric
        import scipy.sparse  # on first use, as in _disc_eigenvalues

        dx = (x_max - x_min) / (n + 1)
        nodes = x_min + dx * np.arange(1, n + 1)
        shape = (n, n)
        d1 = scipy.sparse.diags_array([1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0],
                                      offsets=(-2, -1, 1, 2), shape=shape)
        d2 = scipy.sparse.diags_array([-1.0 / 12.0, 4.0 / 3.0, -2.5, 4.0 / 3.0, -1.0 / 12.0],
                                      offsets=(-2, -1, 0, 1, 2), shape=shape)
        d1, d2 = (d1 / dx).tocsr(), (d2 / (dx * dx)).tocsr()
        frozen = (d1.data, d2.data, nodes)
    for arr in frozen:
        arr.flags.writeable = False
    return d1, d2, nodes


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Discretized, contour-deformed two-channel operator.

    ``blocks = (H11, H12, H21, H22)`` are its n x n channel blocks, the
    layout the shift-invert factor reads.  Chebyshev collocation gives
    dense Fortran-ordered arrays, except that the coupling blocks are the
    1-D vector h r0 of their diagonal when r1 is identically zero; the
    banded finite-difference scheme gives sparse arrays.
    """

    blocks: tuple
    x_nodes: np.ndarray
    z_nodes: np.ndarray
    contour_scale: np.ndarray
    x_start_scaling: float
    config: DiscretizationConfig
    h: float


def _resolve_x_inf(sys: PotentialSystem, cfg: DiscretizationConfig,
                   window: EnergyWindow | None) -> float:
    if cfg.x_start_scaling is not None:
        return cfg.x_start_scaling
    if cfg.theta == 0.0:
        return cfg.x_max  # no scaling region needed on an unrotated contour
    if window is None:
        raise ValueError(
            "x_start_scaling not set and no energy window given to derive it"
        )
    c = float(np.real(find_exit_point(sys, window.e_ref)))
    x_inf = c + 1.0
    if x_inf + cfg.smoothing_width > cfg.x_max:
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
    """Assemble the complex-scaled operator as its four n x n channel blocks.

    When ``cfg.x_start_scaling`` is unset it defaults to one unit beyond the
    exit point at the window's reference energy.  All coefficient functions
    are evaluated on the deformed contour z = x + i theta f(x); derivative
    matrices pick up 1/F' (first order) and 1/F'^2 together with the
    curvature term -F''/F'^3 (second order).

    The dense (Chebyshev) blocks are written in place, about 1.1 x their
    own size at peak: the kinetic block once, with the F'' term only on
    the ramp rows where F'' is nonzero, copied to the other channel; v1 and
    v2 on the diagonals; and the coupling blocks, which are the vector h r0
    when r1 is identically zero, else h (r0 + h r1 D1c) and
    h (r0 - h D1c r1) in full.  Their entries equal the block formula of
    the FD4 branch bit for bit without r1.
    """
    x_inf = _resolve_x_inf(sys, cfg, window)
    d1, d2, nodes = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)
    f, fp, fpp = _contour_parts(nodes, x_inf, cfg.smoothing_width)
    fprime = 1.0 + 1j * cfg.theta * fp
    fsecond = 1j * cfg.theta * fpp
    z = nodes + 1j * cfg.theta * f
    v1, v2, r0, r1 = (_on_contour(name, expr, z, cfg, x_inf)
                      for name, expr in (("v1", sys.v1), ("v2", sys.v2),
                                         ("r0", sys.r0), ("r1", sys.r1)))
    build = _dense_blocks if isinstance(d1, np.ndarray) else _sparse_blocks
    blocks = build(d1, d2, fprime, fsecond, v1, v2, r0, r1, h)
    return HamiltonianMatrix(blocks=blocks, x_nodes=nodes, z_nodes=z,
                             contour_scale=fprime, x_start_scaling=x_inf,
                             config=cfg, h=h)


def _sparse_blocks(d1, d2, fprime, fsecond, v1, v2, r0, r1, h):
    """The FD4 channel blocks as sparse arrays."""
    import scipy.sparse  # already loaded by _derivative_matrices

    d1c = (1.0 / fprime)[:, None] * d1
    d2c = (1.0 / fprime ** 2)[:, None] * d2 - (fsecond / fprime ** 3)[:, None] * d1
    diag = scipy.sparse.diags_array
    r0d = diag(r0)
    h11 = -h * h * d2c + diag(v1)
    h22 = -h * h * d2c + diag(v2)
    h12 = h * (r0d + (h * r1)[:, None] * d1c)
    h21 = h * (r0d - h * d1c * r1[None, :])
    return h11, h12, h21, h22


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


def _shift_invert(blocks, sigma: complex):
    """Factor H - sigma once; returns x -> (H - sigma)^-1 x for the operator
    H = [[H11, H12], [H21, H22]] of the channel ``blocks``.

    Sparse (FD4) blocks are stacked into one CSC matrix and factored by
    ``splu``.  Dense blocks are factored by channel, in their own memory,
    and are unusable afterwards.  With A1 = H11 - sigma and
    A2 = H22 - sigma, block elimination (Golub & Van Loan, Matrix
    Computations, block LU) factors A1, forms W = A1^-1 H12 and the Schur
    complement S = A2 - H21 W, and factors S; a solve is then

        y1 = A1^-1 b1,    x2 = S^-1 (b2 - H21 y1),    x1 = y1 - W x2,

    two n x n LU solves and one product with W, plus one with H21 when the
    r1 D1 term makes the coupling dense.  Every LU pivots by rows.  W is
    formed over H12 when that block is dense; a diagonal coupling (a 1-D
    block) makes W the one new n x n array, and S then scales W's rows.
    Two n x n factors replace one 2n x 2n factor, and a solve reads about
    3/4 of the bytes.

    Channel 1 is eliminated first because A1 stays far from singular: its
    spectrum is v1's real bound states, at least C0 h / 2 from a box centre
    sigma, while channel 2's rotated continuum crosses the disc.  An exactly
    singular A1 or S raises EigensolveFailure, as a singular sparse factor
    does.  Every matrix product runs on scipy's BLAS (see
    :func:`_blas_apply`).

    The returned solve must not be shared between threads: concurrent
    solves with one dense factor can abort the interpreter, so each thread
    needs its own factor.
    """
    import scipy.linalg  # on first use, as in _disc_eigenvalues
    import scipy.sparse.linalg

    h11, h12, h21, h22 = blocks
    n = h11.shape[0]
    if not isinstance(h11, np.ndarray):
        matrix = scipy.sparse.block_array([[h11, h12], [h21, h22]], format="csc")
        shifted = (matrix - sigma * scipy.sparse.eye_array(2 * n)).tocsc()
        try:
            return scipy.sparse.linalg.splu(shifted).solve
        except RuntimeError as exc:  # exactly singular factor
            raise EigensolveFailure(f"shift-invert factorisation failed: {exc}") from exc

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

    lu1, piv1 = factor(h11, "the channel-1 block")
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
    lu2, piv2 = factor(h22, "the Schur complement of the channel-1 block")

    def solve(b):
        x = np.array(b, dtype=complex).reshape(-1)
        x1, x2 = x[:n], x[n:]
        getrs(lu1, piv1, x1, overwrite_b=1)
        if h21.ndim == 2:
            gemv(-1.0, h21, x1, beta=1.0, y=x2, overwrite_y=1)
        else:
            x2 -= h21 * x1
        getrs(lu2, piv2, x2, overwrite_b=1)
        gemv(-1.0, w, x2, beta=1.0, y=x1, overwrite_y=1)
        return x

    return solve


def _disc_eigenvalues(blocks, sigma: complex, radius: float, k_start: int = K_START,
                      vectors: bool = False):
    """Every eigenvalue within ``radius`` of ``sigma`` of the operator whose
    channel ``blocks`` are those of :class:`HamiltonianMatrix`.

    Shift-invert Arnoldi (ARPACK) about sigma returns the k eigenvalues
    nearest it; k doubles from ``k_start`` until the farthest of them lies
    outside the disc, so the disc is complete.  Returns ``(vals, vecs)``:
    those k eigenvalues (the disc's and the few just beyond it) and, with
    ``vectors``, their right eigenvectors as columns, else None.  Dense
    blocks are consumed by the factorisation.  A disc too full for ARPACK,
    whose k must stay below dim - 2, raises EigensolveFailure rather than
    return part of it.

    Each solve keeps ncv = max(2k + 1, NCV_FLOOR) Arnoldi vectors, at most
    dim: ARPACK's own 2k + 1 for a cold solve (k = K_START and its
    doublings), and for a hinted solve with small k the same NCV_FLOOR = 49
    vectors, whose wider Krylov space needs fewer restarts and so fewer
    operator solves.

    The factorisation (:func:`_shift_invert`) runs once per disc, before
    ARPACK: dense blocks by block elimination of channel 1, whose shifted
    block is the far-from-singular one, with row-pivoted LU factors and
    every product on scipy's BLAS.  Each call makes its own factor, and
    no factor may be shared between threads.  The ``eigensolve:`` DEBUG
    line splits the time into ``factor_s`` (the factorisation),
    ``solve_s`` (inside the operator) and ``arpack_s`` (the rest of the
    ``eigs`` calls).
    """
    # imported on first use: the commands with no eigensolve (levels,
    # widths, validate) start faster without it
    import scipy.sparse.linalg

    dim = 2 * blocks[0].shape[0]
    started = time.perf_counter()
    solve = _shift_invert(blocks, sigma)
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
    k_cap = dim - 3  # ARPACK needs k < dim - 1; k = dim - 2 and up is refused
    k = min(k_start, k_cap)
    while True:
        ncv = min(max(2 * k + 1, NCV_FLOOR), dim)
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
        if np.max(np.abs(vals - sigma)) > radius:
            break
        if k == k_cap:
            raise EigensolveFailure(
                f"the disc |E - ({sigma:.6g})| <= {radius:.6g} holds more than "
                f"{k_cap} eigenvalues, the most ARPACK returns for a {dim} x {dim} matrix")
        k = min(2 * k, k_cap)
    dist = np.abs(vals - sigma)
    logger.debug("eigensolve: dim=%d sigma=%.6g%+.6gj radius=%.3g k=%d ncv=%d in disc=%d "
                 "margin=%.3g operator solves=%d factor_s=%.6f solve_s=%.6f arpack_s=%.6f",
                 dim, sigma.real, sigma.imag, radius, k, ncv, int(np.sum(dist <= radius)),
                 dist.max() - radius, solves, factor_s, solve_s, eigs_s - solve_s)
    return vals, vecs


def _box_disc(window: EnergyWindow, h: float) -> tuple[complex, float]:
    """Centre and radius of the disc circumscribing the resonance box."""
    half_depth = 0.5 * window.im_depth_coeff * h
    sigma = complex(window.e_ref, -half_depth)
    return sigma, math.hypot(window.half_width, half_depth + IM_ROUNDOFF_GUARD)


def _filter_window(vals: np.ndarray, window: EnergyWindow, h: float) -> np.ndarray:
    keep = ((vals.real >= window.lo) & (vals.real <= window.hi)
            & (vals.imag > -window.im_depth_coeff * h)
            & (vals.imag <= IM_ROUNDOFF_GUARD))
    out = vals[keep]
    return out[np.argsort(out.real)]


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
    return _filter_window(vals, window, h)


@lru_cache(maxsize=4)
def _quadrature_weights(scheme: str, n: int, x_min: float, x_max: float) -> np.ndarray:
    """W of :func:`_left_weights` on one grid: 1 on the FD4 grid, whose D2
    is symmetric and D1 skew-symmetric, and the Clenshaw-Curtis weights of
    the interior Chebyshev points cos(pi j / N), N = n + 1 (Trefethen,
    Spectral Methods in MATLAB, ch. 12).

    Cached per grid, as :func:`_derivative_matrices` is; read-only.
    """
    weight = np.ones(n)
    if scheme == "chebyshev_collocation":
        big_n = n + 1
        angle = np.pi * np.arange(1, big_n) / big_n
        k = np.arange(1, (big_n - 1) // 2 + 1)[:, None]
        # summed elementwise: a numpy matrix product would wake numpy's BLAS
        weight -= np.sum(2.0 / (4.0 * k * k - 1.0) * np.cos(2.0 * k * angle), axis=0)
        if big_n % 2 == 0:
            weight -= np.cos(big_n * angle) / (big_n * big_n - 1.0)
        weight *= (x_max - x_min) / big_n
    weight.flags.writeable = False
    return weight


def _left_weights(ham: HamiltonianMatrix) -> np.ndarray:
    """Weights w for which y = conj(w x) is the left eigenvector of an
    eigenpair (lambda, x) of ``ham``: W F' on each channel, with the grid's
    quadrature weights W (:func:`_quadrature_weights`).
    """
    cfg = ham.config
    weight = _quadrature_weights(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max) * ham.contour_scale
    return np.concatenate([weight, weight])


def _blas_apply(d, block: np.ndarray) -> np.ndarray:
    """d @ block for a real derivative matrix d and a complex block.

    Dense products run on scipy's BLAS, which the LU factorisations use:
    numpy loads an OpenBLAS of its own, and its thread pool contends with
    scipy's when a numpy product runs between two factorisations.
    """
    if not isinstance(d, np.ndarray):
        return d @ block
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
    d1, d2, nodes = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)
    f, fp, fpp = _contour_parts(nodes, ham.x_start_scaling, cfg.smoothing_width)
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


def _drifts(sys: PotentialSystem, ham: HamiltonianMatrix, vals: np.ndarray,
            vecs: np.ndarray, anchors) -> np.ndarray:
    """Predicted drift under theta -> 1.2 theta, |d lambda/d theta| 0.2 theta,
    of the eigenvalue nearest each anchor, from the eigenpairs of ``ham``.

    With the left eigenvector y = conj(w x) of :func:`_left_weights`,
    y^H v = sum(w x v) is a bilinear sum with no conjugation.
    """
    cfg = ham.config
    if cfg.theta <= 0.0:
        raise InvalidAngle("stability testing requires a positive scaling angle")
    anchors = np.asarray(anchors, dtype=complex)
    nearest = np.argmin(np.abs(vals[None, :] - anchors[:, None]), axis=1)
    x = vecs[:, nearest]
    weight = _left_weights(ham)[:, None]
    rate = (np.sum(weight * x * _theta_derivative(sys, ham, x), axis=0)
            / np.sum(weight * x * x, axis=0))
    return np.abs(rate) * 0.2 * cfg.theta


def theta_stability(sys: PotentialSystem, cfg: DiscretizationConfig, h: float,
                    E: complex, window: EnergyWindow | None = None) -> float:
    """How far the eigenvalue nearest E moves when theta grows by 20 %,
    to first order: |d lambda/d theta| 0.2 theta.

    Small values (<< local spacing) certify E as a genuine resonance of the
    unscaled problem.  One solve takes the few eigenvalues nearest E (a
    disc of radius 0 about E) with their eigenvectors; the derivative
    follows from the eigenvector (see the module docstring).
    """
    E = complex(E)
    ham = build_hamiltonian(sys, cfg, h, window)
    vals, vecs = _disc_eigenvalues(ham.blocks, E, 0.0, vectors=True)
    return float(_drifts(sys, ham, vals, vecs, [E])[0])


@dataclass
class ResonanceRecord:
    """One semiclassical estimate paired (or not) with a direct eigenvalue."""

    estimate: ResonanceEstimate
    computed: complex | None = None
    abs_dev_re: float = math.nan
    rel_dev_im: float = math.nan
    theta_stability: float = math.nan
    accepted: bool = False


class ComparisonRecords(list):
    """The records of :func:`compare_with_direct`, one per estimated level.

    ``skipped`` lists the window levels whose estimate failed, as
    ``(k, e_k, reason)``; they have no record.  ``disc_count`` is the
    number of eigenvalues in the solved disc, None when nothing was solved.
    """

    def __init__(self, records, skipped, disc_count=None):
        super().__init__(records)
        self.skipped = list(skipped)
        self.disc_count = disc_count


def match_resonances(estimates: list[ResonanceEstimate],
                     eigenvalues: np.ndarray) -> list[ResonanceRecord]:
    """Greedily pair estimates with eigenvalues by real-part distance.

    Pairs are taken globally closest-first; each eigenvalue is used at most
    once, and pairs farther apart than 5 h^(3/2) (the next-correction
    scale of the level positions) are left unmatched.
    """
    records = [ResonanceRecord(estimate=est) for est in estimates]
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
        rec.computed = lam
        rec.abs_dev_re = dist
        width = rec.estimate.width
        rec.rel_dev_im = abs(lam.imag - width) / abs(width) if width != 0 else math.inf
    return records


def compare_with_direct(sys: PotentialSystem, window: EnergyWindow,
                        cfg: DiscretizationConfig, h: float,
                        stab_tol: float = STAB_TOL, _disc_hint: int | None = None
                        ) -> ComparisonRecords:
    """Full pipeline: estimates, direct eigenvalues, stability, matching.

    Eigenvalues in the window are screened for theta-stability first, so
    rotated-continuum points (which can sit closer in real part than the
    true resonance) never enter the pairing.  A record is accepted when it
    matched a stable eigenvalue whose magnitude of imaginary part clears
    the eigensolver noise floor, taken as 100 x the largest matched drift.
    Levels whose estimate failed are logged and kept in ``skipped``.

    One solve of the box disc gives the eigenvalues and, for the stability
    screen, their eigenvectors.  The records' ``disc_count`` is the number
    of eigenvalues in that disc; ``_disc_hint``, such a count from a
    neighbouring disc (the previous h of a scan), sizes the solve.
    """
    estimates, skipped = resonance_estimates(sys, h, window)
    for k, e_k, reason in skipped:
        logger.warning("skipped level k=%d e_k=%.10g: %s", k, e_k, reason)
    if not estimates:
        return ComparisonRecords([], skipped)

    sigma, radius = _box_disc(window, h)
    k_start = K_START if _disc_hint is None else _disc_hint + K_HINT_PAD
    ham = build_hamiltonian(sys, cfg, h, window)
    vals, vecs = _disc_eigenvalues(ham.blocks, sigma, radius, k_start, vectors=True)
    candidates = _filter_window(vals, window, h)
    stable_vals = stable_drifts = candidates  # nothing to screen when empty
    if len(candidates):
        drifts = _drifts(sys, ham, vals, vecs, candidates)
        stable = drifts <= stab_tol
        stable_vals, stable_drifts = candidates[stable], drifts[stable]
    records = ComparisonRecords(match_resonances(estimates, stable_vals), skipped,
                                int(np.sum(np.abs(vals - sigma) <= radius)))
    matched_drifts = []
    for rec in records:
        if rec.computed is None:
            continue
        j = int(np.argmin(np.abs(stable_vals - rec.computed)))
        rec.theta_stability = float(stable_drifts[j])
        matched_drifts.append(rec.theta_stability)
    noise_floor = 100.0 * max(matched_drifts) if matched_drifts else 0.0
    for rec in records:
        rec.accepted = (
            rec.computed is not None
            and rec.theta_stability <= stab_tol
            and abs(rec.computed.imag) >= noise_floor
            and math.isfinite(rec.rel_dev_im)
        )
    return records
