"""Complex-scaled matrix solver: contour, discretizations, eigenvalue pipeline."""

import dataclasses
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from predissoc import (
    DiscretizationConfig,
    EnergyWindow,
    PotentialSystem,
    ResonanceEstimate,
    RunConfig,
    build_hamiltonian,
    compare_with_direct,
    compute_resonances,
    match_resonances,
    resonance_estimates,
    run_command,
    theta_stability,
)
from predissoc.errors import ContourEvaluationError, EigensolveFailure, InvalidAngle
from predissoc import solver
from predissoc.solver import (
    RAMP_WIDTH,
    SCHEMES,
    _box_disc,
    _contour_parts,
    _derivative_matrices,
    _disc_eigenvalues,
    _drifts,
    _on_contour,
    _filter_window,
    _left_weights,
    _shift_invert,
)

from conftest import V1_SHALLOW, V1_WELL, V2_SHALLOW, V2_TAIL


def test_config_validation():
    DiscretizationConfig()  # defaults are consistent
    with pytest.raises(ValueError):
        DiscretizationConfig(n=32)
    with pytest.raises(ValueError):
        DiscretizationConfig(scheme="spectral_elements")
    with pytest.raises(ValueError):
        DiscretizationConfig(x_min=1.0)
    with pytest.raises(InvalidAngle):
        DiscretizationConfig(theta=0.8)  # past pi/4
    with pytest.raises(InvalidAngle):
        DiscretizationConfig(theta=-0.1)


def test_contour_profile_is_smooth():
    xs = np.linspace(0.0, 10.0, 100001)
    f, fp, fpp = _contour_parts(xs, 2.0)
    assert np.all(f[xs <= 2.0] == 0.0)
    # beyond the ramp the profile is exactly linear with unit slope
    tail = xs >= 2.0 + RAMP_WIDTH
    assert np.allclose(f[tail], xs[tail] - 2.0 - RAMP_WIDTH / 2.0, rtol=0, atol=1e-14)
    assert np.all(fp[tail] == 1.0)
    # the slope is a monotone smoothstep, so f' stays within [0, 1]
    assert fp.min() >= 0.0 and fp.max() <= 1.0
    assert np.all(np.diff(fp) >= -1e-15)
    # finite differences confirm f' and f'' (C^1 across both ramp edges)
    df = np.diff(f) / np.diff(xs)
    assert np.max(np.abs(df - 0.5 * (fp[1:] + fp[:-1]))) <= 1e-8
    dfp = np.diff(fp) / np.diff(xs)
    assert np.max(np.abs(dfp - 0.5 * (fpp[1:] + fpp[:-1]))) <= 1e-8


def test_hamiltonian_geometry(coupled, window):
    cfg = DiscretizationConfig(n=64)
    ham = build_hamiltonian(coupled, cfg, 0.1, window)
    assert [b.shape for b in ham.blocks] == [(64, 64), (64,), (64,), (64, 64)]
    assert np.all(np.diff(ham.x_nodes) > 0)
    inside = ham.x_nodes <= ham.x_start_scaling
    assert np.all(ham.z_nodes.imag[inside] == 0.0)
    tail = ham.x_nodes >= ham.x_start_scaling + RAMP_WIDTH
    expected = cfg.theta * (ham.x_nodes[tail] - ham.x_start_scaling - RAMP_WIDTH / 2.0)
    assert np.allclose(ham.z_nodes.imag[tail], expected, rtol=1e-14)
    assert ham.x_start_scaling == pytest.approx(2.1064593698639587, abs=1e-9)


def test_scaling_region_requires_room(coupled, window):
    cfg = DiscretizationConfig(x_max=4.0)
    with pytest.raises(ValueError):
        build_hamiltonian(coupled, cfg, 0.1, window)
    with pytest.raises(ValueError):
        build_hamiltonian(coupled, DiscretizationConfig(), 0.1, window=None)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_derivative_matrix_cache_is_read_only(scheme):
    """One cache per grid holds D1, D2, the nodes and the quadrature
    weights W, all read-only."""
    d1, d2, nodes, _ = _derivative_matrices(scheme, 64, -8.0, 12.0)
    for arr in (nodes, *(m if isinstance(m, np.ndarray) else m.data for m in (d1, d2))):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _derivative_matrices(scheme, 64, -8.0, 12.0)[0] is d1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quadrature_weight_cache_is_read_only(scheme):
    """The quadrature weights W are the fourth array of the grid cache."""
    weight = _derivative_matrices(scheme, 64, -8.0, 12.0)[3]
    assert not weight.flags.writeable
    with pytest.raises(ValueError):
        weight[0] = 0.0
    assert _derivative_matrices(scheme, 64, -8.0, 12.0)[3] is weight
    if scheme == "chebyshev_collocation":
        # Clenshaw-Curtis integrates 1 exactly: the interior weights are the
        # length less the two end weights, L / (2 N^2) each for odd N = n + 1
        assert np.sum(weight) == pytest.approx(20.0 * (1.0 - 1.0 / 65 ** 2), rel=1e-14)
    else:
        assert np.all(weight == 1.0)


@pytest.mark.parametrize("n", [64, 65])
def test_quadrature_weights_integrate_polynomials(n):
    """Clenshaw-Curtis on [-1, 1] is exact to degree N = n + 1, and its end
    weights multiply (1 - t^2) = 0, so the interior weights integrate
    (1 - t^2) T_j(t) exactly for j <= N - 2.  The Chebyshev basis, unlike
    t^j, gives (1 - t^2) T_(N-2) a T_N part of -1/4, which only the even-N
    term of the weights (n = 65) integrates."""
    cheb = np.polynomial.chebyshev
    weight = _derivative_matrices("chebyshev_collocation", n, -1.0, 1.0)[3]
    angle = np.pi * np.arange(1, n + 1) / (n + 1)
    for j in range(n):
        integrand = cheb.chebmul(np.eye(j + 1)[j], [0.5, 0.0, -0.5])
        exact = np.diff(cheb.chebval([-1.0, 1.0], cheb.chebint(integrand)))[0]
        got = np.sum(weight * np.sin(angle) ** 2 * np.cos(j * angle))
        assert got == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cached_build_equals_cold_build(scheme, coupled, window):
    """A factorisation of one matrix leaves the cache intact: the next build,
    at another h, equals a build from an emptied cache bit for bit."""
    cfg = DiscretizationConfig(n=64, scheme=scheme)
    first = build_hamiltonian(coupled, cfg, 0.14, window).blocks
    before = _full(first)
    _shift_invert(first, complex(1.0, -0.3))  # dense blocks are factored in place
    if scheme == "chebyshev_collocation":
        assert not np.array_equal(_full(first), before)
    hits = _derivative_matrices.cache_info().hits
    warm = build_hamiltonian(coupled, cfg, 0.12, window).blocks
    assert _derivative_matrices.cache_info().hits == hits + 1
    _derivative_matrices.cache_clear()
    cold = build_hamiltonian(coupled, cfg, 0.12, window).blocks
    assert np.array_equal(_full(warm), _full(cold))


def _full(blocks):
    """The 2n x 2n dense matrix, channel 1 over channel 2, of a
    HamiltonianMatrix's channel blocks (a diagonal coupling given as its
    1-D diagonal) or of its channel-interleaved band."""
    if isinstance(blocks, np.ndarray):
        width, dim = blocks.shape
        q = width // 2
        interleaved = np.zeros((dim, dim), dtype=complex)
        for d in range(-q, q + 1):
            rows = np.arange(max(0, -d), min(dim, dim - d))
            interleaved[rows, rows + d] = blocks[q + d, rows]
        order = np.r_[0:dim:2, 1:dim:2]
        return interleaved[np.ix_(order, order)]
    h11, h12, h21, h22 = (b if b.ndim == 2 else np.diag(b) for b in blocks)
    return np.block([[h11, h12], [h21, h22]])


def _fd4_matrices(cfg):
    """Dense FD4 first and second derivative matrices on the uniform
    interior grid, the infinite stencils truncated at the Dirichlet ends."""
    dx = (cfg.x_max - cfg.x_min) / (cfg.n + 1)
    d1 = sum(c * np.eye(cfg.n, k=s) for s, c in
             zip((-2, -1, 1, 2), (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)))
    d2 = sum(c * np.eye(cfg.n, k=s) for s, c in
             zip((-2, -1, 0, 1, 2), (-1.0 / 12.0, 4.0 / 3.0, -2.5, 4.0 / 3.0, -1.0 / 12.0)))
    return d1 / dx, d2 / (dx * dx)


def _block_oracle(sys, ham):
    """The matrix of ``ham`` assembled from whole blocks with np.diag and
    np.block, each coupling term written out in full: the Chebyshev
    derivative matrices of the grid cache, or dense FD4 matrices built
    here."""
    cfg, h = ham.config, ham.h
    d1, d2, nodes, _ = _derivative_matrices(cfg.scheme, cfg.n, cfg.x_min, cfg.x_max)
    if cfg.scheme == "finite_difference_4":
        d1, d2 = _fd4_matrices(cfg)
    _, fp, fpp = _contour_parts(nodes, ham.x_start_scaling)
    fprime = 1.0 + 1j * cfg.theta * fp
    fsecond = 1j * cfg.theta * fpp
    d1c = (1.0 / fprime)[:, None] * d1
    d2c = (1.0 / fprime ** 2)[:, None] * d2 - (fsecond / fprime ** 3)[:, None] * d1
    v1, v2, r0, r1 = (_on_contour(name, expr, ham.z_nodes, cfg, ham.x_start_scaling)
                      for name, expr in (("v1", sys.v1), ("v2", sys.v2),
                                         ("r0", sys.r0), ("r1", sys.r1)))
    h11 = -h * h * d2c + np.diag(v1)
    h22 = -h * h * d2c + np.diag(v2)
    h12 = h * (np.diag(r0) + (h * r1)[:, None] * d1c)
    h21 = h * (np.diag(r0) - h * d1c * r1[None, :])
    return np.block([[h11, h12], [h21, h22]])


_INSTANCES = {
    "reference": (V1_WELL, V2_TAIL, EnergyWindow(1.0, 0.2, 5.0),
                  DiscretizationConfig(n=200)),
    "shallow": (V1_SHALLOW, V2_SHALLOW, EnergyWindow(1.3, 0.2, 5.0),
                DiscretizationConfig(n=200, theta=0.25, x_min=-11.0, x_max=14.0)),
}


@pytest.mark.parametrize("instance", sorted(_INSTANCES))
@pytest.mark.parametrize("r1", ["0", "x"])
@pytest.mark.parametrize("h", [0.14, 0.2])
def test_dense_build_equals_block_assembly(instance, r1, h):
    """The in-place Chebyshev build is the block formula entry for entry:
    bit for bit without r1, to roundoff with it.  Its n x n blocks are
    Fortran-ordered, as LAPACK factors them, and a diagonal coupling is
    kept as its diagonal."""
    v1, v2, window, cfg = _INSTANCES[instance]
    sys = PotentialSystem.from_strings(v1, v2, r0="1", r1=r1)
    ham = build_hamiltonian(sys, cfg, h, window)
    assert all(b.flags.f_contiguous for b in ham.blocks if b.ndim == 2)
    expected = _block_oracle(sys, ham)
    if r1 == "0":
        assert ham.blocks[1].ndim == ham.blocks[2].ndim == 1
        assert np.array_equal(_full(ham.blocks), expected)
    else:
        assert np.count_nonzero(ham.blocks[1]) > cfg.n  # r1 D1 is there
        np.testing.assert_allclose(_full(ham.blocks), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("r1", ["0", "x"])
@pytest.mark.parametrize("theta", [0.0, 0.15])
def test_band_equals_block_assembly(r1, theta, window):
    """The FD4 band is the block formula of a dense assembly, to 1e-13
    relative, over the channel-interleaved unknowns u1_0, u2_0, u1_1, ...:
    a half-width of 2 p + 1 = 5 holds the five-point stencil and the
    r0/r1 coupling, and no entry past the matrix edge is set.  Without r1
    the odd diagonals past +-1 are empty."""
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1=r1)
    cfg = DiscretizationConfig(n=100, scheme="finite_difference_4", theta=theta)
    ham = build_hamiltonian(sys, cfg, 0.14, window)
    band = ham.blocks
    assert band.shape == (11, 2 * cfg.n)
    expected = _block_oracle(sys, ham)
    got = _full(band)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    for d in range(1, 6):
        assert not np.any(band[5 + d, 2 * cfg.n - d:]) and not np.any(band[5 - d, :d])
    odd_outer = band[[0, 2, 8, 10]]
    assert np.any(odd_outer) == (r1 == "x")


def test_dense_build_allocates_little_beyond_the_matrix(coupled, window):
    """One Chebyshev build allocates at most 1.25 x the blocks it returns
    (a block-by-block np.block assembly takes about 2.8 x)."""
    cfg = DiscretizationConfig(n=400)
    build_hamiltonian(coupled, cfg, 0.14, window)  # fills the derivative cache
    tracemalloc.start()
    try:
        blocks = build_hamiltonian(coupled, cfg, 0.14, window).blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks[0].shape == (400, 400)
    assert peak <= 1.25 * sum(b.nbytes for b in blocks)


#: (instance, r0, r1, sigma): the box-disc centre of each instance with a
#: diagonal (r1 = 0), a dense (r1 = x) and no coupling (r0 = 0), and the
#: computed resonance of the theta_stability test, where H - sigma is
#: nearly singular
_SOLVE_CASES = [(instance, r0, r1, "box centre") for instance in sorted(_INSTANCES)
                for r0, r1 in (("1", "0"), ("1", "x"), ("0", "0"))]
_SOLVE_CASES.append(("reference", "1", "0", "resonance"))


@pytest.mark.parametrize("instance, r0, r1, at", _SOLVE_CASES)
def test_block_solve_matches_full_lu(instance, r0, r1, at):
    """The channel-block solve of (H - sigma) x = b agrees with the full
    2n x 2n LU solve with row pivoting, and its backward error
    |(H - sigma) x - b| / (|H - sigma| |x| + |b|) is at most 10 x the
    full LU's.

    Agreement is measured against the full LU's own roundoff: at most
    10 x the distance to the full LU of the transpose (column pivoting,
    another pivot order), or 1e-12 relative where that is larger: the two
    full LU solves differ by 1e-15 to 3e-14 relative at the box centres,
    and by 4e-4 at the resonance, where H - sigma is singular to
    roundoff."""
    v1, v2, window, cfg = _INSTANCES[instance]
    sys = PotentialSystem.from_strings(v1, v2, r0=r0, r1=r1)
    h = 0.14
    sigma = _box_disc(window, h)[0]
    if at == "resonance":
        cfg = DiscretizationConfig(theta=0.10)
        sigma = 1.1820169263068003 - 9.117245620572684e-10j
    blocks = build_hamiltonian(sys, cfg, h, window).blocks
    shifted = _full(blocks) - sigma * np.eye(2 * cfg.n)
    b = np.random.default_rng(3).standard_normal((2 * cfg.n, 2)) @ [1.0, 1j]
    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(shifted), b)
    transposed = scipy.linalg.lu_solve(scipy.linalg.lu_factor(shifted.T), b, trans=1)
    x = _shift_invert(blocks, sigma)[0](b)
    spread = np.linalg.norm(transposed - expected)
    assert np.linalg.norm(x - expected) <= max(1e-12 * np.linalg.norm(expected), 10.0 * spread)
    scale = np.linalg.norm(shifted, 1)

    def backward_error(y):
        return np.linalg.norm(shifted @ y - b, 1) / (scale * np.linalg.norm(y, 1)
                                                     + np.linalg.norm(b, 1))
    assert backward_error(x) <= 10.0 * backward_error(expected)


def test_singular_block_raises():
    """An exactly singular channel-1 block, Schur complement or FD4 band
    factor is a typed failure, never a solve that returns NaN."""
    n, sigma = 64, complex(1.0, -0.3)
    eye = np.eye(n, dtype=complex, order="F")
    ones = np.ones(n, dtype=complex)
    dense = np.asfortranarray(np.random.default_rng(5).standard_normal((n, n)), dtype=complex)
    with pytest.raises(EigensolveFailure, match="channel-1 block"):
        _shift_invert((sigma * eye, ones, ones, dense), sigma)
    # A1 = I, S = A2 - H21 A1^-1 H12 = I - I, for a diagonal and a dense coupling
    for h12, h21 in ((ones, ones), (eye.copy(order="F"), eye.copy(order="F"))):
        with pytest.raises(EigensolveFailure, match="Schur complement"):
            _shift_invert(((sigma + 1.0) * eye, h12, h21, (sigma + 1.0) * eye), sigma)
    # a zero band, and sigma on the diagonal of a band shifted by sigma
    zero = np.zeros((11, 2 * n), dtype=complex)
    with pytest.raises(EigensolveFailure, match="exactly singular"):
        _shift_invert(zero, 0.0)
    band = zero.copy()
    band[5] = sigma
    with pytest.raises(EigensolveFailure, match="exactly singular"):
        _shift_invert(band, sigma)


@pytest.mark.parametrize("r1", ["0", "x"])
def test_build_and_factor_allocate_less_than_the_full_matrix(r1, window):
    """One Chebyshev build and its channel-block factor together allocate
    less than the full 2n x 2n matrix M at its peak: at most 0.9 x M for a
    diagonal coupling (H11, H22 and W, n x n each) and 1.15 x M for a
    dense one (the four blocks, with W and S formed over H12 and H22).
    Building M and factoring its blocks inside it took 1.09 x and 1.25 x."""
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1=r1)
    cfg = DiscretizationConfig(n=400)
    sigma = _box_disc(window, 0.14)[0]
    # fills the derivative cache and loads the LAPACK wrappers
    _shift_invert(build_hamiltonian(sys, cfg, 0.14, window).blocks, sigma)
    tracemalloc.start()
    try:
        solve, _ = _shift_invert(build_hamiltonian(sys, cfg, 0.14, window).blocks, sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = (2 * cfg.n) ** 2 * np.dtype(complex).itemsize
    assert peak <= {"0": 0.9, "x": 1.15}[r1] * full
    assert np.all(np.isfinite(solve(np.ones(2 * cfg.n, dtype=complex))))


def test_harmonic_block_eigenvalues():
    """The upper-left block alone is the well Hamiltonian -h^2 u'' + x^2 u."""
    sys = PotentialSystem.from_strings("x^2", "-x")
    cfg = DiscretizationConfig(x_min=-8.0, x_max=8.0, n=300, theta=0.0)
    ham = build_hamiltonian(sys, cfg, 0.1)
    vals = np.sort(np.linalg.eigvals(ham.blocks[0]).real)
    for k in range(5):
        assert vals[k] == pytest.approx((2 * k + 1) * 0.1, abs=1e-8)


def test_fd4_hermitian_at_theta_zero(window):
    """Real coupling and theta = 0 give a genuinely self-adjoint matrix."""
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="1")
    cfg = DiscretizationConfig(n=128, scheme="finite_difference_4", theta=0.0)
    matrix = _full(build_hamiltonian(sys, cfg, 0.1, window).blocks)
    defect = np.linalg.norm(matrix - matrix.conj().T)
    assert defect <= 1e-10 * np.linalg.norm(matrix)


def test_coupling_blocks_discretize_formal_adjoint(window):
    """The lower-left block acts as r0 u - h (r1 u)' on smooth vectors."""
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="x")
    cfg = DiscretizationConfig(n=300, theta=0.0)
    ham = build_hamiltonian(sys, cfg, 0.1, window)
    n = 300
    x = ham.x_nodes
    u = np.exp(-((x - 0.5) ** 2))
    du = -2.0 * (x - 0.5) * u
    h = 0.1
    upper = ham.blocks[1] @ u          # h (r0 u + h r1 u')
    lower = ham.blocks[2] @ u          # h (r0 u - h (r1 u)')
    assert np.max(np.abs(upper - h * (u + h * x * du))) <= 1e-8
    assert np.max(np.abs(lower - h * (u - h * (u + x * du)))) <= 1e-8


def test_decoupled_spectrum_real_at_theta_zero(decoupled, window):
    cfg = DiscretizationConfig(n=128, scheme="finite_difference_4", theta=0.0)
    vals = compute_resonances(decoupled, cfg, 0.14, window)
    assert len(vals) > 0
    assert np.max(np.abs(vals.imag)) <= 1e-9


def test_resonance_box_filter(coupled, window):
    vals = compute_resonances(coupled, DiscretizationConfig(n=128), 0.14, window)
    assert np.all((vals.real >= window.lo) & (vals.real <= window.hi))
    assert np.all(vals.imag > -5.0 * 0.14)
    assert np.all(vals.imag <= 1e-9)
    assert np.all(np.diff(vals.real) >= 0)


SCHEMES = ("chebyshev_collocation", "finite_difference_4")


def _dense_box(sys, cfg, h, window):
    """The resonance box by brute force: every eigenvalue, then the filter."""
    vals = scipy.linalg.eigvals(_full(build_hamiltonian(sys, cfg, h, window).blocks))
    return vals[_filter_window(vals, window, h)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "case", ["reference", "wide_window", "decoupled_theta_zero", "empty_window",
             "small_k_start"])
def test_box_eigenvalues_complete(case, scheme, coupled, decoupled, window, caplog):
    """The shift-invert disc solve finds exactly the box a dense solve finds.

    The wide window's box holds 29 eigenvalues, more than the solve asks
    for at first, so k must grow.  So must a solve started at k = 2, as
    a scan's hint might start it, with its Krylov space floored at 49
    vectors.  The theta-drift tracker relies on the same completeness: it
    sees only the disc about the box.
    """
    if case in ("reference", "small_k_start"):
        sys, cfg = coupled, DiscretizationConfig(n=400, scheme=scheme)
    elif case == "wide_window":
        sys, cfg = coupled, DiscretizationConfig(n=200, scheme=scheme)
        window = EnergyWindow(1.2, 0.5, 5.0)
    elif case == "decoupled_theta_zero":
        sys, cfg = decoupled, DiscretizationConfig(n=200, scheme=scheme, theta=0.0)
    else:
        # a box that no eigenvalue reaches (Im > -1e-20 h)
        sys, cfg = coupled, DiscretizationConfig(n=200, scheme=scheme)
        window = EnergyWindow(1.0, 0.2, 1e-20)
    h = 0.14
    expected = _dense_box(sys, cfg, h, window)
    with caplog.at_level(logging.DEBUG, logger="predissoc.solver"):
        started = time.perf_counter()
        if case == "small_k_start":
            blocks = build_hamiltonian(sys, cfg, h, window).blocks
            vals, _ = _disc_eigenvalues(blocks, *_box_disc(window, h), k_start=2)
            found = vals[_filter_window(vals, window, h)]
        else:
            found = compute_resonances(sys, cfg, h, window)
        wall = time.perf_counter() - started
    k, ncv = map(int, re.search(r"k=(\d+) ncv=(\d+)", caplog.messages[-1]).groups())
    assert ncv == max(2 * k + 1, 2 * solver.K_START + 1)
    # the time split: factorisation, inside the operator, rest of ARPACK
    split = [float(re.search(rf"{name}=(\S+)", caplog.messages[-1]).group(1))
             for name in ("factor_s", "solve_s", "arpack_s")]
    assert min(split) >= 0.0
    assert sum(split) <= wall
    # the band factor's fill nnz(L) + nnz(U): a row-pivoted band LU keeps
    # L within the 5 subdiagonals and U within 10 superdiagonals
    fill = re.search(r"fill=(\d+)", caplog.messages[-1])
    if scheme == "chebyshev_collocation":
        assert fill is None
    else:
        assert 2 * cfg.n <= int(fill.group(1)) <= 17 * 2 * cfg.n
    if case == "small_k_start":
        assert k == 32  # 2, 4, 8 and 16 fell short of the disc's 17
    assert found.size == expected.size
    assert (found.size == 0) == (case == "empty_window")
    if found.size:
        dist = np.abs(found[:, None] - expected[None, :])
        assert dist.min(axis=0).max() <= 1e-10
        assert dist.min(axis=1).max() <= 1e-10


def test_box_too_full_for_arpack_raises(coupled):
    """A disc holding all of a small matrix's spectrum (128 eigenvalues,
    ARPACK returns at most 125) is refused, never returned in part."""
    cfg = DiscretizationConfig(n=64, scheme="finite_difference_4")
    everything = EnergyWindow(1.0, 10.0, 20.0)
    with pytest.raises(EigensolveFailure):
        compute_resonances(coupled, cfg, 0.14, everything)


def test_evaluation_failure_on_contour():
    sys = PotentialSystem.from_strings("exp(x^4)", "1 - x")
    cfg = DiscretizationConfig(n=64)
    with pytest.raises(ContourEvaluationError):
        build_hamiltonian(sys, cfg, 0.1, EnergyWindow(0.5, 0.2))


def test_theta_stability_separates_resonance_from_continuum(coupled, window):
    cfg = DiscretizationConfig(theta=0.10)
    resonance = 1.1820169263068003 - 9.117245620572684e-10j
    assert theta_stability(coupled, cfg, 0.14, resonance, window) <= 1e-8
    vals = compute_resonances(coupled, cfg, 0.14, window)
    continuum = vals[np.argmin(vals.imag)]  # the most rotated box point
    assert continuum.imag < -1e-3
    assert theta_stability(coupled, cfg, 0.14, continuum, window) >= 1e-3


#: the reference instance's couplings, and varying ones with a derivative
#: coupling r1 != 0, which bring in every term of dH/dtheta
COUPLINGS = {"reference": ("1", "0"), "varying": ("1 + 0.1*x", "0.3*x")}


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_left_eigenvector_is_weighted_conjugate(scheme, coupling, window):
    """y = conj(W F' x) on each channel is the left eigenvector LAPACK finds,
    for every eigenvalue in the box."""
    r0, r1 = COUPLINGS[coupling]
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0=r0, r1=r1)
    cfg = DiscretizationConfig(n=128, scheme=scheme)
    ham = build_hamiltonian(sys, cfg, 0.14, window)
    vals, left, right = scipy.linalg.eig(_full(ham.blocks), left=True)
    box = _filter_window(vals, window, 0.14)
    assert box.size >= 5
    weight = _left_weights(ham)
    for j in box:
        y = np.conj(weight * right[:, j])
        cos = abs(np.vdot(y, left[:, j])) / (np.linalg.norm(y) * np.linalg.norm(left[:, j]))
        assert cos >= 1.0 - 1e-6


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_predicted_drift_matches_finite_drift(scheme, coupling, window):
    """|d lambda/d theta| 0.2 theta from the eigenvector agrees within 2 %
    with the drift of two dense solves at theta and 1.2 theta, on every box
    eigenvalue that moves by more than roundoff.  The rate itself agrees
    within 1e-4 with a central difference over theta +- 1e-3 theta, whose
    error is O(1e-6): that pins every term of dH/dtheta."""
    r0, r1 = COUPLINGS[coupling]
    coupled = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0=r0, r1=r1)
    h = 0.14
    cfg = DiscretizationConfig(n=200, scheme=scheme)
    ham = build_hamiltonian(coupled, cfg, h, window)

    def dense_at(factor):  # the derived scaling start does not depend on theta
        scaled = dataclasses.replace(cfg, theta=factor * cfg.theta)
        return scipy.linalg.eigvals(_full(build_hamiltonian(coupled, scaled, h, window).blocks))

    before, after = dense_at(1.0), dense_at(1.2)
    below, above = dense_at(1.0 - 1e-3), dense_at(1.0 + 1e-3)
    vals, vecs = _disc_eigenvalues(ham.blocks, *_box_disc(window, h), vectors=True)
    box = _filter_window(vals, window, h)
    predicted = _drifts(coupled, ham, vecs[:, box])
    checked = 0
    for lam, drift in zip(vals[box], predicted):
        lam0 = before[np.argmin(np.abs(before - lam))]
        finite = np.min(np.abs(after - lam0))
        if finite > 1e-10:
            assert drift == pytest.approx(finite, rel=0.02)
            step = abs(above[np.argmin(np.abs(above - lam0))]
                       - below[np.argmin(np.abs(below - lam0))])
            assert drift / 0.2 == pytest.approx(step / 2e-3, rel=1e-4)
            checked += 1
        else:
            assert drift <= 1e-10
    assert checked >= 10


def test_compare_solves_each_disc_once(coupled, window, monkeypatch):
    """The stability screen needs no second assembly, factorisation or solve."""
    calls = {"build_hamiltonian": 0, "_shift_invert": 0}

    def counting(name):
        original = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    cfg = DiscretizationConfig(n=200)
    sigma, radius = _box_disc(window, 0.14)
    dense = scipy.linalg.eigvals(_full(build_hamiltonian(coupled, cfg, 0.14, window).blocks))
    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    records = compare_with_direct(coupled, window, cfg, 0.14)
    assert calls == {"build_hamiltonian": 1, "_shift_invert": 1}
    assert any(rec.accepted for rec in records)
    assert records.disc_count == np.sum(np.abs(dense - sigma) <= radius)


def test_compare_with_an_empty_box_leaves_every_record_unmatched(coupled):
    """A box that no eigenvalue reaches (Im > -1e-20 h) still gives one
    record per estimate, each unmatched and unscreened, and the disc count
    of its one solve."""
    window = EnergyWindow(1.0, 0.2, 1e-20)
    records = compare_with_direct(coupled, window, DiscretizationConfig(n=200), 0.14)
    assert [rec.estimate.k for rec in records] == [2, 3]
    for rec in records:
        assert rec.computed is None and not rec.accepted
        assert math.isnan(rec.theta_stability) and math.isnan(rec.abs_dev_re)
    assert records.disc_count > 0


def test_each_record_carries_the_drift_of_its_own_eigenvalue(coupled, window, monkeypatch):
    """Each matched record's theta_stability is the drift of its own
    eigenvector's column.  The fake drifts are distinct, of order 1e-15,
    except above STAB_TOL for the column nearest e_3 in real part, a
    continuum point that k = 3 would otherwise claim: that column is never
    matched, k = 3 takes the resonance, and the 100 x floor of the matched
    drifts rejects k = 2, whose |Im| is about 5.6e-14."""
    cfg, h = DiscretizationConfig(n=200), 0.14
    full = _full(build_hamiltonian(coupled, cfg, h, window).blocks)
    e_3 = {est.k: est.e_k for est in resonance_estimates(coupled, h, window)[0]}[3]
    columns = {}  # the eigenvalue of each screened column -> its fake drift

    def fake_drifts(sys, ham, x):
        lam = np.sum(x.conj() * (full @ x), axis=0) / np.sum(abs(x) ** 2, axis=0)
        drifts = 1e-16 * np.arange(1.0, x.shape[1] + 1.0)
        drifts[np.argmin(np.abs(lam.real - e_3))] = 10.0 * solver.STAB_TOL
        columns.update(zip(lam, drifts))
        return drifts

    monkeypatch.setattr(solver, "_drifts", fake_drifts)
    records = compare_with_direct(coupled, window, cfg, h)
    lam, drift = np.array(list(columns)), np.array(list(columns.values()))
    assert lam.size >= 3 and np.sum(drift > solver.STAB_TOL) == 1
    matched = {rec.estimate.k: rec for rec in records if rec.computed is not None}
    assert sorted(matched) == [2, 3]
    assert matched[3].computed == pytest.approx(1.1820169263068003 - 9.117e-10j, abs=1e-8)
    for rec in matched.values():
        j = np.argmin(np.abs(lam - rec.computed))
        assert abs(lam[j] - rec.computed) <= 1e-8
        assert rec.theta_stability == drift[j] <= solver.STAB_TOL
    floor = 100.0 * max(rec.theta_stability for rec in matched.values())
    for rec in records:
        assert rec.accepted == (rec.computed is not None and abs(rec.computed.imag) >= floor
                                and math.isfinite(rec.rel_dev_im))
    assert not matched[2].accepted and matched[3].accepted


def test_compare_without_levels_solves_nothing(coupled, tmp_path, monkeypatch):
    """A window that holds no level (1.0 +- 0.01 at h = 0.14) gives no
    records and no disc count without an eigensolve, and ``compare`` writes
    the header of compare.csv only."""
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve without a level")
    monkeypatch.setattr(solver, "_disc_eigenvalues", no_solve)
    window = EnergyWindow(1.0, 0.01)
    records = compare_with_direct(coupled, window, DiscretizationConfig(n=200), 0.14)
    assert records == [] and records.skipped == [] and records.disc_count is None
    cfg = RunConfig(v1=V1_WELL, v2=V2_TAIL, r0="1", e_ref=1.0, half_width=0.01, h=0.14,
                    n=200, out_dir=str(tmp_path))
    assert run_command(cfg, "compare") == 0
    assert (tmp_path / "compare.csv").read_text() == (
        "k,h,e_k,S,width_formula,re_direct,width_direct,"
        "abs_dev_re,rel_dev_im,theta_stability,accepted\n")


def test_compute_resonances_requests_no_eigenvectors(coupled, window, monkeypatch):
    import scipy.sparse.linalg

    requested = []
    eigs = scipy.sparse.linalg.eigs

    def recording(*args, **kwargs):
        requested.append(kwargs.get("return_eigenvectors", True))
        return eigs(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording)
    for scheme in SCHEMES:
        compute_resonances(coupled, DiscretizationConfig(n=128, scheme=scheme), 0.14, window)
    assert requested == [False, False]


def _no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work before the angle check")
    for name in ("resonance_estimates", "build_hamiltonian", "_disc_eigenvalues"):
        monkeypatch.setattr(solver, name, no_work)


def test_theta_stability_requires_rotation(coupled, window, monkeypatch):
    _no_work(monkeypatch)
    cfg = DiscretizationConfig(theta=0.0)
    with pytest.raises(InvalidAngle):
        theta_stability(coupled, cfg, 0.14, 1.18 - 1e-9j, window)


def test_compare_requires_rotation_before_any_work(coupled, window, monkeypatch):
    """At theta = 0 there is no drift to screen by: compare_with_direct
    raises InvalidAngle before any estimate, assembly or eigensolve, even
    for a window that holds levels."""
    _no_work(monkeypatch)
    with pytest.raises(InvalidAngle):
        compare_with_direct(coupled, window, DiscretizationConfig(theta=0.0), 0.14)


def test_grid_refinement_converged(coupled, window):
    """The tracked resonance moves < 1e-9 when n doubles from 200."""
    anchor = 1.1820169263068003 - 9.117245620572684e-10j
    lam = {}
    for n in (200, 400):
        vals = compute_resonances(coupled, DiscretizationConfig(n=n), 0.14, window)
        lam[n] = vals[np.argmin(np.abs(vals - anchor))]
    assert abs(lam[200] - lam[400]) <= 1e-9


def _estimate(k, e_k, width, h=0.1):
    return ResonanceEstimate(k=k, e_k=e_k, width=width, s_at_ek=1.0,
                             prefactor_parts={}, h=h)


def test_match_resonances_exact_and_radius():
    est = _estimate(3, 1.0, -1e-10)
    records = match_resonances([est], np.array([1.0 - 1e-10j, 1.05 - 0.01j]))
    assert records[0].computed == 1.0 - 1e-10j
    assert records[0].abs_dev_re == 0.0
    assert records[0].rel_dev_im == 0.0
    far = match_resonances([_estimate(2, 2.0, -1e-10)], np.array([2.5 - 0.001j]))
    assert far[0].computed is None
    assert not far[0].accepted


def test_match_resonances_greedy_closest_first():
    ests = [_estimate(1, 1.0, -1e-9), _estimate(2, 1.01, -1e-9)]
    eigs = np.array([1.0085 - 1e-9j, 0.9995 - 1e-9j])
    records = match_resonances(ests, eigs)
    assert records[0].computed == eigs[1]
    assert records[1].computed == eigs[0]
    # each eigenvalue is claimed at most once
    assert records[0].computed != records[1].computed


def test_compare_pipeline_on_reference_instance(coupled, window):
    records = compare_with_direct(coupled, window, DiscretizationConfig(), 0.14)
    by_k = {rec.estimate.k: rec for rec in records}
    assert set(by_k) == {2, 3}

    rec3 = by_k[3]
    assert rec3.accepted
    assert rec3.computed.real == pytest.approx(1.1820169263068003, abs=1e-9)
    assert rec3.computed.imag == pytest.approx(-9.117245620572684e-10, rel=1e-3)
    assert rec3.theta_stability <= 1e-12
    # the asymptotic width agrees within its O(sqrt(h)) relative error budget
    assert rec3.rel_dev_im == pytest.approx(0.324, abs=0.05)
    assert rec3.abs_dev_re <= 5.0 * 0.14 ** 1.5

    # k=2's width (~4e-14) sits below the eigensolver noise floor: the
    # pipeline must refuse to certify it rather than report garbage
    rec2 = by_k[2]
    assert rec2.computed is not None
    assert not rec2.accepted
