"""Action integrals, Agmon distance and barrier phase integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predissoc import (
    PotentialSystem,
    action,
    action_and_derivative,
    agmon_distance,
    find_well_endpoints,
    integrate_endpoint_singular,
    phase_integrals,
)
from predissoc.errors import BarrierViolation, NoExit, NoWell
from predissoc.spectrum import _well_energy_range
from predissoc.turning_points import RESIDUAL_TOL

from conftest import V1_SHALLOW, V1_WELL, V2_SHALLOW, V2_TAIL

INSTANCES = {
    "reference": PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="0"),
    "shallow": PotentialSystem.from_strings(V1_SHALLOW, V2_SHALLOW, r0="1", r1="0"),
}


def test_quadrature_quarter_circle():
    f = lambda t: np.sqrt(np.maximum(1.0 - t * t, 0.0))
    assert integrate_endpoint_singular(f, 0.0, 1.0, sing_hi=True) == pytest.approx(
        math.pi / 4.0, abs=1e-12)
    assert integrate_endpoint_singular(f, -1.0, 1.0, sing_lo=True, sing_hi=True) == pytest.approx(
        math.pi / 2.0, abs=1e-12)


def test_quadrature_smooth_and_edges():
    assert integrate_endpoint_singular(lambda t: t * t, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-13)
    assert integrate_endpoint_singular(lambda t: t, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate_endpoint_singular(lambda t: t, 1.0, 0.0)


def test_harmonic_action_exact(harmonic):
    # A(E) = pi E / 2 for v1 = x^2
    for energy in (0.5, 1.0, 2.0):
        assert action(harmonic, energy) == pytest.approx(
            math.pi * energy / 2.0, abs=1e-12)
    assert action_and_derivative(harmonic, 1.3)[1] == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_reference_action_value(coupled):
    # frozen against an independent adaptive quadrature with the x = a + s^2
    # endpoint substitution (agreement there was ~6e-15)
    assert action(coupled, 1.0) == pytest.approx(1.2489878585695757, abs=1e-12)


def test_action_derivative_matches_finite_differences(coupled):
    d = 5e-4
    for energy in np.linspace(0.85, 1.15, 5):
        fd = (action(coupled, energy + d) - action(coupled, energy - d)) / (2.0 * d)
        assert action_and_derivative(coupled, energy)[1] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_one_pass_equals_separate_quadratures(name):
    """The shared pass gives exactly the values of integrating each integrand
    on its own with the general rule, refine decision included."""
    sys_ = INSTANCES[name]
    lo, hi = _well_energy_range(sys_)
    for energy in np.linspace(lo, hi, 9)[1:-1]:
        a, b = find_well_endpoints(sys_, energy)
        gap = lambda ts: energy - np.real(sys_.v1(ts))
        a_sep = integrate_endpoint_singular(
            lambda ts: np.sqrt(np.maximum(gap(ts), 0.0)), a, b, sing_lo=True, sing_hi=True)
        a_prime_sep = integrate_endpoint_singular(
            lambda ts: 0.5 / np.sqrt(np.maximum(gap(ts), 1e-300)), a, b,
            sing_lo=True, sing_hi=True)
        assert action_and_derivative(sys_, energy) == (a_sep, a_prime_sep)


FD_STEP = 1e-6


@pytest.mark.parametrize("name", sorted(INSTANCES))
@settings(max_examples=100, deadline=None)
@given(u=st.floats(0.0, 1.0), gap=st.floats(1e-9, 1.0))
def test_well_pass_properties(name, u, gap):
    """At energies inside the well range: A increases strictly, A' > 0 and
    matches a central difference of A, and v1 = E at the well endpoints."""
    sys_ = INSTANCES[name]
    lo, hi = _well_energy_range(sys_)
    lo, hi = lo + FD_STEP, hi - FD_STEP
    e1 = lo + u * (hi - lo)
    e2 = lo + min(u + gap, 1.0) * (hi - lo)
    a1, a_prime = action_and_derivative(sys_, e1)
    assert a_prime > 0
    if e2 > e1:
        assert action(sys_, e2) > a1
    fd = (action(sys_, e1 + FD_STEP) - action(sys_, e1 - FD_STEP)) / (2.0 * FD_STEP)
    assert a_prime == pytest.approx(fd, rel=1e-6)
    for root in find_well_endpoints(sys_, e1):
        assert abs(float(np.real(sys_.v1(root))) - e1) <= RESIDUAL_TOL


def test_agmon_closed_form():
    # v1 = 2 - t^2, v2 = 2 - t at E = 1: pi/4 from the circle segment on
    # [-1, 0] plus 2/3 from the square-root ramp on [0, 1]
    sys = PotentialSystem.from_strings("2 - x^2", "2 - x")
    assert agmon_distance(sys, 1.0) == pytest.approx(
        math.pi / 4.0 + 2.0 / 3.0, abs=1e-10)


def test_agmon_reference_value(coupled):
    assert agmon_distance(coupled, 1.0) == pytest.approx(1.5475994211066793, abs=1e-11)


def test_phase_integrals_closed_forms():
    # v2 = 2 - 2x exits at c = 1/2, strictly inside v1's barrier, so the
    # cross integrals b1/b2 are regular as the transversal geometry requires
    sys = PotentialSystem.from_strings("2 - x^2", "2 - 2*x")
    ph = phase_integrals(sys, 1.0, 0.5)
    # a1 = int_{-1}^0 sqrt(1-t^2) = pi/4, a2 = int_0^{1/2} sqrt(1-2t) = 1/3
    assert ph.a1 == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert ph.a2 == pytest.approx(2.0 / 3.0, abs=1e-10)
    # b1 = int_0^{1/2} sqrt(1-t^2) = sqrt(3)/8 + pi/12
    assert ph.b1 == pytest.approx((math.sqrt(3.0) / 8 + math.pi / 12) / 0.5,
                                  abs=1e-10)
    # b2 = int_{-1}^0 sqrt(1-2t) = sqrt(3) - 1/3
    assert ph.b2 == pytest.approx((math.sqrt(3.0) - 1.0 / 3.0) / 0.5, abs=1e-10)


def test_agmon_equals_scaled_barrier_integrals(coupled):
    """S(E) and h(A1 + A2) come from the same quadratures."""
    for energy, h in ((0.9, 0.2), (1.0, 0.1), (1.1, 0.05)):
        ph = phase_integrals(coupled, energy, h)
        s = agmon_distance(coupled, energy)
        assert h * ph.a1 + h * ph.a2 == pytest.approx(s, rel=1e-14)


def test_monotonicity_over_window(coupled):
    """A grows and S shrinks with E across the window."""
    energies = np.linspace(0.85, 1.15, 10)
    a_vals = [action(coupled, e) for e in energies]
    s_vals = [agmon_distance(coupled, e) for e in energies]
    assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
    assert all(x > y for x, y in zip(s_vals, s_vals[1:]))


def test_positive_quantities(coupled):
    a_val, a_prime = action_and_derivative(coupled, 1.0)
    ph = phase_integrals(coupled, 1.0, 0.1)
    assert a_val > 0 and a_prime > 0 and agmon_distance(coupled, 1.0) > 0
    assert ph.a1 > 0 and ph.a2 > 0 and ph.b1 > 0 and ph.b2 > 0


def test_barrier_violation_detected():
    # dip v1 below the energy inside (0, c) while leaving the barrier side
    # intact; the b1 integrand sqrt(v1 - E) would go imaginary there
    dipped = PotentialSystem.from_strings(
        "2 - 2*exp(-(x+2)^2) - 1.5*exp(-16*(x-0.6)^2)", V2_TAIL,
        enforce_crossing=False)
    assert agmon_distance(dipped, 1.0) > 0  # the Agmon legs stay clear
    with pytest.raises(BarrierViolation):
        phase_integrals(dipped, 1.0, 0.2)


def test_action_below_well_raises(coupled):
    with pytest.raises(NoWell):
        action(coupled, -0.5)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_array_passes_equal_scalar_calls(name):
    """A and A' and S of an array of energies equal, bit for bit, one call
    per energy; a scalar call gives Python floats."""
    sys_ = INSTANCES[name]
    lo, hi = _well_energy_range(sys_)
    energies = np.linspace(lo, hi, 11)[1:-1]
    if name == "reference":
        energies = energies[energies > 0.8]  # the exit channel's floor is ~0.7634
    a_val, a_prime = action_and_derivative(sys_, energies)
    s_val = agmon_distance(sys_, energies)
    for i, energy in enumerate(energies.tolist()):
        one = action_and_derivative(sys_, energy)
        assert all(type(q) is float for q in one)
        assert one == (a_val[i], a_prime[i])
        assert agmon_distance(sys_, energy) == s_val[i]


def test_agmon_array_raises_first_bad_row(coupled):
    """One energy without an exit point in an array raises what its scalar
    call raises."""
    with pytest.raises(NoExit) as scalar:
        agmon_distance(coupled, 0.6)
    with pytest.raises(NoExit) as batched:
        agmon_distance(coupled, np.array([1.0, 0.6, 1.2]))
    assert str(batched.value) == str(scalar.value)


def test_quadrature_refines_only_the_rows_that_need_it():
    """sqrt|t - p| on [0, 1] is singular at t = p = 0, unflagged, so that
    row is bisected; the smooth row (p = -5) is not.  Each row equals its
    scalar call, and f sees the per-row parameter as a column."""
    shapes = []

    def f(ts, p):
        shapes.append((ts.shape, p.shape))
        return np.sqrt(np.abs(ts - p))

    got = integrate_endpoint_singular(f, 0.0, np.array([1.0, 1.0]), args=(np.array([0.0, -5.0]),))
    assert shapes == [((2, 80), (2, 1)), ((2, 160), (2, 1)),
                      ((1, 160), (1, 1)), ((1, 160), (1, 1))]
    for i, p in enumerate((0.0, -5.0)):
        assert integrate_endpoint_singular(f, 0.0, 1.0, args=(p,)) == got[i]
    assert got[1] == pytest.approx((6.0 ** 1.5 - 5.0 ** 1.5) / 1.5, rel=1e-14)
