"""Real turning points of the well and exit channel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predissoc import PotentialSystem, barrier_points, find_exit_point, find_well_endpoints
from predissoc.errors import (
    BracketFailure,
    DegenerateEnergy,
    NoExit,
    NoWell,
)
from predissoc import EnergyWindow, bohr_sommerfeld_levels, spectrum, turning_points
from predissoc.errors import NewtonDivergence
from predissoc.turning_points import (
    RESIDUAL_TOL,
    _bracketed_newton,
    _refine_root,
    _scan_brackets,
    _scan_grid,
)

from conftest import V1_SHALLOW, V1_WELL, V2_SHALLOW, V2_TAIL


def test_well_endpoints_closed_form(coupled):
    # 2 - 2 e^{-(x+2)^2} = 1 at x = -2 -+ sqrt(ln 2)
    a, b = find_well_endpoints(coupled, 1.0)
    root = math.sqrt(math.log(2.0))
    assert a == pytest.approx(-2.0 - root, abs=1e-10)
    assert b == pytest.approx(-2.0 + root, abs=1e-10)
    assert abs(coupled.v1(a) - 1.0) <= 1e-11
    assert abs(coupled.v1(b) - 1.0) <= 1e-11


def test_exit_point_closed_form(coupled):
    c = find_exit_point(coupled, 1.0)
    assert c == pytest.approx(math.atanh(0.9633687222225316 / 1.2), abs=1e-10)
    assert abs(coupled.v2(c) - 1.0) <= 1e-11


@pytest.mark.parametrize("gap", [0.03, 0.01, 0.002])
def test_points_within_one_grid_step_of_the_crossing(shallow, gap):
    """An exit point c < 0.01 and a barrier point b > -0.01 lie between the
    crossing x = 0 and the first scan node beyond it, and are still found:
    v2 = E' - 3 tanh(x) gives c = atanh((E' - E)/3) and v1 = 2 -
    2 exp(-((x+4)/3)^2) gives b = 3 sqrt(-ln(1 - E/2)) - 4."""
    E = float(shallow.v2(0.0)) - gap
    c = math.atanh(gap / 3.0)
    assert find_exit_point(shallow, E) == pytest.approx(c, abs=1e-12)
    b, c_barrier = barrier_points(shallow, E)
    assert b == pytest.approx(3.0 * math.sqrt(-math.log(1.0 - E / 2.0)) - 4.0, abs=1e-12)
    assert c_barrier == pytest.approx(c, abs=1e-12)
    if gap == 0.002:
        assert -0.01 < b < 0.0 < c < 0.01


def test_no_exit_point_at_the_crossing_value(shallow):
    """At E = v2(0) the only zero of v2 - E on [0, 20] is the crossing
    itself, which is no exit point c > 0."""
    E = float(shallow.v2(0.0))
    with pytest.raises(NoExit) as info:
        find_exit_point(shallow, E)
    assert str(info.value) == f"v2 - E has no sign change on (0, 20.0] at E={E!r}"


def test_well_monotonicity_in_energy(coupled):
    """The well widens and the exit point walks inward as E grows."""
    a1, b1 = find_well_endpoints(coupled, 0.9)
    a2, b2 = find_well_endpoints(coupled, 1.1)
    assert a2 < a1 < b1 < b2 < 0.0
    assert find_exit_point(coupled, 1.1) < find_exit_point(coupled, 0.9)


def test_degenerate_and_missing_well(coupled):
    with pytest.raises(NoWell):
        find_well_endpoints(coupled, -0.5)
    # the scan grid does not hit the exact minimum at x = -2, so the true
    # bottom energy 0 still counts as "below the sampled well"
    with pytest.raises(NoWell):
        find_well_endpoints(coupled, 0.0)
    vmin = float(np.min(np.real(coupled.v1(np.linspace(-20.0, 20.0, 2000)))))
    with pytest.raises(DegenerateEnergy):
        find_well_endpoints(coupled, vmin + 5e-7)  # the sampled bottom
    with pytest.raises(DegenerateEnergy):
        find_well_endpoints(coupled, 1.9633687)  # the crossing value


def test_exit_errors():
    sys = PotentialSystem.from_strings(V1_WELL, V2_TAIL)
    # right tail bottoms out near 0.7634, so E = 0.5 never crosses it
    with pytest.raises(NoExit):
        find_exit_point(sys, 0.5)
    # a wiggly tail crosses the level several times
    wiggly = PotentialSystem.from_strings(
        V1_WELL, "1.9633687222225316 - 1.2*tanh(x) + 0.3*sin(3*x)")
    with pytest.raises(BracketFailure):
        find_exit_point(wiggly, 1.0)


def test_barrier_points_on_barrier_only_model():
    # v1 = 2 - t^2 has no well at E = 1, but the barrier pair is (-1, 1)
    sys = PotentialSystem.from_strings("2 - x^2", "2 - x")
    b, c = barrier_points(sys, 1.0)
    assert b == pytest.approx(-1.0, abs=1e-10)
    assert c == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("offset", [0.0, 0.01])
@pytest.mark.parametrize("fixture", ["coupled", "shallow"])
def test_no_barrier_point_at_or_above_the_crossing_value(fixture, offset, request):
    """At E >= v1(0), v1 < E up to the crossing, so no b < 0 exists; the
    error says so instead of naming the well's left endpoint as b."""
    sys_ = request.getfixturevalue(fixture)
    top = float(sys_.v1(0.0))
    E = top + offset
    with pytest.raises(BracketFailure) as info:
        barrier_points(sys_, E)
    assert str(info.value) == (
        f"no barrier point b < 0 at E={E!r}: E is at or above v1(0) = {top!r}")


def test_real_energy_returns_real_points(coupled):
    a, b = find_well_endpoints(coupled, 1.0)
    c = find_exit_point(coupled, 1.0)
    assert all(type(t) is float for t in (a, b, c))
    assert a < b < 0.0 < c


def _scan_brackets_loop(vals):
    """The bracket scan of one row as a plain loop: the oracle of the
    vectorised one."""
    return [i for i in range(len(vals) - 1) if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0]


# exact zeros and products that underflow to -0.0 are the edge cases
_SAMPLES = st.one_of(st.just(0.0), st.sampled_from([1e-300, -1e-300, 5e-324]),
                     st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(v=st.lists(_SAMPLES, min_size=2, max_size=60),
       picks=st.lists(st.integers(0, 59), max_size=3), others=st.lists(_SAMPLES, max_size=2))
@example(v=[0.0, 1.0, 0.0, -1.0, 0.0, 2.0, -1.0, 0.0, 0.0, 3.0], picks=[5], others=[])
def test_scan_brackets_matches_loop(v, picks, others):
    """The scan of v - E for several energies gives, for every energy, the
    bracket cells of the loop oracle on that row alone, ordered by row and
    then left to right, though it looks only at the cells whose range of v
    meets the energies'.  Energies taken from v itself give exact zeros."""
    v = np.array(v)
    energies = np.array([0.0] + [v[i % v.size] for i in picks] + others)
    rows, cells = _scan_brackets(v, energies)
    assert np.all(np.diff(rows) >= 0)
    for r, E in enumerate(energies):
        assert cells[rows == r].tolist() == _scan_brackets_loop(v - E)


def _bisect(f, lo, hi):
    """Plain bisection down to adjacent doubles."""
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid


def _asymmetric():
    """A skewed Gaussian well: steeper on its left flank than on its right."""
    v1 = "2 - 2*exp(-(x+2)^2)*(1 + 0.5*tanh(x+2))"
    v10 = float(PotentialSystem.from_strings(v1, "0", enforce_crossing=False).v1(0.0))
    return PotentialSystem.from_strings(v1, f"{v10!r} - 1.2*tanh(x)", r0="1")


@pytest.mark.parametrize("model, energies", [
    ("reference", (0.85, 1.0, 1.7)),
    ("shallow", (0.6, 1.3, 1.6)),
    ("asymmetric", (0.85, 1.2, 1.6)),
])
def test_root_kernel_on_every_bracket(model, energies):
    """All brackets of all energies refined in one row-kernel call: each
    root lies in its bracket, meets RESIDUAL_TOL, agrees with plain
    bisection, and equals the root of a one-row call bit for bit, for the
    well roots of v1 and the exit root of v2."""
    sys = {"reference": lambda: PotentialSystem.from_strings(V1_WELL, V2_TAIL),
           "shallow": lambda: PotentialSystem.from_strings(V1_SHALLOW, V2_SHALLOW),
           "asymmetric": _asymmetric}[model]()
    levels = np.array(energies)
    checked = 0
    for v, dv, part in ((sys.v1, sys.dv1, "full"), (sys.v2, sys.dv2, "right")):
        xs, vals = _scan_grid(v, part)
        rows, cells = _scan_brackets(vals, levels)
        f_lo, f_hi = vals[cells] - levels[rows], vals[cells + 1] - levels[rows]
        roots = _refine_root(v, dv, levels[rows], xs, cells, f_lo, f_hi)[0]
        for i, (E, root) in enumerate(zip(levels[rows], roots)):
            f = lambda t, v=v, E=E: float(v(t)) - E
            lo, hi = xs[cells[i]], xs[cells[i] + 1]
            assert lo <= root <= hi
            assert abs(f(root)) <= RESIDUAL_TOL
            assert abs(root - _bisect(f, lo, hi)) <= 1e-11
            one = slice(i, i + 1)
            assert _refine_root(v, dv, levels[rows][one], xs, cells[one], f_lo[one],
                                f_hi[one])[0][0] == root
            checked += 1
    assert checked == 3 * len(energies)  # two well roots and one exit root each


def test_root_kernel_runs_only_while_rows_run(coupled, monkeypatch, fresh_tables):
    """No rows cost no evaluation, and a row still running after MAX_SWEEPS
    raises NewtonDivergence, so a level the solve misses gets a typed error."""
    calls = []

    def bisect_only(x, rows):  # a zero slope makes every step bisect
        calls.append(rows.size)
        return x - 0.3, np.zeros_like(x)
    empty = np.empty(0)
    roots, slopes = _bracketed_newton(bisect_only, empty, empty, empty, empty.astype(bool))
    assert calls == [] and roots.size == slopes.size == 0
    one = np.ones(1)
    assert _bracketed_newton(bisect_only, 0.5 * one, 0 * one, one, one < 0)[0] == pytest.approx(0.3)
    monkeypatch.setattr(turning_points, "MAX_SWEEPS", 3)
    with pytest.raises(NewtonDivergence, match="after 3 sweeps"):
        _bracketed_newton(bisect_only, 0.5 * one, 0 * one, one, one < 0)
    # every turning-point search of this window ends within 3 sweeps, and so
    # does the level solve from the window's action table; started from the
    # two window ends alone, as a table whose build fails is, it takes 4
    assert [k for k, _ in bohr_sommerfeld_levels(coupled, 0.1, EnergyWindow(1.0, 0.8))] == list(range(1, 9))
    monkeypatch.setattr(spectrum, "TABLE_POINTS", 2)
    spectrum._action_table.cache_clear()
    with pytest.raises(NewtonDivergence, match="after 3 sweeps") as info:
        bohr_sommerfeld_levels(coupled, 0.1, EnergyWindow(1.0, 0.8))
    assert info.traceback[-2].name == "_solve_levels"


_INSTANCES = {
    "reference": PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1"),
    "shallow": PotentialSystem.from_strings(V1_SHALLOW, V2_SHALLOW, r0="1"),
}


@pytest.mark.parametrize("name, energies", [
    ("reference", np.linspace(0.8, 1.6, 9)),
    ("shallow", np.linspace(0.3, 1.6, 9)),
])
def test_array_searches_equal_scalar_calls(name, energies):
    """An array of energies gives, elementwise and bit for bit, what one
    call per energy gives; a scalar call gives Python floats."""
    sys_ = _INSTANCES[name]
    for search in (find_well_endpoints, find_exit_point, barrier_points):
        batched = search(sys_, energies)
        one_by_one = [search(sys_, float(E)) for E in energies]
        if isinstance(batched, tuple):
            assert all(type(t) is float for pair in one_by_one for t in pair)
            for j, column in enumerate(batched):
                assert column.tolist() == [pair[j] for pair in one_by_one]
        else:
            assert all(type(t) is float for t in one_by_one)
            assert batched.tolist() == one_by_one


def _error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_array_search_raises_first_bad_row():
    """An array with bad energies raises what the scalar call of its first
    bad energy raises, whatever check the later rows fail."""
    sys_ = _INSTANCES["reference"]
    vmin = float(np.min(_scan_grid(sys_.v1)[1]))
    degenerate, below = vmin + 5e-7, -0.5
    for energies, first_bad in (([1.0, below, 1.2], below),
                                ([1.0, degenerate, below], degenerate),
                                ([0.9, 1.1, 1.9633687], 1.9633687)):
        want = _error_of(lambda: find_well_endpoints(sys_, first_bad))
        assert _error_of(lambda: find_well_endpoints(sys_, np.array(energies))) == want
    # v2's right tail bottoms out near 0.7634: no exit point below it
    want = _error_of(lambda: find_exit_point(sys_, 0.5))
    assert want[0] is NoExit
    for search in (find_exit_point, barrier_points):
        assert _error_of(lambda: search(sys_, np.array([1.0, 0.5, 0.6]))) == want


