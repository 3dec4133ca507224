"""Bohr-Sommerfeld levels, leading-order widths and the quantization condition."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predissoc import (
    EnergyWindow,
    PotentialSystem,
    action,
    action_and_derivative,
    agmon_distance,
    bohr_sommerfeld_levels,
    crossing_data,
    phase_integrals,
    quantization_residual,
    resonance_estimates,
    solve_quantization,
    transition_elements,
    width_from_parts,
    width_leading,
)
from predissoc import actions, spectrum, turning_points
from predissoc.errors import (BracketFailure, DegenerateEnergy, EmptyInterval, NewtonDivergence,
                             PredissocError)

from conftest import V1_SHALLOW, V1_WELL, V2_SHALLOW, V2_TAIL

#: resonance_estimates on both instances at h = 0.02 ... 0.14, recorded at
#: commit d11eb98, before the level solve handed A' on to the widths
PINNED = json.loads((Path(__file__).parent / "data" / "estimates_d11eb98.json").read_text())


def test_harmonic_levels_exact(harmonic):
    """x^2 has A(E) = pi E / 2, so e_k = (2k+1) h exactly."""
    levels = bohr_sommerfeld_levels(harmonic, 0.05, EnergyWindow(0.35, 0.25))
    assert [k for k, _ in levels] == [1, 2, 3, 4, 5]
    for k, e_k in levels:
        assert e_k == pytest.approx((2 * k + 1) * 0.05, abs=1e-9)


def test_level_positions_and_indices(coupled, window):
    assert bohr_sommerfeld_levels(coupled, 0.2, window) == []
    lv14 = bohr_sommerfeld_levels(coupled, 0.14, window)
    assert [k for k, _ in lv14] == [2, 3]
    assert lv14[0][1] == pytest.approx(0.8941045636781098, rel=1e-12, abs=0.0)
    assert lv14[1][1] == pytest.approx(1.1942460899046365, rel=1e-12, abs=0.0)
    lv10 = bohr_sommerfeld_levels(coupled, 0.1, window)
    assert [k for k, _ in lv10] == [3, 4]
    assert lv10[0][1] == pytest.approx(0.8941045636781098, rel=1e-12, abs=0.0)
    assert lv10[1][1] == pytest.approx(1.112094553022075, rel=1e-12, abs=0.0)


def test_levels_satisfy_quantization(coupled, window):
    for h in (0.14, 0.1):
        for k, e_k in bohr_sommerfeld_levels(coupled, h, window):
            assert action(coupled, e_k) == pytest.approx(
                (k + 0.5) * math.pi * h, abs=1e-12)


def test_empty_window_below_well(coupled):
    assert bohr_sommerfeld_levels(coupled, 0.1, EnergyWindow(-0.5, 0.2)) == []


def test_width_formula_synthetic_value():
    # hand evaluation: -(h^2 pi/4)(2/pi) e^{-10} (1)(1/2)(1)^2 = -e^{-10}/200
    width, parts = width_from_parts(
        h=0.1, a_prime=math.pi / 2.0, s_agmon=0.5,
        v1_minus_e=1.0, slope_gap=2.0, r0_at_0=1.0, r1_at_0=0.0)
    assert width == pytest.approx(-1.1349982440621213e-7, rel=1e-12, abs=0.0)
    assert set(parts) == {"h2pi4", "Aprime_inv", "exp_factor",
                          "v1_minus_e_pow", "dV_inv", "coupling_sq"}
    assert width == -(parts["h2pi4"] * parts["Aprime_inv"] * parts["exp_factor"]
                      * parts["v1_minus_e_pow"] * parts["dV_inv"]
                      * parts["coupling_sq"])


def test_width_h_structure():
    """width / (h^2 e^{-2S/h}) is h-independent for fixed geometry."""
    def scale_free(h):
        width, _ = width_from_parts(h, 1.3, 0.7, 0.9, 2.1, 0.8, 0.4)
        return width / (h * h * math.exp(-2.0 * 0.7 / h))
    assert scale_free(0.1) == pytest.approx(scale_free(0.23), rel=1e-12, abs=0.0)


def test_width_values_on_reference_instance(coupled):
    w14, _ = width_leading(coupled, 0.14, 1.1942460899046365)
    assert w14 == pytest.approx(-6.886730309522242e-10, rel=1e-10, abs=0.0)
    w10, parts = width_leading(coupled, 0.1, 1.112094553022075)
    assert w10 == pytest.approx(-2.0100765131147077e-14, rel=1e-10, abs=0.0)
    assert w10 < 0
    assert parts["exp_factor"] == pytest.approx(
        math.exp(-2.0 * agmon_distance(coupled, 1.112094553022075) / 0.1), rel=1e-12, abs=0.0)


def test_width_coupling_square_scaling():
    base = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="0")
    double = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="2", r1="0")
    scaled = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1.7", r1="0")
    e_k = 1.1120945530220750
    w1, _ = width_leading(base, 0.1, e_k)
    w2, _ = width_leading(double, 0.1, e_k)
    w17, _ = width_leading(scaled, 0.1, e_k)
    assert w2 / w1 == 4.0  # doubling the coupling scales the width exactly
    assert w17 / w1 == pytest.approx(1.7 ** 2, rel=1e-15, abs=0.0)


def test_width_degenerate_energy_raises(coupled):
    with pytest.raises(DegenerateEnergy):
        width_leading(coupled, 0.1, 1.96336871)
    # v2 rising faster than v1 through the crossing: v1'(0) - v2'(0) < 0
    steep = PotentialSystem.from_strings(V1_WELL, "1.9633687222225316 + 5*x", r0="1")
    with pytest.raises(DegenerateEnergy, match=r"slope gap .* not positive"):
        width_leading(steep, 0.14, 1.0)


def test_estimates_compose_width_leading(coupled, window):
    estimates, skipped = resonance_estimates(coupled, 0.1, window)
    assert skipped == []
    assert [est.k for est in estimates] == [3, 4]
    for est in estimates:
        width, parts = width_leading(coupled, 0.1, est.e_k)
        assert est.width == width
        assert est.prefactor_parts == parts
        assert est.s_at_ek == agmon_distance(coupled, est.e_k)
        assert est.h == 0.1
    empty, none_skipped = resonance_estimates(coupled, 0.1, EnergyWindow(-1.0, 0.3))
    assert empty == [] and none_skipped == []


@pytest.mark.parametrize("name, fixture", [("reference", "coupled"), ("shallow", "shallow")])
def test_estimates_match_pinned_values(name, fixture, request):
    sys_ = request.getfixturevalue(fixture)
    pinned = PINNED["instances"][name]
    window = EnergyWindow(*pinned["window"])
    got = []
    for h in sorted({row[0] for row in pinned["levels"]}):
        estimates, skipped = resonance_estimates(sys_, h, window)
        assert skipped == []
        got += [[h, est.k, est.e_k, est.width, est.s_at_ek] for est in estimates]
    assert [row[:2] for row in got] == [row[:2] for row in pinned["levels"]]
    for (h, k, e_k, width, s_at_ek), want in zip(got, pinned["levels"]):
        assert e_k == pytest.approx(want[2], rel=0, abs=1e-12), (h, k)
        assert width == pytest.approx(want[3], rel=1e-10, abs=0), (h, k)
        assert s_at_ek == pytest.approx(want[4], rel=1e-10, abs=0), (h, k)


def test_estimates_make_one_semiclassical_pass_per_level(coupled, monkeypatch, fresh_tables):
    """Per window, not per level: each Newton sweep of the level solve
    takes A and A' of all its levels from one quadrature pass, and one
    Agmon pass serves every width and s_at_ek.  On this window, the
    formula-width benchmark's, every level starts from the window's action
    table within WARM_STEP of its root, so the solve is two sweeps, both
    with a cold turning-point search and none warm, at every h of the
    benchmark's grid (3 to 21 levels).  With the table cached, a call scans
    the turning-point grid at most 4 times (the level solve's two sweeps,
    the Agmon pass's b and c) and runs at most 14 root-kernel sweeps, the
    level solve's included; the call that builds the table adds its one
    search of the 33 table energies: one scan and at most 3 kernel sweeps."""
    counts = {}

    def counting(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key or name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def counted_kernel(fdf, *args):
        def counted_fdf(x, rows):
            counts["kernel_sweeps"] += 1
            return fdf(x, rows)
        return kernel(counted_fdf, *args)

    kernel = turning_points._bracketed_newton
    for module in (turning_points, spectrum):
        monkeypatch.setattr(module, "_bracketed_newton", counted_kernel)
    counting(turning_points, "_scan_brackets", "scans")
    counting(actions, "find_well_endpoints", "table_searches")
    counting(spectrum, "find_well_endpoints", "cold_searches")
    counting(spectrum, "_warm_well_endpoints", "warm_searches")
    counting(spectrum, "_well_integrals", "sweeps")  # one call per Newton sweep
    counting(spectrum, "agmon_distance")
    counting(spectrum, "width_leading")
    levels = {0.02: 21, 0.04: 10, 0.06: 7, 0.08: 5, 0.10: 4, 0.12: 3, 0.14: 3}
    for h in levels:
        spectrum._action_table.cache_clear()
        for table_cached in (False, True):
            counts.update(dict.fromkeys(
                ("scans", "kernel_sweeps", "table_searches", "cold_searches", "warm_searches",
                 "sweeps", "agmon_distance", "width_leading"), 0))
            estimates, skipped = resonance_estimates(coupled, h, EnergyWindow(1.2, 0.4))
            assert skipped == [] and len(estimates) == levels[h]
            assert counts["sweeps"] == counts["cold_searches"] == 2, (h, table_cached)
            assert counts["warm_searches"] == 0
            extra = 0 if table_cached else 1
            assert counts["table_searches"] == extra
            assert counts["scans"] <= 4 + extra, (h, table_cached)
            assert counts["kernel_sweeps"] <= 14 + 3 * extra, (h, table_cached)
            assert counts["agmon_distance"] == 1
            assert counts["width_leading"] == levels[h]


@pytest.mark.parametrize("name, window", [("reference", (1.2, 0.4)), ("shallow", (1.3, 0.2))])
def test_every_width_takes_a_prime_at_its_level(name, window):
    """Each estimate's width is width_leading at its own e_k bit for bit:
    the level solve ends every level on a cold evaluation at e_k, so the A'
    it hands on is A'(e_k), not that of a neighbouring iterate."""
    sys_ = INSTANCES[name]
    checked = 0
    for h in (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14):
        estimates, skipped = resonance_estimates(sys_, h, EnergyWindow(*window))
        assert skipped == []
        for est in estimates:
            width, parts = width_leading(sys_, h, est.e_k)
            assert (est.width, est.prefactor_parts) == (width, parts), (h, est.k)
            checked += 1
    assert checked == {"reference": 53, "shallow": 82}[name]


def test_an_empty_window_says_why(coupled, caplog):
    """A window that holds no level logs one WARNING naming the cause: it
    misses the well's energy range, or no (k + 1/2) pi h lies between the
    actions at its clamped ends.  The result stays empty."""
    with caplog.at_level("WARNING", logger="predissoc.spectrum"):
        assert resonance_estimates(coupled, 0.14, EnergyWindow(2.5, 0.1)) == ([], [])
    [record] = caplog.records
    assert record.levelname == "WARNING"
    assert record.getMessage().startswith(
        "no level: the window [2.4, 2.6] misses the well's energy range [")
    caplog.clear()
    with caplog.at_level("WARNING", logger="predissoc.spectrum"):
        assert resonance_estimates(coupled, 0.3, EnergyWindow(0.95, 0.05)) == ([], [])
    [record] = caplog.records
    a_lo, a_hi = action_and_derivative(coupled, np.array([0.9, 1.0]))[0].tolist()
    assert record.getMessage() == (
        f"no level: no (k + 1/2) pi h at h=0.3 lies between A(0.9) = {a_lo:.10g} "
        f"and A(1) = {a_hi:.10g}")


INSTANCES = {
    "reference": PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="0"),
    "shallow": PotentialSystem.from_strings(V1_SHALLOW, V2_SHALLOW, r0="1", r1="0"),
}


def _one_level_at_a_time(sys_, h, window):
    """The window's estimates from one-row calls: each level solved on its
    own from the window's action table, then its own S and width.  Returns
    ({k: (e_k, A', S, width)}, {k: (e_k, reason)})."""
    range_lo, range_hi = spectrum._well_energy_range(sys_)
    lo, hi = max(window.lo, range_lo), min(window.hi, range_hi)
    if hi <= lo:
        return {}, {}
    table, _ = spectrum._window_table(sys_, lo, hi)
    a_lo, a_hi = table[1][0], table[1][-1]
    k_min = math.ceil(a_lo / (math.pi * h) - 0.5 - 1e-12)
    k_max = math.floor(a_hi / (math.pi * h) - 0.5 + 1e-12)
    found, failed = {}, {}
    for k in range(max(k_min, 0), k_max + 1):
        e, a_prime = (float(q[0]) for q in spectrum._solve_levels(
            sys_, [(k + 0.5) * math.pi * h], table))
        try:
            s_agmon = agmon_distance(sys_, e)
            width, _ = width_leading(sys_, h, e, a_prime, s_agmon)
        except PredissocError as exc:
            failed[k] = (e, f"{type(exc).__name__}: {exc}")
            continue
        found[k] = (e, a_prime, s_agmon, width)
    return found, failed


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(INSTANCES)), h=st.floats(0.02, 0.3),
       centre=st.floats(0.0, 1.0), half_width=st.floats(0.01, 0.6))
def test_batched_estimates_equal_one_level_at_a_time(name, h, centre, half_width):
    """resonance_estimates, which solves a window's levels together and takes
    S from one Agmon pass, equals one-row calls level by level, bit for bit
    in k, e_k, A', S and the width, skipped levels and reasons included."""
    sys_ = INSTANCES[name]
    lo, hi = spectrum._well_energy_range(sys_)
    window = EnergyWindow(lo + centre * (hi - lo), half_width)
    estimates, skipped = resonance_estimates(sys_, h, window)
    found, failed = _one_level_at_a_time(sys_, h, window)
    assert {est.k: (est.e_k, est.prefactor_parts["Aprime_inv"], est.s_at_ek, est.width)
            for est in estimates} == {k: (e, 1.0 / a_prime, s, w)
                                      for k, (e, a_prime, s, w) in found.items()}
    assert {k: (e_k, reason) for k, e_k, reason in skipped} == failed


def test_level_just_below_the_crossing_keeps_its_width(shallow):
    """k = 44 at h = 0.05 sits 0.023 below the crossing value, with its exit
    point c ~ 0.0077 inside the first scan step from x = 0: it gets a width
    like the levels below it and is not skipped."""
    estimates, skipped = resonance_estimates(shallow, 0.05, EnergyWindow(1.5, 0.2))
    assert skipped == []
    last = estimates[-1]
    assert last.k == 44 and last.e_k == pytest.approx(1.638999, abs=1e-6)
    assert last.width < 0 and last.s_at_ek > 0


def test_failed_agmon_pass_skips_only_its_level(coupled):
    """k = 1 at h = 0.14 lies below the floor of the exit channel (~0.7634):
    its Agmon pass fails, so that level is skipped with the error its own
    search raises, and the other levels keep their one-level values."""
    window = EnergyWindow(0.85, 0.4)
    estimates, skipped = resonance_estimates(coupled, 0.14, window)
    found, failed = _one_level_at_a_time(coupled, 0.14, window)
    assert [k for k, _, _ in skipped] == [1] and list(failed) == [1]
    k, e_k, reason = skipped[0]
    assert reason == f"NoExit: v2 - E has no sign change on (0, 20.0] at E={e_k!r}"
    assert (e_k, reason) == failed[1]
    assert [(est.k, est.e_k, est.s_at_ek, est.width) for est in estimates] == [
        (k, e, s, w) for k, (e, _, s, w) in found.items()]
    assert [est.k for est in estimates] == [2, 3]


def test_failed_level_solve_redone_one_level_at_a_time(coupled, window, monkeypatch):
    """When the batched level solve raises, the window is solved again one
    level at a time in k order, so the first level whose own solve fails
    raises its own error."""
    calls = []
    original = spectrum._well_integrals

    def failing_above(sys_, energies, a, b):  # the level sweeps' quadrature
        calls.append(len(energies))
        bad = np.flatnonzero(energies > 1.05)
        if bad.size:
            raise EmptyInterval(f"fails at {float(energies[bad[0]])!r}")
        return original(sys_, energies, a, b)
    monkeypatch.setattr(spectrum, "_well_integrals", failing_above)
    with pytest.raises(EmptyInterval) as info:
        bohr_sommerfeld_levels(coupled, 0.1, window)
    # the batched sweeps raise, then k = 3 (e_k ~ 0.894) solves on its own,
    # and k = 4 (e_k ~ 1.112) fails on its own, at one of its own iterates
    first_single = calls.index(1)
    assert all(n == 2 for n in calls[:first_single])
    assert all(n == 1 for n in calls[first_single:])
    table, _ = spectrum._window_table(coupled, window.lo, window.hi)
    with pytest.raises(EmptyInterval) as alone:
        spectrum._solve_levels(coupled, [4.5 * math.pi * 0.1], table)
    assert str(info.value) == str(alone.value)


def _clear_caches():
    """Empty every cache the semiclassical pass reads."""
    for cached in (spectrum._action_table, spectrum._system_crossing,
                   turning_points._scan_grid, actions._gl_rule):
        cached.cache_clear()


@pytest.mark.parametrize("name, window, skips", [("reference", (1.2, 0.4), False),
                                                 ("reference", (0.85, 0.4), True),
                                                 ("shallow", (1.3, 0.2), False)])
def test_results_do_not_depend_on_cache_state(name, window, skips):
    """Levels, estimates and skip reasons are bit for bit the same with
    every cache empty, with the window's action table cached, and with the
    table built by a call at another h: nothing cached depends on h.  On
    the second window the lowest levels are skipped (NoExit)."""
    sys_, window = INSTANCES[name], EnergyWindow(*window)

    def results(h):
        return bohr_sommerfeld_levels(sys_, h, window), resonance_estimates(sys_, h, window)
    for h, other_h in ((0.14, 0.02), (0.05, 0.1)):
        _clear_caches()
        cold = results(h)
        assert results(h) == cold
        _clear_caches()
        results(other_h)
        assert results(h) == cold
        assert bool(cold[1][1]) == skips


def test_failed_table_build_falls_back_to_the_window_ends(coupled, monkeypatch, fresh_tables):
    """A table whose batched build raises a PredissocError at an energy
    where no level lies is the two window ends alone, so the levels, the
    estimates, the skip reasons and a failing solve's error are those of a
    solve started from the window ends."""
    def outcome(call):
        try:
            return call()
        except PredissocError as exc:
            return type(exc), str(exc)

    calls = [lambda: bohr_sommerfeld_levels(coupled, 0.02, EnergyWindow(1.2, 0.4)),
             lambda: resonance_estimates(coupled, 0.14, EnergyWindow(0.85, 0.4)),
             lambda: solve_quantization(coupled, 0.1, 4)]
    original_integrals = spectrum._well_integrals

    def failing_above(sys_, energies, a, b):  # the level sweeps' quadrature
        if np.any(energies > 1.05):
            raise EmptyInterval("fails above 1.05")
        return original_integrals(sys_, energies, a, b)

    def run_all():
        spectrum._action_table.cache_clear()
        got = [outcome(call) for call in calls]
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_well_integrals", failing_above)
            got.append(outcome(lambda: bohr_sommerfeld_levels(coupled, 0.1, EnergyWindow(1.0, 0.2))))
        return got

    with monkeypatch.context() as m:
        m.setattr(spectrum, "TABLE_POINTS", 2)
        from_ends = run_all()
    assert from_ends[-1] == (EmptyInterval, "fails above 1.05")
    original = spectrum.action_and_derivative

    def failing_table(sys_, E):  # an interior table energy holds no level
        if np.size(E) == spectrum.TABLE_POINTS:
            raise BracketFailure("no table at this energy")
        return original(sys_, E)
    monkeypatch.setattr(spectrum, "action_and_derivative", failing_table)
    assert run_all() == from_ends
    window = EnergyWindow(1.2, 0.4)
    table, built = spectrum._window_table(coupled, window.lo, window.hi)
    assert not built and table[0].tolist() == [window.lo, window.hi]


def test_level_solve_logs_one_debug_line(coupled, caplog, fresh_tables):
    """Each level solve logs one DEBUG line on predissoc.spectrum with its
    level, sweep and search counts and whether it built the window's action
    table or read it from the cache."""
    window = EnergyWindow(1.2, 0.4)
    with caplog.at_level("DEBUG", logger="predissoc.spectrum"):
        resonance_estimates(coupled, 0.14, window)
        resonance_estimates(coupled, 0.02, window)
    assert [r.levelname for r in caplog.records] == ["DEBUG", "DEBUG"]
    assert [r.getMessage() for r in caplog.records] == [
        "level solve: 3 level(s), 2 sweep(s), 6 cold and 0 warm turning-point search(es), "
        "action table built",
        "level solve: 21 level(s), 2 sweep(s), 42 cold and 0 warm turning-point search(es), "
        "action table reused"]


def test_estimates_skip_package_errors_only(coupled, window, monkeypatch):
    """A level whose width raises a package error (here the quadrature's
    empty interval) is skipped; any other exception is a fault and
    propagates."""
    def failing(error):
        def width(*args):
            raise error
        return width

    monkeypatch.setattr(spectrum, "width_leading",
                        failing(EmptyInterval("empty integration interval [1.0, 0.5]")))
    estimates, skipped = resonance_estimates(coupled, 0.1, window)
    assert estimates == []
    assert [reason for _, _, reason in skipped] == [
        "EmptyInterval: empty integration interval [1.0, 0.5]"] * 2
    monkeypatch.setattr(spectrum, "width_leading", failing(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        resonance_estimates(coupled, 0.1, window)


def test_transition_elements_identity(coupled):
    """|t23 t32| equals the direct product of its factor closed form."""
    energy, h = 1.0, 0.2
    t = transition_elements(coupled, energy, h)
    cd = crossing_data(coupled)
    ph = phase_integrals(coupled, energy, h)
    v1me = cd.v1_at_0 - energy
    coupling = cd.r0_at_0 + cd.r1_at_0 * math.sqrt(v1me)
    expected = (h * math.pi * math.exp(ph.b1 + ph.b2 - ph.a1 - ph.a2)
                / math.sqrt(v1me) / cd.slope_gap * coupling ** 2)
    assert abs(t.t23 * t.t32) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_transition_elements_structure(coupled, decoupled):
    t = transition_elements(coupled, 1.0, 0.25)
    ph = phase_integrals(coupled, 1.0, 0.25)
    assert t.t12 == complex(math.exp(ph.a1 + ph.b1))
    assert t.t34 == complex(math.exp(ph.a2 + ph.b2))
    assert t.t12.real > 0 and t.t34.real > 0
    assert t.t23.real < 0 < t.t32.real
    assert t.t23.imag == 0.0 and t.t32.imag == 0.0
    off = transition_elements(decoupled, 1.0, 0.25)
    assert off.t23 == 0.0 and off.t32 == 0.0


def test_quantization_residual_at_level(coupled):
    """At e_k the cosine term collapses and the residual is the -hF term."""
    h, e_k = 0.14, 1.1942460899046365
    res = quantization_residual(coupled, e_k, h)
    # independent reconstruction of |hF| from the factor closed form
    cd = crossing_data(coupled)
    ph = phase_integrals(coupled, e_k, h)
    v1me = cd.v1_at_0 - e_k
    hf = (h * (math.pi / 4.0) * math.exp(-2.0 * ph.a1 - 2.0 * ph.a2)
          / math.sqrt(v1me) / cd.slope_gap * (cd.r0_at_0 ** 2))
    # k = 3 is odd, so sin(A/h) = -1 there and the residual is +i hf
    assert res.value.imag == pytest.approx(hf, rel=1e-9, abs=0.0)
    assert abs(res.value.real) <= 1e-11
    assert res.dvalue_dE.imag == 0.0
    assert res.dvalue_dE.real == pytest.approx(
        action_and_derivative(coupled, e_k)[1] / h, rel=1e-9, abs=0.0)


def test_quantization_residual_derivative_consistency(coupled):
    h, e0 = 0.14, 1.19
    d = 1e-6
    base = quantization_residual(coupled, e0, h)
    plus = quantization_residual(coupled, e0 + d, h)
    minus = quantization_residual(coupled, e0 - d, h)
    fd = (plus.value - minus.value) / (2.0 * d)
    assert base.dvalue_dE == pytest.approx(fd, rel=1e-6, abs=0.0)
    # imaginary displacements enter through the same linearization
    up = quantization_residual(coupled, e0 + 1e-8j, h)
    assert (up.value - base.value) / 1e-8j == pytest.approx(base.dvalue_dE, rel=1e-6, abs=0.0)


def test_solve_quantization_matches_width_formula(coupled):
    for h, k, level, width in (
        (0.1, 3, 0.8941045636781098, -6.092415849496159e-19),
        (0.1, 4, 1.1120945530220750, -2.0100765131147077e-14),
        (0.2, 1, 0.7785802023061940, -1.9394986342685014e-12),
    ):
        res = solve_quantization(coupled, h, k)
        assert res.k == k
        assert res.level == pytest.approx(level, rel=1e-12, abs=0.0)
        assert res.offset.real == 0.0  # the real part must not move
        assert res.width == pytest.approx(width, rel=1e-9, abs=0.0)
        assert abs(res.residual) <= res.residual_tol
        assert res.energy == res.level + res.offset


def test_solve_quantization_decoupled_is_exact(decoupled):
    res = solve_quantization(decoupled, 0.1, 4)
    assert res.offset == 0j
    assert res.width == 0.0
    assert res.energy == res.level


def test_solve_quantization_is_the_closed_form(coupled):
    """The root is delta = -i artanh(hF) with hF = -w A'/h for the leading
    width w.  A coupling that puts hF near 0.5 shows the artanh; hF >= 1 has
    no root and raises the typed error."""
    strong = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="2e5", r1="0")
    for sys_, h, k in ((coupled, 0.1, 3), (coupled, 0.1, 4), (coupled, 0.2, 1),
                       (strong, 0.2, 1)):
        res = solve_quantization(sys_, h, k)
        a_prime = action_and_derivative(sys_, res.level)[1]
        w, _ = width_leading(sys_, h, res.level, a_prime=a_prime)
        hf = -w * a_prime / h
        assert res.offset == complex(0.0, -math.atanh(hf) * h / a_prime)
        assert res.offset.real == 0.0
        assert abs(res.residual) <= res.residual_tol
    assert hf > 0.5
    assert res.width / w == pytest.approx(math.atanh(hf) / hf, rel=1e-14, abs=0.0)
    too_strong = PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="3e5", r1="0")
    with pytest.raises(NewtonDivergence, match="hF"):
        solve_quantization(too_strong, 0.2, 1)


def test_solve_quantization_out_of_range(coupled):
    with pytest.raises(NewtonDivergence):
        solve_quantization(coupled, 0.1, 5000)
    with pytest.raises(NewtonDivergence):
        solve_quantization(coupled, 0.1, -1)
