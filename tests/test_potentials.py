"""Potential systems, crossing data, energy windows and hypothesis validation."""

import json
import math
import warnings

import pytest

from predissoc import (
    EnergyWindow,
    PotentialSystem,
    crossing_data,
    validate_assumptions,
)
from predissoc.errors import CrossingMismatch, EvalDomainError

from conftest import V1_WELL, V2_TAIL


def test_crossing_enforced_at_construction():
    with pytest.raises(CrossingMismatch):
        PotentialSystem.from_strings(V1_WELL, "2.1 - 1.2*tanh(x)")
    # the escape hatch admits deliberately broken systems for the validator
    broken = PotentialSystem.from_strings(V1_WELL, "2.1 - 1.2*tanh(x)",
                                          enforce_crossing=False)
    assert broken.v2(0.0) == pytest.approx(2.1)


def test_crossing_data_values(coupled):
    cd = crossing_data(coupled)
    assert cd.v1_at_0 == pytest.approx(1.9633687222225316, rel=1e-15)
    # d/dx of the Gaussian well at 0 is 8 e^{-4}
    assert cd.dv1_at_0 == pytest.approx(8.0 * math.exp(-4.0), rel=1e-14)
    # tanh'(0) = 1 exactly, so the tail slope is the raw coefficient
    assert cd.dv2_at_0 == -1.2
    assert cd.slope_gap == pytest.approx(8.0 * math.exp(-4.0) + 1.2, rel=1e-14)
    assert cd.r0_at_0 == 1.0
    assert cd.r1_at_0 == 0.0


def test_energy_window_geometry():
    win = EnergyWindow(1.0, 0.2, 5.0)
    assert win.lo == 0.8
    assert win.hi == 1.2
    with pytest.raises(ValueError):
        EnergyWindow(1.0, 0.0)
    with pytest.raises(ValueError):
        EnergyWindow(1.0, 0.2, im_depth_coeff=-1.0)


def test_validation_passes_reference_instance(coupled, window):
    report = validate_assumptions(coupled, window)
    assert report.passed
    assert all(report.clauses.values())
    # closed forms: v1 = E' at x = -2 -+ sqrt(ln 2), v2 = E' at atanh(...)
    root = math.sqrt(math.log(2.0))
    assert report.a0 == pytest.approx(-2.0 - root, abs=1e-9)
    assert report.b0 == pytest.approx(-2.0 + root, abs=1e-9)
    assert report.c0 == pytest.approx(math.atanh(0.9633687222225316 / 1.2), abs=1e-9)
    # every margin that was evaluated is strictly positive
    assert all(m > 0 for m in report.margins.values() if not math.isnan(m))


def test_validation_flags_degenerate_transversality():
    sys = PotentialSystem.from_strings("x^2 + 1", "x^2 + 1")
    report = validate_assumptions(sys, EnergyWindow(1.5, 0.2))
    assert not report.clauses["transversality"]
    assert report.margins["transversality"] == 0.0
    assert not report.passed


def test_validation_flags_broken_exit_channel(window):
    # raising v2 by 2 removes both the crossing and the open channel
    sys = PotentialSystem.from_strings(V1_WELL, "3.9633687222225316 - 1.2*tanh(x)",
                                       enforce_crossing=False)
    report = validate_assumptions(sys, window)
    assert not report.clauses["crossing_at_0"]
    assert not report.clauses["limit_right_v2"]
    assert not report.passed


def test_validation_of_overflowing_potential_warns_nothing(window):
    """exp(x^2) overflows the bracket scan's neighbour products at the grid
    ends; the overflowed products keep their sign and raise no warning."""
    sys = PotentialSystem.from_strings(V1_WELL + " + exp(x^2) - 1", V2_TAIL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_assumptions(sys, window)
    assert report.clauses["crossing_at_0"]
    assert not report.clauses["roots_located"]  # exp(x^2) fills in the well
    assert not report.passed


def test_validation_rejects_non_finite_grid_values(window):
    """1e-300*exp(2 x^2) overflows to inf beyond |x| ~ 18.8, inside the scan
    interval: a typed error, and no overflow warning escapes."""
    sys = PotentialSystem.from_strings(V1_WELL + " + 1e-300*exp(2*x^2)", V2_TAIL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match="not finite"):
            validate_assumptions(sys, window)


def test_validation_reports_rising_exit_channel():
    """A v2 that rises through E' still locates c0, and slope_c0 fails with
    the slope as its margin instead of leaving c0 unlocated."""
    sys = PotentialSystem.from_strings(V1_WELL, "0.5 + 0.2*x", enforce_crossing=False)
    report = validate_assumptions(sys, EnergyWindow(1.0, 0.2))
    assert report.c0 == pytest.approx(2.5, abs=1e-12)
    assert report.clauses["roots_located"]
    assert not report.clauses["slope_c0"]
    assert report.margins["slope_c0"] == pytest.approx(-0.2, abs=1e-12)
    assert not report.passed


def test_validation_report_serializes(coupled, window):
    report = validate_assumptions(coupled, window)
    payload = report.as_dict()
    assert set(payload) == {"energy", "passed", "a0", "b0", "c0", "clauses", "margins"}
    assert payload["passed"] is True
    round_trip = json.loads(json.dumps(payload))
    assert round_trip["clauses"] == {k: bool(v) for k, v in report.clauses.items()}
