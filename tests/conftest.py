"""Shared model fixtures: the crossing instances exercised throughout the suite."""

import pytest

from predissoc import EnergyWindow, PotentialSystem, spectrum

# Gaussian well against a falling tanh tail; the v2 constant equals
# v1(0) = 2 - 2 e^{-4} so the curves cross at x = 0 to machine precision.
V1_WELL = "2 - 2*exp(-(x+2)^2)"
V2_TAIL = "1.9633687222225316 - 1.2*tanh(x)"

# Wider, shallower variant (well stretched 3x, tail steepened 2.5x) with the
# crossing constant v1(0) = 2 - 2 e^{-16/9}; the tunneling distance at the
# pinned energy 1.3 is S ~ 0.44, small enough that direct widths stay well
# above the eigensolver floor over an h-scan.
V1_SHALLOW = "2 - 2*exp(-((x+4)/3)^2)"
V2_SHALLOW = "1.6619733691878678 - 3*tanh(x)"


@pytest.fixture
def coupled():
    """Reference two-channel instance with constant interband coupling."""
    return PotentialSystem.from_strings(V1_WELL, V2_TAIL, r0="1", r1="0")


@pytest.fixture
def decoupled():
    """The same potentials with the coupling switched off."""
    return PotentialSystem.from_strings(V1_WELL, V2_TAIL)


@pytest.fixture
def shallow():
    """Shallow-barrier variant used for h-scans of the width law."""
    return PotentialSystem.from_strings(V1_SHALLOW, V2_SHALLOW, r0="1", r1="0")


@pytest.fixture
def harmonic():
    """Exactly solvable well x^2 crossing a linear exit channel at x = 0."""
    return PotentialSystem.from_strings("x^2", "-x")


@pytest.fixture
def window():
    """Unit-energy window paired with the reference instance."""
    return EnergyWindow(1.0, 0.2, 5.0)


@pytest.fixture
def fresh_tables():
    """An empty action-table cache, emptied again afterwards: a test that
    changes how tables are built leaves none of its tables behind."""
    spectrum._action_table.cache_clear()
    yield
    spectrum._action_table.cache_clear()
