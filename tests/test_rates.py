import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trithermal.model import BathColumns, BathSpec
from trithermal.rates import (
    SMALL_FREQUENCY_FACTOR,
    FrequencyDomainError,
    bose_occupation,
    ohmic_spectral_density,
    rate_temperature_slope,
    transition_rates,
)

BATH = BathSpec("h", 1.0, 0.008, 50.0)

temperatures = st.floats(0.05, 10.0)
frequencies = st.floats(1e-3, 20.0)


def test_bose_occupation_value():
    assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0))


def test_bose_occupation_domain():
    with pytest.raises(FrequencyDomainError):
        bose_occupation(-1.0, 1.0)
    with pytest.raises(FrequencyDomainError):
        bose_occupation(1.0, 0.0)


@given(frequencies, temperatures)
def test_bose_occupation_classical_limit(omega, temperature):
    # n < T/w always, approaching it from below at high temperature
    n = bose_occupation(omega, temperature)
    assert 0.0 < n < temperature / omega


def test_ohmic_density_peak():
    # gamma * w * exp(-w/wc) peaks exactly at the cutoff
    peak = ohmic_spectral_density(50.0, 0.008, 50.0)
    assert peak > ohmic_spectral_density(49.0, 0.008, 50.0)
    assert peak > ohmic_spectral_density(51.0, 0.008, 50.0)
    assert ohmic_spectral_density(1.0, 0.008, 50.0) == pytest.approx(
        0.008 * math.exp(-0.02))


def test_negative_frequency_rejected():
    with pytest.raises(FrequencyDomainError):
        transition_rates(-0.1, BATH)


def test_negative_frequency_rejected_in_arrays():
    with pytest.raises(FrequencyDomainError):
        transition_rates(np.array([0.5, -0.1]), BATH)


@pytest.mark.parametrize("temperature", [1e-3, 1e-5, 1e-300])
def test_absorption_vanishes_far_below_the_transition(temperature):
    """omega / T beyond the exponential's range (~709) gives up -> 0, not
    an OverflowError."""
    bath = BathSpec("c", temperature, 0.008, 50.0)
    pair = transition_rates(0.8, bath)
    assert 0.0 <= pair.up < 1e-300
    assert pair.down == pytest.approx(ohmic_spectral_density(0.8, 0.008, 50.0),
                                      rel=1e-15)


def test_arrays_match_scalars():
    omegas = np.array([0.0, 1e-9, 0.3, 1.0, 900.0])
    baths = [BathSpec("w", t, gamma, cutoff) for t, gamma, cutoff in
             ((1.0, 0.008, 50.0), (0.5, 0.001, 10.0), (2.0, 0.02, 100.0),
              (0.1, 0.004, 20.0), (1.0, 0.008, 50.0))]
    columns = BathColumns(*(np.array(values) for values in zip(
        *((b.temperature, b.gamma, b.cutoff) for b in baths))))
    pairs = transition_rates(omegas, columns)
    for k, (omega, bath) in enumerate(zip(omegas, baths)):
        scalar = transition_rates(float(omega), bath)
        assert (pairs.down[k], pairs.up[k]) == (scalar.down, scalar.up)
    single = transition_rates(1.0, BATH)
    assert f"{single.up:.17g}" == f"{float(single.up):.17g}"


def test_zero_frequency_limit():
    # both rates tend to gamma * T as the transition frequency closes
    pair = transition_rates(0.0, BATH)
    assert pair.up == pytest.approx(BATH.gamma * BATH.temperature)
    assert pair.down == pytest.approx(pair.up)


def test_series_branch_is_continuous():
    t = BATH.temperature
    below = transition_rates(0.999999 * SMALL_FREQUENCY_FACTOR * t, BATH)
    above = transition_rates(1.000001 * SMALL_FREQUENCY_FACTOR * t, BATH)
    assert below.up == pytest.approx(above.up, rel=1e-12)
    assert below.down == pytest.approx(above.down, rel=1e-12)


@given(frequencies, temperatures, st.floats(0.001, 0.02), st.floats(10.0, 100.0))
def test_detailed_balance_ratio(omega, temperature, gamma, cutoff):
    """up/down = exp(-w/T): the Gibbs ratio the rates must imprint."""
    bath = BathSpec("c", temperature, gamma, cutoff)
    pair = transition_rates(omega, bath)
    assert pair.up / pair.down == pytest.approx(
        math.exp(-omega / temperature), rel=1e-10)


@given(frequencies, temperatures, st.floats(0.001, 0.02), st.floats(10.0, 100.0))
def test_down_minus_up_is_spectral_density(omega, temperature, gamma, cutoff):
    bath = BathSpec("c", temperature, gamma, cutoff)
    pair = transition_rates(omega, bath)
    assert pair.down - pair.up == pytest.approx(
        ohmic_spectral_density(omega, gamma, cutoff), rel=1e-12)


@given(st.floats(0.1, 5.0))
def test_up_rate_increases_with_temperature(temperature):
    hotter = BathSpec("h", temperature * 1.5, 0.008, 50.0)
    cooler = BathSpec("h", temperature, 0.008, 50.0)
    assert transition_rates(1.0, hotter).up > transition_rates(1.0, cooler).up


def central_difference(omega, bath, h):
    """(up(T + h) - up(T - h)) / 2h of transition_rates."""
    upper, lower = (transition_rates(omega, BathSpec(
        bath.label, bath.temperature + s, bath.gamma, bath.cutoff)).up
        for s in (h, -h))
    return (upper - lower) / (2.0 * h)


@given(frequencies, temperatures, st.floats(0.001, 0.02),
       st.floats(10.0, 100.0))
def test_temperature_slope_matches_finite_differences(omega, temperature,
                                                      gamma, cutoff):
    bath = BathSpec("w", temperature, gamma, cutoff)
    slope = rate_temperature_slope(omega, bath)
    assert slope >= 0.0
    for h in (1e-5 * temperature, 5e-6 * temperature):
        # the rounding error of each rate is ~1e-16 of gamma * T
        assert slope == pytest.approx(central_difference(omega, bath, h),
                                      rel=1e-6, abs=1e-10 * gamma)


def test_temperature_slope_in_the_series_branch():
    """Below the small-frequency switch the slope is that of the series."""
    omega = 0.5 * SMALL_FREQUENCY_FACTOR * BATH.temperature
    h = 1e-5 * BATH.temperature
    assert omega / (BATH.temperature - h) <= SMALL_FREQUENCY_FACTOR
    assert rate_temperature_slope(omega, BATH) == pytest.approx(
        central_difference(omega, BATH, h), rel=1e-9)


@pytest.mark.parametrize("temperature", [1e-3, 1e-300, 1.0 / 1.7e308])
def test_temperature_slope_vanishes_as_absorption_underflows(temperature):
    bath = BathSpec("w", temperature, 0.008, 50.0)
    assert rate_temperature_slope(np.array([0.2, 1.0, 2.0]), bath).tolist() \
        == pytest.approx([0.0, 0.0, 0.0], abs=1e-80)


def test_temperature_slope_arrays_match_scalars():
    omega = np.array([0.0, 1e-8, 0.2, 1.0, 800.0])
    slopes = rate_temperature_slope(omega, BATH)
    assert slopes.tolist() == [rate_temperature_slope(w, BATH)
                               for w in omega.tolist()]


def test_scaled():
    pair = transition_rates(1.0, BATH).scaled(0.25)
    reference = transition_rates(1.0, BATH)
    assert pair.up == pytest.approx(0.25 * reference.up)
    assert pair.down == pytest.approx(0.25 * reference.down)

