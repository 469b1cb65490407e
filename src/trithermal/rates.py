"""Bath spectra, thermal occupations and the transition rates of the dissipators.

Rates come in emission/absorption pairs tied by detailed balance:
down(w) = G(w) [n(w) + 1] and up(w) = G(w) n(w), with G the Ohmic spectral
density and n the Bose-Einstein occupation. The w -> 0 limit is finite
(both tend to gamma * T) and is handled by a short series expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BathColumns, BathSpec

#: below omega < SMALL_FREQUENCY_FACTOR * T the occupation uses its series form
SMALL_FREQUENCY_FACTOR = 1e-6


class FrequencyDomainError(ValueError):
    """A rate was requested at a frequency outside its domain."""


@dataclass(frozen=True)
class RatePair:
    """Emission (down) and absorption (up) rates at one transition frequency.

    Floats, or arrays over stacked device points.
    """

    down: float | np.ndarray
    up: float | np.ndarray

    def scaled(self, factor: float) -> "RatePair":
        return RatePair(down=factor * self.down, up=factor * self.up)


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean occupation of a bath mode, 1 / (e^(w/T) - 1)."""
    if not temperature > 0:
        raise FrequencyDomainError("temperature must be positive")
    if not omega > 0:
        raise FrequencyDomainError("bose_occupation requires omega > 0")
    return 1.0 / math.expm1(omega / temperature)


def ohmic_spectral_density(omega: float, gamma: float, cutoff: float) -> float:
    """Ohmic spectral density gamma * w * exp(-w / cutoff)."""
    return gamma * omega * math.exp(-omega / cutoff)


def transition_rates(omega, bath: BathSpec | BathColumns) -> RatePair:
    """Emission/absorption rate pair of one bath at transition frequency omega.

    Valid for omega >= 0; the device only ever requests non-negative
    frequencies. down - up equals the spectral density exactly, at every
    frequency, including across the small-frequency switch. omega and the
    bath parameters may be arrays over stacked device points; the pair then
    holds arrays.
    """
    omega = np.asarray(omega, dtype=float)
    if np.count_nonzero(omega < 0):
        raise FrequencyDomainError("transition frequency must be non-negative")
    T = bath.temperature
    x = omega / T
    damping = bath.gamma * np.exp(-omega / bath.cutoff)
    spectral = damping * omega
    # G(w) n(w) = G(w) e^-x / (1 - e^-x), which tends to 0 instead of
    # overflowing as x grows
    small = x <= SMALL_FREQUENCY_FACTOR
    any_small = np.count_nonzero(small)
    minus_x = np.where(small, -1.0, -x) if any_small else -x
    up = spectral * np.exp(minus_x) / -np.expm1(minus_x)
    if any_small:
        # G(w) n(w) = gamma T e^(-w/wc) * x / (e^x - 1); expand the last factor
        x_small = np.where(small, x, 0.0)
        up = np.where(small, damping * T * (1.0 - 0.5 * x_small
                                            + x_small * x_small / 12.0), up)
    down = up + spectral
    return RatePair(down=down[()], up=up[()])


def rate_temperature_slope(omega, bath: BathSpec | BathColumns):
    """d up / dT of transition_rates at omega, which is also d down / dT,
    because down - up = G(w) does not depend on T.

    Each branch of transition_rates is differentiated as it stands: with
    x = w / T and n' = -n (n + 1), G n(x) gives gamma e^(-w/wc) x^2 n (n + 1);
    the series gamma e^(-w/wc) (T - w/2 + w^2 / (12 T)) gives
    gamma e^(-w/wc) (1 - x^2 / 12). Where n underflows (T -> 0) the slope
    is 0. Floats or arrays, as transition_rates.
    """
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):  # as T -> 0; see x_large below
        x = omega / bath.temperature
    damping = bath.gamma * np.exp(-omega / bath.cutoff)
    small = x <= SMALL_FREQUENCY_FACTOR
    # n is exactly 0 from x ~ 745 on, so capping x keeps x^2 n at 0 there
    # even where x overflows
    x_large = np.clip(x, SMALL_FREQUENCY_FACTOR, 1e3)
    n = np.exp(-x_large) / -np.expm1(-x_large)
    x_small = np.where(small, x, 0.0)
    slope = damping * np.where(small, 1.0 - x_small * x_small / 12.0,
                               x_large * x_large * n * (1.0 + n))
    return slope[()]
