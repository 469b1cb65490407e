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

from .model import BathColumns, BathSpec, EigenSystem

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
    if (omega < 0).any():
        raise FrequencyDomainError("transition frequency must be non-negative")
    T = bath.temperature
    x = omega / T
    damping = bath.gamma * np.exp(-omega / bath.cutoff)
    spectral = damping * omega
    # G(w) n(w) = G(w) e^-x / (1 - e^-x), which tends to 0 instead of
    # overflowing as x grows
    small = x <= SMALL_FREQUENCY_FACTOR
    any_small = small.any()
    minus_x = np.where(small, -1.0, -x) if any_small else -x
    up = spectral * np.exp(minus_x) / -np.expm1(minus_x)
    if any_small:
        # G(w) n(w) = gamma T e^(-w/wc) * x / (e^x - 1); expand the last factor
        x_small = np.where(small, x, 0.0)
        up = np.where(small, damping * T * (1.0 - 0.5 * x_small
                                            + x_small * x_small / 12.0), up)
    down = up + spectral
    return RatePair(down=down[()], up=up[()])


def dressed_rates(omega: float, bath: BathSpec,
                  eig: EigenSystem) -> tuple[RatePair, RatePair, RatePair]:
    """Bare rates weighted by the three eigenbasis overlap factors f1, f2, f3."""
    bare = transition_rates(omega, bath)
    return bare.scaled(eig.f1), bare.scaled(eig.f2), bare.scaled(eig.f3)
