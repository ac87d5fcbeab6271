"""Control law lambda(t, beta) = lambda0 * G(beta) * f(t).

The temperature envelope G and temporal modulation f are small tagged
classes; the two tabulated variants share one body, which interpolates
with a C^1 monotone cubic (PCHIP), raises outside the abscissa range, and
gives G' as the exact derivative of that cubic.  ``_Checked`` states the
policy of every input record once (these profiles, ``DriveProfile``, and
``TimeGrid``, ``ReduceSpec`` and ``ScanSpec``): immutable NamedTuples that
equal only records of their own kind, whose rules, checked in ``__new__``,
``_replace`` also runs.
"""

import math
from typing import NamedTuple

import numpy as np

from .exceptions import ExtrapolationError


class _MonotoneCubic:
    """Monotone cubic Hermite interpolant (PCHIP; Fritsch & Carlson 1980,
    Fritsch & Butland 1984), no extrapolation.  Slopes, coefficients and
    evaluation order follow scipy's ``PchipInterpolator``.
    """

    def __init__(self, x, y, what, var):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.size != y.size:
            raise ValueError(f"tabulated {what} needs >= 2 ({var}, value) pairs")
        h = np.diff(x)
        if not np.all(h > 0):
            raise ValueError("tabulated abscissa must be strictly increasing")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if x.size > 2:
            # interior: weighted harmonic mean of the secants, 0 at extrema and flats
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(smooth, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
            # ends: three-point one-sided slope, clipped to keep the data's shape
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            flip = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(flip, 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x, self.y, self.var = x, y, var
        self.coeffs = (y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def _locate(self, at):
        at = np.asarray(at, dtype=float)
        lo, hi = self.x[0], self.x[-1]
        if np.any(at < lo) or np.any(at > hi):
            raise ExtrapolationError(f"{self.var} outside tabulated range [{lo}, {hi}]")
        k = np.clip(np.searchsorted(self.x, at, side="right") - 1, 0, self.x.size - 2)
        return [c[k] for c in self.coeffs], at - self.x[k]

    def __call__(self, at):
        (c0, c1, c2, c3), s = self._locate(at)
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    def derivative(self, at):
        (_, c1, c2, c3), s = self._locate(at)
        return c1 + s * (2.0 * c2 + 3.0 * s * c3)


class _Checked(tuple):
    """The policy of the package's input records, stated once.  A record
    derives from this base and then from its ``NamedTuple``, and may check
    its rules in ``__new__``, which ``_replace`` also runs.  It equals only a
    record of its own kind with equal fields (plain tuples would compare a
    cosine modulation equal to a Gaussian envelope, or a grid to a pair),
    hashes as its tuple, takes no new attribute, and is true even without
    fields."""

    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __bool__(self):  # a record, not an empty tuple
        return True


class GaussianEnvelope(_Checked, NamedTuple("GaussianEnvelope", [("beta0", float),
                                                                 ("s_beta", float)])):
    """G(beta) = exp(-(beta-beta0)^2 / (2 s_beta^2)), maximal (=1) at beta0.

    The exponent is formed from the ratio (beta-beta0)/s_beta before
    squaring so extreme arguments underflow to zero instead of overflowing;
    increments scale as G'^2, so silent overflow would zero the physics.
    """

    def __new__(cls, beta0, s_beta):
        if not s_beta > 0.0:
            raise ValueError(f"s_beta must be > 0, got {s_beta}")
        return super().__new__(cls, beta0, s_beta)

    def value(self, beta):
        z = (np.asarray(beta, dtype=float) - self.beta0) / self.s_beta
        return np.exp(-0.5 * z * z)

    def derivative(self, beta):
        beta = np.asarray(beta, dtype=float)
        return -((beta - self.beta0) / self.s_beta**2) * self.value(beta)


class ConstantEnvelope(_Checked, NamedTuple("ConstantEnvelope", [])):
    """Temperature-insensitive drive: G = 1, G' = 0 (the no-go case)."""

    def value(self, beta):
        return np.ones_like(np.asarray(beta, dtype=float))

    def derivative(self, beta):
        return np.zeros_like(np.asarray(beta, dtype=float))


class _Tabulated(_Checked):
    """User-supplied samples of a profile (``_names``: its kind and variable),
    PCHIP-interpolated, with no extrapolation.  The interpolant is kept
    beside the fields and is as immutable as they are."""

    def __new__(cls, *args, **kwargs):
        x, y = super().__new__(cls, *args, **kwargs)  # the namedtuple parses the arguments
        interp = _MonotoneCubic(x, y, *cls._names)
        self = super().__new__(cls, tuple(interp.x), tuple(interp.y))
        self.__dict__["_interp"] = interp
        return self

    def value(self, at):
        return self._interp(at)


class TabulatedEnvelope(_Tabulated, NamedTuple("TabulatedEnvelope", [("betas", tuple),
                                                                     ("values", tuple)])):
    """User-supplied G(beta) samples; G' is the exact derivative of the cubic."""

    _names = ("envelope", "beta")

    def derivative(self, beta):
        return self._interp.derivative(beta)


class CosineModulation(_Checked, NamedTuple("CosineModulation", [("omega_d", float),
                                                                 ("phi", float)])):
    """f(t) = cos(omega_d * t + phi)."""

    def __new__(cls, omega_d, phi=0.0):
        if omega_d < 0.0:
            raise ValueError(f"omega_d must be >= 0, got {omega_d}")
        return super().__new__(cls, omega_d, phi)

    def value(self, t):
        return np.cos(self.omega_d * np.asarray(t, dtype=float) + self.phi)


class ConstantModulation(_Checked, NamedTuple("ConstantModulation", [])):
    """f(t) = 1 (constant-in-time control)."""

    def value(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


class TabulatedModulation(_Tabulated, NamedTuple("TabulatedModulation", [("times", tuple),
                                                                         ("values", tuple)])):
    """User-supplied f(t) samples."""

    _names = ("modulation", "t")


class DriveProfile(_Checked, NamedTuple("DriveProfile", [("lambda0", float), ("envelope", object),
                                                         ("temporal", object)])):
    """lambda(t, beta) = lambda0 * envelope(beta) * temporal(t)."""

    @property
    def omega_d(self) -> float:
        """Driving frequency, 0 for non-cosine modulations."""
        return getattr(self.temporal, "omega_d", 0.0)


def lambda_at(profile: DriveProfile, t, beta):
    """Drive amplitude at (t, beta); vectorized over t."""
    return profile.lambda0 * profile.envelope.value(beta) * profile.temporal.value(t)


def dlambda_dbeta(profile: DriveProfile, t, beta):
    """Beta derivative of the drive amplitude at (t, beta); vectorized over t.

    Identically zero for temperature-insensitive envelopes; this is the
    weight entering the non-equilibrium contribution, so an exactly-zero
    derivative is the no-go condition.
    """
    return profile.lambda0 * profile.envelope.derivative(beta) * profile.temporal.value(t)


def sample_envelope_center(beta_star: float, equilibrium_qfi_value: float,
                           seed: int) -> float:
    """Draw an envelope center uniformly from max(0, beta* +- 1/sqrt(F_eq)).

    Deterministic given the seed; used by the opt-in config sampler.
    """
    if equilibrium_qfi_value <= 0.0:
        raise ValueError("equilibrium QFI must be positive to size the sampling window")
    half_width = 1.0 / math.sqrt(equilibrium_qfi_value)
    lo = max(0.0, beta_star - half_width)
    hi = beta_star + half_width
    rng = np.random.default_rng(seed)
    return float(rng.uniform(lo, hi))
