"""Speed families for contracting flows of convex surfaces, in principal-radii
coordinates.

Every family is represented as f(r1, r2) = -k(r1, r2)^(-alpha) with k
homogeneous of degree one and positive on the open cone r1, r2 > 0.  The
curvature-variable definitions (K^(alpha/2), H^alpha, |A|^alpha,
kappa1^alpha + kappa2^alpha) are recorded in the family table below; all
computations happen in radii.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# family tag -> degree-one normalization k, in radii coordinates:
#   gauss_power:  k = (r1 r2)^(1/2)                  (speed K^(alpha/2))
#   mean_power:   k = r1 r2 / (r1 + r2)              (speed H^alpha)
#   norm_power:   k = r1 r2 / sqrt(r1^2 + r2^2)      (speed |A|^alpha)
#   sum_power:    k = r1 r2 / (r1^a + r2^a)^(1/a)    (speed k1^alpha + k2^alpha)
FAMILIES = ("gauss_power", "mean_power", "norm_power", "sum_power")


@dataclass(frozen=True)
class RadiiPoint:
    """Ordered pair of principal radii, both strictly positive."""

    r1: Real
    r2: Real

    def __post_init__(self):
        if not (self.r1 > 0 and self.r2 > 0):
            raise DomainError(f"radii must be positive, got ({self.r1}, {self.r2})")


@dataclass(frozen=True)
class SpeedFunction:
    family: str
    alpha: Real

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be finite and positive, got {self.alpha}")


class KDerivs(NamedTuple):
    k: float
    k1: float
    k2: float
    k11: float
    k12: float
    k22: float


class FDerivs(NamedTuple):
    f: float
    f1: float
    f2: float
    f11: float
    f12: float
    f22: float


def _k_derivs(family, alpha, r1, r2, order=2):
    """k and its radii-derivatives up to `order`, closed form per family.

    order 0 gives k alone (the flow's RKC stage rates, `min_abs_speed` and
    `eval_f`), order 1 gives (k, k1, k2) (the flow's rate at the start of a
    step and the cap that sets its step floor and stage count), and order 2,
    the default, gives (k, k1, k2, k11, k12, k22).  Each expression is
    written once and a lower order returns before the higher ones, so every
    order yields the same bits as the matching prefix of order 2.
    """
    if family == "gauss_power":
        k = np.sqrt(r1 * r2)
        if order == 0:
            return k
        k1 = k / (2 * r1)
        k2 = k / (2 * r2)
        if order == 1:
            return k, k1, k2
        return k, k1, k2, -k / (4 * r1 * r1), 1 / (4 * k), -k / (4 * r2 * r2)
    if family == "mean_power":
        s = r1 + r2
        k = r1 * r2 / s
        if order == 0:
            return k
        k1 = (r2 / s) ** 2
        k2 = (r1 / s) ** 2
        if order == 1:
            return k, k1, k2
        s3 = s * s * s
        return k, k1, k2, -2 * r2 * r2 / s3, 2 * r1 * r2 / s3, -2 * r1 * r1 / s3
    if family == "norm_power":
        q2 = r1 * r1 + r2 * r2
        q = np.sqrt(q2)
        k = r1 * r2 / q
        if order == 0:
            return k
        q3 = q * q2
        k1 = r2 * r2 * r2 / q3
        k2 = r1 * r1 * r1 / q3
        if order == 1:
            return k, k1, k2
        q5 = q3 * q2
        return (
            k,
            k1,
            k2,
            -3 * r1 * r2**3 / q5,
            3 * r1 * r1 * r2 * r2 / q5,
            -3 * r2 * r1**3 / q5,
        )
    if family == "sum_power":
        # factor out the larger radius so (min/max)^alpha never overflows
        m = np.maximum(r1, r2)
        v = (np.minimum(r1, r2) / m) ** alpha
        A = (1 + v) ** (-1.0 / alpha)
        k = r1 * r2 * A / m
        if order == 0:
            return k
        k1 = (r2 * A / m) ** (1 + alpha)
        k2 = (r1 * A / m) ** (1 + alpha)
        if order == 1:
            return k, k1, k2
        c = (1 + alpha) / k
        k11 = c * k1 * (k1 - k / r1)
        k22 = c * k2 * (k2 - k / r2)
        k12 = c * k1 * k2
        return k, k1, k2, k11, k12, k22
    raise DomainError(f"unknown family {family!r}")


def _f_derivs(family, alpha, r1, r2):
    """f = -k^(-alpha) and derivatives via the homogeneity chain rule:

    fdot = alpha k^-(1+alpha) kdot,
    fddot = -alpha(1+alpha) k^-(2+alpha) kdot (x) kdot + alpha k^-(1+alpha) kddot.
    """
    k, k1, k2, k11, k12, k22 = _k_derivs(family, alpha, r1, r2)
    ka = k**-alpha
    c1 = alpha * ka / k
    c2 = -alpha * (1 + alpha) * ka / (k * k)
    f1 = c1 * k1
    f2 = c1 * k2
    f11 = c2 * k1 * k1 + c1 * k11
    f12 = c2 * k1 * k2 + c1 * k12
    f22 = c2 * k2 * k2 + c1 * k22
    return -ka, f1, f2, f11, f12, f22


def _gauss_f_derivs_exact(alpha, r1, r2):
    """Exact-rational gauss_power derivatives for even integer alpha.

    Writing f = -P^(-beta) with P = r1 r2 and beta = alpha/2 keeps every
    quantity rational, avoiding the square root in k.
    """
    beta = Fraction(alpha) / 2
    if beta.denominator != 1 or beta <= 0:
        raise DomainError("exact gauss path needs a positive even integer alpha")
    b = int(beta)
    P = Fraction(r1) * Fraction(r2)
    f = -(P**-b)
    f1 = b * P ** (-b - 1) * r2
    f2 = b * P ** (-b - 1) * r1
    f11 = -b * (b + 1) * P ** (-b - 2) * r2 * r2
    f22 = -b * (b + 1) * P ** (-b - 2) * r1 * r1
    f12 = b * ((-b - 1) * P ** (-b - 2) * r1 * r2 + P ** (-b - 1))
    return FDerivs(f, f1, f2, f11, f12, f22)


def _is_rational(x):
    return isinstance(x, (Fraction, int))


def _wants_exact(speed, r):
    if speed.family != "gauss_power":
        return False
    if not (_is_rational(r.r1) and _is_rational(r.r2)):
        return False
    beta = Fraction(speed.alpha) / 2
    return beta.denominator == 1 and beta > 0


def eval_f(speed: SpeedFunction, r: RadiiPoint):
    """Speed value f(r1, r2) = -k^(-alpha); strictly negative."""
    if _wants_exact(speed, r):
        return _gauss_f_derivs_exact(speed.alpha, r.r1, r.r2).f
    k = _k_derivs(speed.family, speed.alpha, float(r.r1), float(r.r2), order=0)
    return -(k ** -float(speed.alpha))


def eval_k_derivs(speed: SpeedFunction, r: RadiiPoint) -> KDerivs:
    return KDerivs(*_k_derivs(speed.family, float(speed.alpha), float(r.r1), float(r.r2)))


def eval_f_derivs(speed: SpeedFunction, r: RadiiPoint) -> FDerivs:
    """(f, fdot, fddot); exact Fractions on the gauss even-alpha rational path."""
    if _wants_exact(speed, r):
        return _gauss_f_derivs_exact(speed.alpha, r.r1, r.r2)
    return FDerivs(*_f_derivs(speed.family, float(speed.alpha), float(r.r1), float(r.r2)))
