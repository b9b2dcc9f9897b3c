"""Points on the Riemann sphere and the chordal metric.

The stereographic coordinate follows zeta = tan(theta/2) * exp(-i phi),
projecting from the south pole (theta = pi), which is represented by the
point at infinity.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# The coordinate that stands for the point at infinity in arrays.
INFINITY = complex(math.inf, 0.0)


@dataclass(frozen=True)
class SpherePoint:
    """One point on the sphere: a finite complex coordinate or infinity."""

    zeta: complex | None  # None encodes the point at infinity

    @property
    def is_infinity(self) -> bool:
        return self.zeta is None

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(None)

    @classmethod
    def from_zeta(cls, zeta: complex) -> "SpherePoint":
        return cls(complex(zeta))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SpherePoint":
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if abs(theta - math.pi) < 1e-15:
            return cls.infinity()
        r = math.tan(theta / 2.0)
        return cls(r * cmath.exp(-1j * phi))

    def theta(self) -> float:
        return angles(self.zeta)[0]

    def phi(self) -> float:
        return angles(self.zeta)[1]

    def antipode_negation(self) -> "SpherePoint":
        """The image under zeta -> -zeta (NOT the antipodal map)."""
        if self.is_infinity:
            return self
        return SpherePoint(-self.zeta)


def angles(zeta: complex | None) -> tuple[float, float]:
    """Polar angle theta and azimuth phi in [0, 2 pi) of a coordinate,
    None for infinity; phi is 0 by convention at the poles.  The
    one-point case of angle_columns."""
    (theta,), (phi,) = angle_columns([INFINITY if zeta is None else zeta])
    return theta, phi


def angle_columns(zetas: list[complex]) -> tuple[list[float], list[float]]:
    """The theta and the phi of each coordinate of a list of complex
    numbers, any infinite one standing for the point at infinity (theta
    pi, phi 0), each by the scalar operations of Python's math and cmath:
    theta = 2 atan|zeta| and phi = -arg(zeta) mod 2 pi."""
    return ([2.0 * math.atan(abs(z)) for z in zetas],
            [0.0 if z == 0 or cmath.isinf(z) else (-cmath.phase(z)) % TWO_PI
             for z in zetas])


def coordinates(points) -> np.ndarray:
    """Complex coordinates of a sequence of points (SpherePoint, complex or
    None for infinity), with INFINITY for the point at infinity."""
    zs = (p.zeta if isinstance(p, SpherePoint) else p for p in points)
    return np.array([INFINITY if z is None else z for z in zs],
                    dtype=complex)


def chordal_distances(za, zb) -> np.ndarray:
    """Distance between sphere points through the embedding ball,
    elementwise over two broadcasting arrays of complex coordinates, any
    infinite one standing for the point at infinity.

    d(z, w) = 2|z - w| / sqrt((1+|z|^2)(1+|w|^2)), with the usual limit
    d(z, inf) = 2 / sqrt(1+|z|^2).  Ranges over [0, 2].  |z| is
    hypot(re, im) and |z|^2 is float_power(|z|, 2.0), which are the bits
    abs and ** 2 give a Python complex; the limit at infinity is taken
    with math.hypot.  So each entry is the scalar chordal_distance.
    """
    za, zb = np.asarray(za, dtype=complex), np.asarray(zb, dtype=complex)
    ra, rb = np.hypot(za.real, za.imag), np.hypot(zb.real, zb.imag)
    inf_a, inf_b = np.isinf(ra), np.isinf(rb)
    pole = inf_a.any() or inf_b.any()
    if pole:  # finite stand-ins, so the formula raises no warning
        za, zb = np.where(inf_a, 0.0, za), np.where(inf_b, 0.0, zb)
    dz = za - zb
    d = 2.0 * np.hypot(dz.real, dz.imag) / np.sqrt(
        (1.0 + np.float_power(ra, 2.0)) * (1.0 + np.float_power(rb, 2.0)))
    if pole:
        d = np.array(d)
        inf_a, inf_b, ra, rb = np.broadcast_arrays(inf_a, inf_b, ra, rb)
        d[inf_a & inf_b] = 0.0
        one = inf_a != inf_b
        d[one] = [2.0 / math.hypot(1.0, r)
                  for r in np.where(inf_a, rb, ra)[one].tolist()]
    return d


def chordal_distance(a: SpherePoint | complex | None,
                     b: SpherePoint | complex | None) -> float:
    """chordal_distances of two points (SpherePoint, complex or None for
    infinity), as a float."""
    return float(chordal_distances(coordinates([a]), coordinates([b]))[0])
