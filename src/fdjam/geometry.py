"""Link geometry and eavesdropper region classification.

The two legitimate endpoints sit at (-0.5, 0) and (0.5, 0) so that their
separation is the unit of distance.  All powers and gains are normalized:
the direct link has unit gain and unit receiver noise, an eavesdropper at
(x, y) sees the endpoints through large-scale gains a = d_A^-alpha and
b = d_B^-alpha, and rho is the residual self-interference gain of the
full-duplex receiver after cancellation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "SystemParams",
    "EveLocation",
    "LinkGains",
    "Region",
    "DiskBoundary",
    "gains",
    "gain_fields",
    "region_classify",
    "rho_disk",
    "region4_containment_threshold",
    "sign_b_minus_rho_a",
]


@dataclass(frozen=True)
class SystemParams:
    """Normalized system parameters.

    p_j may be math.inf, the designated infinite jamming power; closed forms
    then evaluate their analytic limits instead of overflowing.
    """

    p_t: float
    p_j: float
    rho: float
    alpha: float = 2.0
    delta: float = 0.1

    def __post_init__(self) -> None:
        if not self.p_t > 0 or math.isinf(self.p_t):
            raise InvalidParameterError(f"p_t must be finite and > 0, got {self.p_t}")
        if not self.p_j >= 0:
            raise InvalidParameterError(f"p_j must be >= 0, got {self.p_j}")
        if not self.rho >= 0 or math.isinf(self.rho):
            raise InvalidParameterError(f"rho must be finite and >= 0, got {self.rho}")
        if not self.alpha >= 2:
            raise InvalidParameterError(f"alpha must be >= 2, got {self.alpha}")
        if not self.delta > 0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class EveLocation:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameterError(f"location must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class LinkGains:
    """Large-scale gains from the two endpoints to one eavesdropper point.

    a is the gain from the transmitter at (-0.5, 0), b from (0.5, 0).
    Either may be math.inf when the point coincides with an endpoint.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a > 0 or not self.b > 0:
            raise InvalidParameterError(f"gains must be > 0, got a={self.a}, b={self.b}")
        if math.isinf(self.a) and math.isinf(self.b):
            raise InvalidParameterError("a and b cannot both be infinite")

    def swapped(self) -> "LinkGains":
        """Gains seen when the two endpoint roles are exchanged."""
        return LinkGains(self.b, self.a)


class Region(enum.Enum):
    """Partition of eavesdropper locations by (sign(b - rho*a), a vs 1)."""

    R1 = "R1"  # b - rho*a > 0 and a < 1
    R2 = "R2"  # b - rho*a > 0 and a >= 1
    R3 = "R3"  # b - rho*a <= 0 and a < 1
    R4 = "R4"  # b - rho*a <= 0 and a >= 1


_REGIONS = tuple(Region)  # by region index - 1


class DiskSide(enum.Enum):
    LEFT_EXCLUSION = "left-exclusion"    # rho < 1: secrecy possible outside the disk
    RIGHT_INCLUSION = "right-inclusion"  # rho > 1: secrecy possible only inside the disk
    HALF_PLANE = "half-plane"            # rho = 1: secrecy possible for x > 0


@dataclass(frozen=True)
class DiskBoundary:
    """Boundary of the set where b - rho*a > 0.

    For rho != 1 the boundary is the circle (x + x0)^2 + y^2 = r^2 with
    r = sqrt(x0^2 - 1/4); x0 > 1/2 when rho < 1 (disk on the left, around
    (-0.5, 0)) and x0 < 0 when rho > 1 (disk on the right).  rho = 1
    degenerates to the half-plane x > 0.
    """

    x0: float
    r: float
    side: DiskSide

    def secrecy_side(self, x, y):
        """True where b - rho*a > 0 (scalar or ndarray input)."""
        if self.side is DiskSide.HALF_PLANE:
            return np.asarray(x) > 0 if isinstance(x, np.ndarray) else x > 0
        q = (np.asarray(x, dtype=float) + self.x0) ** 2 + np.asarray(y, dtype=float) ** 2
        out = q > self.r**2 if self.side is DiskSide.LEFT_EXCLUSION else q < self.r**2
        return out if isinstance(x, np.ndarray) else bool(out)


def gains(x: float, y: float, alpha: float) -> LinkGains:
    """Large-scale gains at location (x, y) for path-loss exponent alpha.

    A point exactly on an endpoint gets an infinite gain marker, and so does
    one so near it that d^-alpha overflows.
    """
    if alpha < 2:
        raise InvalidParameterError(f"alpha must be >= 2, got {alpha}")

    def gain(d: float) -> float:
        try:
            return d**-alpha
        except (ZeroDivisionError, OverflowError):
            return math.inf

    return LinkGains(a=gain(math.hypot(x + 0.5, y)), b=gain(math.hypot(x - 0.5, y)))


def gain_fields(x: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gains over coordinate arrays; endpoints map to inf."""
    d_a = np.hypot(np.asarray(x, dtype=float) + 0.5, y)
    d_b = np.hypot(np.asarray(x, dtype=float) - 0.5, y)
    with np.errstate(divide="ignore"):
        a = d_a**-float(alpha)
        b = d_b**-float(alpha)
    return a, b


def _jam_scale(p_j):
    """(r, i) = (min(P_J, 1), 1/max(P_J, 1)), the jamming scale, for a scalar or an array P_J.

    A jammed denominator 1 + g*P_J is h/i with h = i + g*r, and a jammed
    quantity divided by max(1, P_J) keeps its value: no P_J overflows h,
    P_J = inf is the member i = 0, and at P_J <= 1 (i = 1) h is the
    denominator itself.
    """
    return np.minimum(p_j, 1.0), 1.0 / np.maximum(p_j, 1.0)


def _sign_array(a, b, rho: float) -> np.ndarray:
    """Sign of b - rho*a over gain arrays that broadcast, with infinite gains as limits.

    b = inf gives +1 and a = inf gives -1 for every rho.  At Alice's node
    (a = inf) the secrecy is 0 at every power, rho = 0 included, and
    rho_disk(0, alpha) is the point disk there; so the node is labelled R4.
    Elsewhere rho == 0 gives +1, because the product rho*a is identically
    zero along rho = 0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        s = np.ones(np.broadcast(a, b).shape) if rho == 0 else np.sign(b - rho * a)
    return np.where(np.isinf(b), 1.0, np.where(np.isinf(a), -1.0, s))


def _region_array(a, b, rho: float) -> np.ndarray:
    """Region index 1..4 over gain arrays: R1/R2 where b - rho*a > 0, R2/R4 where a >= 1.

    The boundary b = rho*a is folded into the b - rho*a <= 0 side.
    """
    return 1.0 + (np.asarray(a) >= 1.0) + 2.0 * (_sign_array(a, b, rho) <= 0)


def sign_b_minus_rho_a(a: float, b: float, rho: float) -> int:
    """Sign of b - rho*a with infinite gains handled as limits (_sign_array)."""
    return int(_sign_array(a, b, rho))


def region_classify(g: LinkGains, rho: float) -> Region:
    """Assign the eavesdropper point to one of the four canonical regions (_region_array)."""
    if not rho >= 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    return _REGIONS[int(_region_array(g.a, g.b, rho)) - 1]


def rho_disk(rho: float, alpha: float) -> DiskBoundary:
    """Boundary of {b - rho*a > 0} for rho >= 0.

    The locus b = rho*a is the set of points whose distance ratio
    d_A/d_B equals rho^(1/alpha), a circle; rho -> 0 collapses it onto the
    transmitter point and rho = 1 flattens it into the axis x = 0.
    """
    if not rho >= 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    if alpha < 2:
        raise InvalidParameterError(f"alpha must be >= 2, got {alpha}")
    if rho == 1:
        return DiskBoundary(x0=math.inf, r=math.inf, side=DiskSide.HALF_PLANE)
    k2 = rho ** (2.0 / alpha)
    x0 = (1 + k2) / (2 * (1 - k2))
    r = math.sqrt(max(0.0, x0 * x0 - 0.25))
    side = DiskSide.LEFT_EXCLUSION if rho < 1 else DiskSide.RIGHT_INCLUSION
    return DiskBoundary(x0=x0, r=r, side=side)


def region4_containment_threshold(delta: float, alpha: float) -> float:
    """Largest rho keeping the whole zero-secrecy disk within delta of the transmitter.

    For an exclusion radius delta <= 1 the condition is
    rho < delta^alpha / (1 + delta)^alpha; any rho works for delta > 1
    (then the threshold saturates at 1).
    """
    if not delta > 0:
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    if alpha < 2:
        raise InvalidParameterError(f"alpha must be >= 2, got {alpha}")
    if delta > 1:
        return 1.0
    return (delta / (1.0 + delta)) ** alpha
