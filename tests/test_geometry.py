"""Geometry layer: gains, region taxonomy, the rho-disk."""

import math

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError
from fdjam.geometry import (
    DiskSide,
    EveLocation,
    LinkGains,
    Region,
    SystemParams,
    gain_fields,
    gains,
    region4_containment_threshold,
    region_classify,
    rho_disk,
    sign_b_minus_rho_a,
)


def test_parameter_validation() -> None:
    with pytest.raises(InvalidParameterError):
        SystemParams(p_t=0.0, p_j=1.0, rho=0.1)
    with pytest.raises(InvalidParameterError):
        SystemParams(p_t=math.inf, p_j=1.0, rho=0.1)
    with pytest.raises(InvalidParameterError):
        SystemParams(p_t=1.0, p_j=-1.0, rho=0.1)
    with pytest.raises(InvalidParameterError):
        SystemParams(p_t=1.0, p_j=1.0, rho=0.1, alpha=1.5)
    with pytest.raises(InvalidParameterError):
        SystemParams(p_t=1.0, p_j=1.0, rho=0.1, delta=0.0)
    with pytest.raises(InvalidParameterError):
        EveLocation(math.nan, 0.0)
    # infinite jamming power is the designated limit and must be accepted
    SystemParams(p_t=1.0, p_j=math.inf, rho=0.1)


def test_gains_basic_values() -> None:
    g = gains(0.0, 0.0, 2.0)
    assert g.a == pytest.approx(4.0)
    assert g.b == pytest.approx(4.0)
    g3 = gains(1.5, 0.0, 3.0)
    assert g3.a == pytest.approx(2.0**-3)
    assert g3.b == pytest.approx(1.0)


def test_gains_endpoint_is_infinite_marker() -> None:
    g = gains(-0.5, 0.0, 2.0)
    assert math.isinf(g.a)
    assert g.b == pytest.approx(1.0)
    with pytest.raises(InvalidParameterError):
        LinkGains(math.inf, math.inf)
    with pytest.raises(InvalidParameterError):
        gains(0.0, 0.0, 1.5)


def test_gain_fields_matches_scalar() -> None:
    xs = np.array([-1.0, 0.0, 0.3, 2.0])
    ys = np.array([0.5, 0.0, -1.2, 0.0])
    a_f, b_f = gain_fields(xs, ys, 2.5)
    for i in range(xs.size):
        g = gains(float(xs[i]), float(ys[i]), 2.5)
        assert a_f[i] == pytest.approx(g.a)
        assert b_f[i] == pytest.approx(g.b)


def test_swapped_exchanges_roles() -> None:
    g = gains(0.2, 0.4, 2.0)
    s = g.swapped()
    assert (s.a, s.b) == (g.b, g.a)


def test_sign_handles_limits() -> None:
    # rho = 0 keeps the product rho*a at zero along the limit path; Alice's node (a = inf),
    # where the secrecy is 0 at every power, is on the -1 side for every rho
    assert sign_b_minus_rho_a(4.0, 1.0, 0.0) == 1
    assert sign_b_minus_rho_a(math.inf, 1.0, 0.0) == -1
    assert sign_b_minus_rho_a(math.inf, 1.0, 0.1) == -1
    assert sign_b_minus_rho_a(1.0, math.inf, 0.1) == 1
    assert sign_b_minus_rho_a(10.0, 1.0, 0.1) == 0
    assert sign_b_minus_rho_a(10.0, 2.0, 0.1) == 1


def test_region_classification() -> None:
    rho = 0.1
    assert region_classify(LinkGains(0.5, 2.0), rho) is Region.R1
    assert region_classify(LinkGains(4.0, 2.0), rho) is Region.R2
    assert region_classify(LinkGains(0.5, 0.01), rho) is Region.R3
    assert region_classify(LinkGains(4.0, 0.01), rho) is Region.R4
    # boundary b = rho*a folds into the nonpositive side
    assert region_classify(LinkGains(10.0, 1.0), rho) is Region.R4
    with pytest.raises(InvalidParameterError):
        region_classify(LinkGains(1.0, 1.0), -0.5)


def test_rho_disk_geometry() -> None:
    disk = rho_disk(0.1, 2.0)
    assert disk.side is DiskSide.LEFT_EXCLUSION
    assert disk.x0 == pytest.approx(1.1 / 1.8)
    assert disk.r == pytest.approx(math.sqrt((1.1 / 1.8) ** 2 - 0.25))
    # on the circle the defining ratio is exact: b = rho * a
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        x = -disk.x0 + disk.r * math.cos(theta)
        y = disk.r * math.sin(theta)
        g = gains(x, y, 2.0)
        assert g.b == pytest.approx(0.1 * g.a, rel=1e-9)


def test_rho_disk_sides() -> None:
    left = rho_disk(0.5, 2.0)
    assert left.side is DiskSide.LEFT_EXCLUSION
    assert left.secrecy_side(2.0, 0.0)
    assert not left.secrecy_side(-left.x0, 0.0)

    right = rho_disk(2.0, 2.0)
    assert right.side is DiskSide.RIGHT_INCLUSION
    assert right.x0 < 0

    half = rho_disk(1.0, 2.0)
    assert half.side is DiskSide.HALF_PLANE
    assert half.secrecy_side(0.3, 5.0)
    assert not half.secrecy_side(-0.3, 5.0)
    arr = half.secrecy_side(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    assert list(arr) == [False, True]


def test_disk_side_agrees_with_sign() -> None:
    rng = np.random.default_rng(2)
    for rho in (0.05, 0.5, 1.0, 3.0):
        disk = rho_disk(rho, 2.0)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=2)
            g = gains(float(x), float(y), 2.0)
            assert disk.secrecy_side(float(x), float(y)) == (
                sign_b_minus_rho_a(g.a, g.b, rho) > 0
            )


def test_containment_threshold_value() -> None:
    thr = region4_containment_threshold(0.1, 2.0)
    assert thr == pytest.approx((0.1 / 1.1) ** 2, abs=1e-18)
    assert thr == pytest.approx(0.008264462809917356, abs=1e-18)
    # in dB this is about -20.8
    assert 10.0 * math.log10(thr) == pytest.approx(-20.8, abs=0.05)
    assert region4_containment_threshold(2.0, 2.0) == 1.0
    with pytest.raises(InvalidParameterError):
        region4_containment_threshold(0.0, 2.0)


def test_containment_threshold_is_sharp() -> None:
    # just below the threshold the whole nonpositive-sign disk keeps
    # d_A >= delta; just above it the disk pokes out
    delta, alpha = 0.1, 2.0
    thr = region4_containment_threshold(delta, alpha)
    for rho, contained in ((thr * 0.999, True), (thr * 1.001, False)):
        disk = rho_disk(rho, alpha)
        # farthest disk point from (-0.5, 0) sits at x = -x0 - r on the axis
        lip = disk.x0 + disk.r - 0.5
        assert (lip <= delta) == contained
