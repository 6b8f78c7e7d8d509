"""Geometry layer: gains, region taxonomy, the rho-disk."""

import functools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError
from fdjam.fields import GridSpec, _grid_gains, build_region_grid
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
        assert (a_f[i], b_f[i]) == (g.a, g.b)


# The default 401 x 401 grid over [-2, 2]^2 and its cells at distance 1 from
# a node, where a or b is 1 and an ulp decides between R1 and R2: the
# integer solutions of i^2 + j^2 = 100^2, in steps, around each node's cell.
GRID = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.01)
_UNIT = [(i, j) for i in range(-100, 101) for j in range(-100, 101) if i * i + j * j == 100**2]
UNIT_CELLS = [(node + i, 200 + j) for node in (150, 250) for i, j in _UNIT]  # (ix, iy); nodes at ix 150, 250


def _points() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Random points; x-axis points x = d - 1/2, as pairwise._axis_gains and verify's axis derivatives read them; the unit cells."""
    rng = np.random.default_rng(34)
    d = np.concatenate([rng.uniform(0.02, 3.0, 200), 0.7 + np.array([-1e-5, 1e-5]), np.array([-1e-3, 0.0, 1e-3]) + 0.5])
    ix, iy = np.array(UNIT_CELLS).T
    return {
        "random": (rng.uniform(-2.0, 2.0, 300), rng.uniform(-2.0, 2.0, 300)),
        "axis": (d - 0.5, np.zeros(d.size)),
        "unit": (GRID.xs()[ix], GRID.ys()[iy]),
    }


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_scalar_gains_are_the_grid_kernel_to_the_bit(alpha) -> None:
    a_grid, b_grid = _grid_gains(GRID, alpha)
    for ix, iy in UNIT_CELLS:
        g = gains(float(GRID.xs()[ix]), float(GRID.ys()[iy]), alpha)
        assert (g.a, g.b) == (a_grid[iy, ix], b_grid[iy, ix])
    for xs, ys in _points().values():
        a_f, b_f = gain_fields(xs, ys, alpha)
        for x, y, a, b in zip(xs.tolist(), ys.tolist(), a_f.tolist(), b_f.tolist()):
            g = gains(x, y, alpha)
            assert (g.a, g.b) == (a, b)
    # every cell: the grid's broadcast axes against the meshed points
    xm, ym = np.meshgrid(GRID.xs(), GRID.ys())
    a_pts, b_pts = gain_fields(xm, ym, alpha)
    assert np.array_equal(a_grid, a_pts) and np.array_equal(b_grid, b_pts)


@functools.cache
def _scalar_grid_gains() -> tuple[LinkGains, ...]:
    """gains at alpha = 2 on every cell of GRID, row by row: 160 801 scalar calls, made once."""
    return tuple(gains(x, y, 2.0) for y in GRID.ys().tolist() for x in GRID.xs().tolist())


@pytest.mark.parametrize("rho", [0.01, 0.1])
def test_region_grid_is_the_scalar_classification(rho) -> None:
    # every cell, the unit cells among them, where an ulp of a gain decides R1 or R2
    cells = _scalar_grid_gains()
    a, b = _grid_gains(GRID, 2.0)
    assert [(g.a, g.b) for g in cells] == list(zip(a.ravel().tolist(), b.ravel().tolist()))
    want = [float(region_classify(g, rho).name[1]) for g in cells]
    assert build_region_grid(GRID, rho).values.ravel().tolist() == want


def _exact_gain(x: float, y: float, alpha: float, side: int):
    """d^-alpha from the float inputs, d^2 = (x + side/2)^2 + y^2: a Fraction at alpha = 2, 60 digits otherwise."""
    q = (Fraction(x) + Fraction(side, 2)) ** 2 + Fraction(y) ** 2
    if alpha == 2.0:
        return 1 / q
    with localcontext() as ctx:
        ctx.prec = 60
        qd = Decimal(q.numerator) / Decimal(q.denominator)
        return 1 / (qd * qd) if alpha == 4.0 else 1 / (qd * qd.sqrt())


def _ulps(v: float, exact) -> float:
    err = abs(Fraction(v) - exact) if isinstance(exact, Fraction) else abs(Decimal(v) - exact)
    return float(err) / math.ulp(v)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_gains_against_an_exact_reference(alpha) -> None:
    # (dx^2 + y^2)^(-alpha/2) rounds dx = x -+ 1/2, both squares, their sum
    # and the power.  The worst cells are where x - 1/2 rounds, as in the
    # grid's column x = -1.51: 3.69, 5.23 and 7.01 ulps at alpha = 2, 3 and
    # 4.  On 20 000 uniform points the worst is 2.07, 3.01 and 3.73 ulps and
    # the mean 0.42, 0.56 and 0.72; the mean bound alpha/4 is below hypot
    # then a power, 0.58, 0.82 and 1.08.
    sets = dict(_points(), column=(np.full(GRID.ny, GRID.xs()[49]), GRID.ys()))
    errs = {}
    for name, (xs, ys) in sets.items():
        a_f, b_f = gain_fields(xs, ys, alpha)
        errs[name] = []
        for x, y, a, b in zip(xs.tolist(), ys.tolist(), a_f.tolist(), b_f.tolist()):
            if abs(x) == 0.5 and y == 0.0:  # a node, on the axis: the next test's
                continue
            errs[name] += [_ulps(a, _exact_gain(x, y, alpha, 1)), _ulps(b, _exact_gain(x, y, alpha, -1))]
    assert max(max(e) for e in errs.values()) <= 2 * alpha
    assert sum(errs["random"]) / len(errs["random"]) < alpha / 4


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_gains_at_and_next_to_a_node_are_infinite_without_warnings(alpha) -> None:
    # y^2 underflows to 0 at y = 1e-170; at y = 1e-160, 1e-110 and 1e-80 it
    # does not, but d^-alpha = y^-alpha overflows where alpha*log10(1/y) > 308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (0.0, 1e-170, 1e-160, 1e-110, 1e-80):
            if y > 0 and alpha * -math.log10(y) < 309:
                continue
            assert gains(-0.5, y, alpha).a == math.inf and gains(0.5, -y, alpha).b == math.inf
            a_f, b_f = gain_fields(np.array([-0.5, 0.5]), np.array([y, y]), alpha)
            assert a_f[0] == b_f[1] == math.inf
            assert math.isfinite(a_f[1]) and math.isfinite(b_f[0])


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
