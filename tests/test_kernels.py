import math

import numpy as np
import pytest

from ustatcs.accumulator import UStatAccumulator
from ustatcs.kernels import (
    KERNEL_IDS,
    DistParams,
    get_kernel,
    true_sigma2,
    true_theta,
)
from ustatcs.simharness import sample, sample_paired_mmd


def _random_point(kernel_id, rng):
    if get_kernel(kernel_id).point_dim == 1:
        return float(rng.standard_normal())
    return rng.standard_normal(2)


_BAD_LAWS = [
    ({"family": "cauchy"}, "unknown family 'cauchy'"),
    ({"mean": math.nan}, "mean must be finite, got nan"),
    ({"mean": -math.inf}, "mean must be finite, got -inf"),
    ({"variance": 0.0}, "variance must be finite and > 0, got 0.0"),
    ({"variance": math.nan}, "variance must be finite and > 0, got nan"),
    ({"variance": math.inf}, "variance must be finite and > 0, got inf"),
    ({"rho": math.nan}, "rho must be in [-1,1]"),
    ({"mixer": "cauchy"}, "unknown mixer 'cauchy'"),
    ({"shift": -0.5}, "shift must be finite and >= 0, got -0.5"),
    ({"shift": math.nan}, "shift must be finite and >= 0, got nan"),
    ({"shift": math.inf}, "shift must be finite and >= 0, got inf"),
]


@pytest.mark.parametrize("kwargs, message", [
    pytest.param(kw, msg, id="-".join(f"{k}={v}" for k, v in kw.items())) for kw, msg in _BAD_LAWS
])
def test_dist_params_refuse_a_law_with_no_meaning(kwargs, message):
    with pytest.raises(ValueError) as info:
        DistParams(**kwargs)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------


def test_variance_example():
    assert get_kernel("variance").h(1.0, 3.0) == 2.0


def test_gmd_diagonal():
    for x in (-3.2, 0.0, 17.5):
        assert get_kernel("gmd").h(x, x) == 0.0


def test_mmd_diagonal_at_origin():
    assert get_kernel("mmd-gauss").h(np.zeros(2), np.zeros(2)) == 0.0


def test_spatial_kendall_example():
    assert get_kernel("spatial-kendall").h(np.zeros(2), np.ones(2)) == 0.5


def test_spatial_kendall_coincident_points():
    assert get_kernel("spatial-kendall").h(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_exact_symmetry(kernel_id):
    rng = np.random.default_rng(101)
    k = get_kernel(kernel_id)
    for _ in range(1000):
        a = _random_point(kernel_id, rng)
        b = _random_point(kernel_id, rng)
        assert k.h(a, b) == k.h(b, a)


def test_mmd_diagonal_bounded():
    rng = np.random.default_rng(5)
    for _ in range(500):
        z = rng.standard_normal(2) * 3.0
        h = get_kernel("mmd-gauss").h(z, z)
        assert 0.0 <= h <= 2.0


def test_spatial_kendall_bounded():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        assert abs(get_kernel("spatial-kendall").h(a, b)) <= 0.5


def test_variant_mismatch():
    # a point of the other variant is refused where it enters, at the push
    with pytest.raises(ValueError, match="'variance' needs scalar points"):
        UStatAccumulator("variance").push(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="'spatial-kendall' needs 2-vector points"):
        UStatAccumulator("spatial-kendall").push(1.0)
    with pytest.raises(KeyError):
        get_kernel("energy")


def test_cross_matches_pair():
    rng = np.random.default_rng(77)
    for kernel_id in KERNEL_IDS:
        k = get_kernel(kernel_id)
        pts = rng.standard_normal(20) if k.point_dim == 1 else rng.standard_normal((20, 2))
        x = _random_point(kernel_id, rng)
        pts[[3, 11]] = x  # duplicates of x hit the zero-distance guard
        pts[7] = pts[5]
        vec = k.cross(np.asarray(pts, dtype=float), x)
        for j in range(20):
            assert vec[j] == k.h(pts[j], x)
        assert k.h(x, x) == vec[3]


def test_pairwise_matches_pair():
    rng = np.random.default_rng(78)
    for kernel_id in KERNEL_IDS:
        k = get_kernel(kernel_id)
        pts = rng.standard_normal(12) if k.point_dim == 1 else rng.standard_normal((12, 2))
        pts[[4, 9]] = pts[1]
        mat = k.pairwise(pts)
        assert np.array_equal(mat, mat.T)
        for i in range(12):
            for j in range(12):
                assert mat[i, j] == k.h(pts[i], pts[j])


# ---------------------------------------------------------------------------
# closed-form targets
# ---------------------------------------------------------------------------


def test_theta_gmd_gaussian():
    assert true_theta("gmd", DistParams()) == pytest.approx(1.1283791670955126, rel=1e-14)
    assert true_theta("gmd", DistParams(variance=4.0)) == pytest.approx(
        2.0 * math.sqrt(4.0 / math.pi), rel=1e-14
    )


def test_theta_spatial_kendall():
    assert true_theta("spatial-kendall", DistParams(family="elliptical", rho=0.6)) == (
        pytest.approx(1.0 / 6.0, rel=1e-12)
    )
    assert true_theta("spatial-kendall", DistParams(family="elliptical", rho=0.0)) == 0.0


def test_theta_mmd_null_any_family():
    for fam in ("gaussian", "t10", "laplace"):
        assert true_theta("mmd-gauss", DistParams(family=fam, shift=0.0)) == 0.0


def test_theta_absent_combinations():
    assert true_theta("gmd", DistParams(family="t10")) is None
    assert true_theta("spatial-kendall", DistParams(family="gaussian")) is None
    assert true_theta("mmd-gauss", DistParams(family="laplace", shift=0.3)) is None


def test_sigma2_closed_forms():
    assert true_sigma2("variance", DistParams()) == pytest.approx(0.5, rel=1e-14)
    assert true_sigma2("gmd", DistParams()) == pytest.approx(0.162751579441754746, rel=1e-14)
    assert true_sigma2("mmd-gauss", DistParams(shift=0.0)) == 0.0
    assert true_sigma2("spatial-kendall", DistParams(family="elliptical")) is None
    assert true_sigma2("gmd", DistParams(family="laplace")) is None


# ---------------------------------------------------------------------------
# Monte Carlo consistency of the closed forms
# ---------------------------------------------------------------------------


def _mc_check(theta, values):
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    assert abs(mean - theta) <= 4.0 * max(se, 1e-12), (mean, theta, se)


def test_mc_variance_gaussian():
    rng = np.random.default_rng(2001)
    a, b = rng.standard_normal(100_000), rng.standard_normal(100_000)
    _mc_check(true_theta("variance", DistParams()), 0.5 * (a - b) ** 2)


def test_mc_gmd_gaussian():
    rng = np.random.default_rng(2002)
    a, b = rng.standard_normal(100_000), rng.standard_normal(100_000)
    _mc_check(true_theta("gmd", DistParams()), np.abs(a - b))


def test_mc_gmd_laplace():
    rng = np.random.default_rng(2003)
    a = rng.laplace(0.0, math.sqrt(0.5), 100_000)
    b = rng.laplace(0.0, math.sqrt(0.5), 100_000)
    _mc_check(true_theta("gmd", DistParams(family="laplace")), np.abs(a - b))


def test_mc_spatial_kendall_elliptical():
    rng = np.random.default_rng(2004)
    d = DistParams(family="elliptical", rho=0.6)
    a = sample(d, rng, 100_000)
    b = sample(d, rng, 100_000)
    diff = a - b
    num = diff[:, 0] * diff[:, 1]
    den = diff[:, 0] ** 2 + diff[:, 1] ** 2
    _mc_check(true_theta("spatial-kendall", d), num / den)


def test_mc_mmd_gaussian_shifted():
    rng = np.random.default_rng(2005)
    d = DistParams(shift=0.7)
    za = sample_paired_mmd(d, rng, 100_000)
    zb = sample_paired_mmd(d, rng, 100_000)

    def k(u, w):
        return np.exp(-0.5 * (u - w) ** 2)

    h = (k(za[:, 0], zb[:, 0]) + k(za[:, 1], zb[:, 1])) - (
        k(za[:, 0], zb[:, 1]) + k(za[:, 1], zb[:, 0])
    )
    _mc_check(true_theta("mmd-gauss", d), h)
