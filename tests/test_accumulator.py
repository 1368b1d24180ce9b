import math

import numpy as np
import pytest

from ustatcs.accumulator import UStatAccumulator, batch_ustat
from ustatcs.kernels import KERNEL_IDS, DistParams, get_kernel, true_sigma2, true_theta
from ustatcs.simharness import sample_stream


def _random_stream(kernel_id, n, rng):
    dim = get_kernel(kernel_id).point_dim
    return rng.standard_normal(n) if dim == 1 else rng.standard_normal((n, 2))


def test_three_point_variance_example():
    acc = UStatAccumulator("variance")
    for x in (0.0, 1.0, 2.0):
        acc.push(x)
    assert acc.pair_sum == pytest.approx(3.0, rel=1e-15)
    assert acc.ustat() == pytest.approx(1.0, rel=1e-15)
    # leave-one-out means are (1.25, 0.5, 1.25)
    assert acc.jackknife_sigma2() == pytest.approx(0.125, rel=1e-14)


def test_constant_stream_gmd():
    acc = UStatAccumulator("gmd")
    for _ in range(10):
        acc.push(3.7)
    assert acc.pair_sum == 0.0
    assert np.all(acc.row_sums == 0.0)
    assert acc.ustat() == 0.0
    assert acc.jackknife_sigma2() == 0.0


def test_undefined_below_two_points():
    acc = UStatAccumulator("variance")
    with pytest.raises(ValueError):
        acc.ustat()
    acc.push(1.0)
    with pytest.raises(ValueError):
        acc.jackknife_sigma2()


@pytest.mark.parametrize(
    "kernel_id, bad",
    [("gmd", math.nan), ("gmd", math.inf), ("mmd-gauss", [0.0, -math.inf]),
     ("mmd-gauss", [math.nan, 1.0]),
     ("variance", 1e200), ("gmd", 1.7e308)],  # finite, but a kernel sum overflows
)
@pytest.mark.parametrize("n_good", [2, 256])  # 256 fills the initial capacity
@pytest.mark.filterwarnings("ignore:overflow")
def test_push_rejects_non_finite(kernel_id, bad, n_good):
    acc = UStatAccumulator(kernel_id, keep_pairwise=True)
    dim = get_kernel(kernel_id).point_dim
    acc.extend(np.random.default_rng(30).uniform(0.0, 1.0, n_good if dim == 1 else (n_good, 2)))
    before = (acc.n, acc.pair_sum, acc.diag_sum, acc.row_sums.copy())
    cap = acc._H.shape
    with pytest.raises(ValueError, match="non-finite"):
        acc.push(bad)
    assert (acc.n, acc.pair_sum, acc.diag_sum) == before[:3]
    np.testing.assert_array_equal(acc.row_sums, before[3])
    assert acc._H.shape == cap  # rejected before the buffers grow


def test_variant_mismatch_rejected():
    acc = UStatAccumulator("mmd-gauss")
    with pytest.raises(ValueError):
        acc.push(1.0)


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_incremental_matches_batch(kernel_id):
    rng = np.random.default_rng(hash(kernel_id) % 2**32)
    for trial in range(5):
        n = int(rng.integers(10, 200))
        pts = _random_stream(kernel_id, n, rng)
        acc = UStatAccumulator(kernel_id)
        acc.extend(pts)
        ps, rs, ds = batch_ustat(pts, kernel_id)
        assert acc.pair_sum == pytest.approx(ps, rel=1e-10)
        assert acc.diag_sum == pytest.approx(ds, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(acc.row_sums, rs, rtol=1e-10, atol=1e-12)


def test_row_sum_pair_sum_identity():
    rng = np.random.default_rng(31)
    acc = UStatAccumulator("gmd")
    acc.extend(rng.standard_normal(300))
    total = float(np.sum(acc.row_sums))
    assert 2.0 * acc.pair_sum == pytest.approx(total, rel=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(32)
    pts = rng.standard_normal(150)
    base = UStatAccumulator("variance")
    base.extend(pts)
    for _ in range(3):
        perm = rng.permutation(150)
        other = UStatAccumulator("variance")
        other.extend(pts[perm])
        assert other.ustat() == pytest.approx(base.ustat(), rel=1e-12)
        assert other.jackknife_sigma2() == pytest.approx(
            base.jackknife_sigma2(), rel=1e-12
        )


def test_sigma2_nonnegative_near_constant():
    # values so close that the uncentered formula could round negative
    acc = UStatAccumulator("variance")
    for k in range(50):
        acc.push(1.0 + 1e-15 * (k % 3))
    assert acc.jackknife_sigma2() >= 0.0


@pytest.mark.parametrize("kernel_id", ["gmd", "variance"])
def test_long_horizon_drift_matches_batch(kernel_id):
    # compensated sums are the only update path.  Both kernels are
    # nonnegative, so a Kahan sum stays within 2u (u = eps/2) of the exact sum
    # of its terms at any n and any magnitude, while a plain running sum
    # drifts like sqrt(n) u: with the compensation removed, the U(0,1) stream
    # is off by 2e-15 to 6e-15 (pair sum) and 8e-15 to 1e-14 (oldest row
    # sums), relative; with it, 0.  The second stream, offset by 1e6 with
    # magnitudes 10^(+-8), checks the same bounds and the batch oracle where
    # cancellation is worst
    n = 16384
    rng = np.random.default_rng(33)
    offset = 1e6 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    streams = (np.random.default_rng(33).uniform(0.0, 1.0, n), offset)
    k = get_kernel(kernel_id)
    tol = 2.0 * np.finfo(float).eps  # 4u: twice the Kahan bound
    for pts in streams:
        acc = UStatAccumulator(kernel_id)
        acc.extend(pts)
        # exact sums of the very terms the accumulator added
        pushed = [float(np.sum(k.cross(pts[:j], float(pts[j])))) for j in range(1, n)]
        assert abs(acc.pair_sum - math.fsum(pushed)) <= tol * acc.pair_sum
        for i in range(64):  # the oldest rows carry the longest running sums
            exact = math.fsum(np.delete(k.cross(pts, float(pts[i])), i))
            assert abs(acc.row_sums[i] - exact) <= tol * exact
        ps, rs, ds = batch_ustat(pts, kernel_id)
        assert acc.pair_sum == pytest.approx(ps, rel=1e-12)
        assert np.max(np.abs(acc.row_sums - rs)) <= 1e-12 * np.max(np.abs(rs))
        assert acc.diag_sum == pytest.approx(ds, rel=1e-12)
        q = rs / (n - 1) - 2.0 * ps / (n * (n - 1))
        assert acc.jackknife_sigma2() == pytest.approx(float(np.mean(q * q)), rel=1e-12)


def test_pairwise_matrix_cached_equals_fresh():
    rng = np.random.default_rng(34)
    pts = rng.standard_normal((60, 2))
    kept = UStatAccumulator("mmd-gauss", keep_pairwise=True)
    kept.extend(pts)
    fresh = get_kernel("mmd-gauss").pairwise(pts)
    np.testing.assert_array_equal(kept.pairwise_matrix(), fresh)
    np.testing.assert_array_equal(kept.pairwise_matrix(25), fresh[:25, :25])


def test_gmd_ustat_hits_gaussian_target():
    rng = np.random.default_rng(35)
    acc = UStatAccumulator("gmd")
    acc.extend(rng.standard_normal(200))
    theta = true_theta("gmd", DistParams())
    # asymptotic standard error 2*sigma/sqrt(n)
    se = 2.0 * math.sqrt(true_sigma2("gmd", DistParams()) / 200)
    assert abs(acc.ustat() - theta) <= 4.0 * se


def test_jackknife_matches_closed_form_at_5000():
    rng = np.random.default_rng(36)
    acc = UStatAccumulator("gmd")
    acc.extend(rng.standard_normal(5000))
    assert abs(acc.jackknife_sigma2() - true_sigma2("gmd", DistParams())) <= 0.02


def test_jackknife_strong_consistency_path():
    # one fixed stream: error shrinks along n (full-scale version is AC-6)
    rng = np.random.default_rng(37)
    xs = sample_stream("gmd", DistParams(), 2000, rng)
    acc = UStatAccumulator("gmd")
    sigma2 = true_sigma2("gmd", DistParams())
    errs = {}
    for i, x in enumerate(xs):
        acc.push(x)
        if i + 1 in (200, 2000):
            errs[i + 1] = abs(acc.jackknife_sigma2() - sigma2)
    assert errs[2000] < errs[200]
    assert errs[2000] <= 0.05
