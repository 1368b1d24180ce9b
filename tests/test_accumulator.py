import math

import numpy as np
import pytest
from gram import pairwise_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatcs.accumulator import UStatAccumulator, batch_ustat
from ustatcs.kernels import KERNEL_IDS, DistParams, get_kernel, true_sigma2, true_theta
from ustatcs.simharness import sample_stream


def _random_stream(kernel_id, n, rng):
    dim = get_kernel(kernel_id).point_dim
    return rng.standard_normal(n) if dim == 1 else rng.standard_normal((n, 2))


def _sigma2_oracle(row_sums):
    """The jackknife sigma^2 by the centered batch formula
    mean_i (r_i/(n-1) - U_n)^2, with both sums taken by fsum."""
    r = np.asarray(row_sums, dtype=float)
    n = len(r)
    q = r / (n - 1) - math.fsum(r) / (n * (n - 1))
    return math.fsum(q * q) / n


def _checkpoints(n_max, start=400, ratio=1.05):
    """A geometric grid of stream lengths from ``start``, plus ``n_max``."""
    grid = {n_max}
    x = float(start)
    while x < n_max:
        grid.add(int(x))
        x *= ratio
    return grid


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


_SIGMA2_STREAMS = {
    "gmd-normal": ("gmd", lambda rng: rng.standard_normal(16384)),
    "gmd-offset": ("gmd", lambda rng: 1e6 + 10.0 ** rng.uniform(-8.0, 8.0, 16384)),
    "variance-normal": ("variance", lambda rng: rng.standard_normal(16384)),
    "variance-t3": ("variance", lambda rng: rng.standard_t(3, 16384)),
    "spatial-kendall": ("spatial-kendall", lambda rng: sample_stream(
        "spatial-kendall", DistParams(family="elliptical", rho=0.6), 4000, rng)),
}


@pytest.mark.parametrize("stream", sorted(_SIGMA2_STREAMS))
def test_sigma2_matches_centered_oracle(stream):
    # sigma^2 is read in O(1) from a second moment carried through push;
    # the oracle recomputes it from the row sums at each checkpoint.  The
    # worst error over these streams is 6.2e-16 relative; with the second
    # moment summed without compensation it is 2.2e-15 to 5.1e-15 on the
    # four long streams, which the final bound catches
    kernel_id, draw = _SIGMA2_STREAMS[stream]
    pts = draw(np.random.default_rng(38))
    checkpoints = _checkpoints(len(pts))
    acc = UStatAccumulator(kernel_id)
    worst = 0.0
    for x in pts:
        acc.push(x)
        if acc.n in checkpoints:
            oracle = _sigma2_oracle(acc.row_sums)
            rel = abs(acc.jackknife_sigma2() - oracle) / oracle
            assert rel <= 1e-12, acc.n
            worst = max(worst, rel)
    assert worst <= 2e-15


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_sigma2_near_degenerate(offset):
    # variance kernel on offset +- 1: the first projection is constant, so
    # sigma^2 -> 0 while the second moment's rounding error stays at the
    # scale eps * U_n^2; no relative bound can hold, an absolute one must
    pts = offset + np.random.default_rng(39).choice([-1.0, 1.0], 16384)
    checkpoints = _checkpoints(len(pts))
    acc = UStatAccumulator("variance")
    for x in pts:
        acc.push(x)
        if acc.n < 2:
            continue
        sigma2 = acc.jackknife_sigma2()
        assert sigma2 >= 0.0, acc.n
        if acc.n in checkpoints:
            err = abs(sigma2 - _sigma2_oracle(acc.row_sums))
            assert err <= 1e-12 * acc.ustat() ** 2, acc.n


def test_pairwise_matrix_cached_equals_fresh():
    rng = np.random.default_rng(34)
    pts = rng.standard_normal((60, 2))
    kept = UStatAccumulator("mmd-gauss", keep_pairwise=True)
    kept.extend(pts)
    fresh = get_kernel("mmd-gauss").pairwise(pts)
    np.testing.assert_array_equal(pairwise_matrix(kept), fresh)
    np.testing.assert_array_equal(pairwise_matrix(kept, 25), fresh[:25, :25])


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


# ---------------------------------------------------------------------------
# properties over generated streams
# ---------------------------------------------------------------------------


@st.composite
def _tied_stream(draw, kernel_id, min_size, max_size):
    """A stream whose coordinates come from a few values, so ties and whole
    duplicate points are common, mixed with some continuous draws."""
    n = draw(st.integers(min_size, max_size))
    pool = np.array(draw(st.lists(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
        min_size=1, max_size=6,
    )))
    fresh = draw(st.sampled_from([0.0, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = n if get_kernel(kernel_id).point_dim == 1 else (n, 2)
    tied = pool[rng.integers(len(pool), size=shape)]
    return np.where(rng.random(shape) < fresh, rng.standard_normal(shape), tied)


def _pairwise_scale(kernel_id, pts):
    # mean |h| over the pairs: the scale of the sums' rounding error
    return float(np.mean(np.abs(get_kernel(kernel_id).pairwise(pts))))


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kept_pairwise_equals_fresh_property(kernel_id, data):
    # 257..600 points cross the 256 -> 512 (and 512 -> 1024) buffer growth
    pts = data.draw(_tied_stream(kernel_id, 257, 600))
    acc = UStatAccumulator(kernel_id, keep_pairwise=True)
    acc.extend(pts)
    fresh = get_kernel(kernel_id).pairwise(pts)
    np.testing.assert_array_equal(pairwise_matrix(acc), fresh)
    m = data.draw(st.integers(1, len(pts)))
    np.testing.assert_array_equal(pairwise_matrix(acc, m), fresh[:m, :m])


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ustat_permutation_invariant_property(kernel_id, data):
    pts = data.draw(_tied_stream(kernel_id, 2, 300))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(pts))
    a = UStatAccumulator(kernel_id)
    a.extend(pts)
    b = UStatAccumulator(kernel_id)
    b.extend(pts[perm])
    assert abs(a.ustat() - b.ustat()) <= 1e-12 * _pairwise_scale(kernel_id, pts)


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_incremental_matches_batch_property(kernel_id, data):
    # up to 600 points, across two buffer growths (256 -> 512 -> 1024)
    pts = data.draw(_tied_stream(kernel_id, 2, 600))
    acc = UStatAccumulator(kernel_id)
    acc.extend(pts)
    ps, rs, ds = batch_ustat(pts, kernel_id)
    scale = _pairwise_scale(kernel_id, pts)
    n = len(pts)
    assert abs(acc.pair_sum - ps) <= 1e-12 * scale * n * n
    np.testing.assert_allclose(acc.row_sums, rs, rtol=0, atol=1e-12 * scale * n)
    assert abs(acc.diag_sum - ds) <= 1e-12 * (abs(ds) + scale) * n


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sigma2_matches_centered_oracle_property(kernel_id, data):
    # at every n: ties and duplicate points make sigma^2 exactly or nearly 0,
    # where the error floor is the kernel's squared scale, not sigma^2 itself
    pts = data.draw(_tied_stream(kernel_id, 2, 400))
    floor = _pairwise_scale(kernel_id, pts) ** 2
    acc = UStatAccumulator(kernel_id)
    acc.push(pts[0])
    for x in pts[1:]:
        acc.push(x)
        sigma2 = acc.jackknife_sigma2()
        oracle = _sigma2_oracle(acc.row_sums)
        assert sigma2 >= 0.0
        assert abs(sigma2 - oracle) <= 1e-12 * (oracle + floor), acc.n


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_push_rejects_non_finite_property(kernel_id, data):
    # 0..300 finite points (past the 256 -> 512 growth), then one point with
    # nan or +-inf in any coordinate: rejected, and no statistic moves
    pts = data.draw(_tied_stream(kernel_id, 0, 300))
    acc = UStatAccumulator(kernel_id, keep_pairwise=data.draw(st.booleans()))
    acc.extend(pts)
    dim = acc.kernel.point_dim
    point = [data.draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
    for i in data.draw(st.sets(st.integers(0, dim - 1), min_size=1)):
        point[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    bad = point[0] if dim == 1 else point
    sigma2 = acc.jackknife_sigma2() if acc.n >= 2 else None
    before = (acc.n, acc.pair_sum, acc.diag_sum, acc.row_sums.copy())
    with pytest.raises(ValueError, match="non-finite"):
        acc.push(bad)
    assert (acc.n, acc.pair_sum, acc.diag_sum) == before[:3]
    np.testing.assert_array_equal(acc.row_sums, before[3])
    if sigma2 is not None:
        assert acc.jackknife_sigma2() == sigma2
