import errno
import math
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest
from gram import fresh_pairwise, pairwise_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import true_sigma2

from ustatcs import accumulator
from ustatcs.accumulator import UStatAccumulator, batch_ustat
from ustatcs.boundaries import BoundaryParams
from ustatcs.kernels import KERNEL_IDS, DistParams, get_kernel, true_theta
from ustatcs.sequences import degenerate_cs
from ustatcs.simharness import sample_paired_mmd, sample_stream
from ustatcs.spectral import SpectrumMonitor


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
    # at n_good = 256 the refused point's pending row grows the point buffer
    acc = UStatAccumulator(kernel_id)
    dim = get_kernel(kernel_id).point_dim
    for x in np.random.default_rng(30).uniform(0.0, 1.0, n_good if dim == 1 else (n_good, 2)):
        acc.push(x)
    acc.pairwise_lower()  # the store now holds, and follows, every row
    before = (acc.n, acc.pair_sum, acc.diag_sum, acc.row_sums.copy())
    cap = acc._H.shape
    points, store = _bits(acc.points), _store_bits(acc)
    with pytest.raises(ValueError, match="non-finite"):
        acc.push(bad)
    assert (acc.n, acc.pair_sum, acc.diag_sum) == before[:3]
    np.testing.assert_array_equal(acc.row_sums, before[3])
    assert acc._H.shape == cap  # rejected before the store grows
    assert (_bits(acc.points), _store_bits(acc)) == (points, store)


def test_variant_mismatch_rejected():
    acc = UStatAccumulator("mmd-gauss")
    with pytest.raises(ValueError):
        acc.push(1.0)


@pytest.mark.parametrize("kernel_id", ["variance", "gmd"])
@pytest.mark.parametrize(
    "bad", [np.array([1.0, 2.0]), np.array([1.0]), (1.0, 2.0), None],
    ids=["2-vector", "1-vector", "tuple", "None"],
)
def test_scalar_kernel_refuses_non_scalar_point(kernel_id, bad):
    # a ValueError that names the kernel, as for a 2-D kernel's wrong shape,
    # so the CLI reports it as a bad row; nothing moves
    acc = UStatAccumulator(kernel_id)
    for x in (0.5, 1.5, 4.0):
        acc.push(x)
    before = (acc.n, acc.pair_sum, acc.diag_sum, _bits(acc.points))
    with pytest.raises(ValueError, match=f"kernel '{kernel_id}' needs scalar points"):
        acc.push(bad)
    assert (acc.n, acc.pair_sum, acc.diag_sum, _bits(acc.points)) == before


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_incremental_matches_batch(kernel_id):
    rng = np.random.default_rng(hash(kernel_id) % 2**32)
    for trial in range(5):
        n = int(rng.integers(10, 200))
        pts = _random_stream(kernel_id, n, rng)
        acc = UStatAccumulator(kernel_id)
        for x in pts:
            acc.push(x)
        ps, rs, ds = batch_ustat(pts, kernel_id)
        assert acc.pair_sum == pytest.approx(ps, rel=1e-10)
        assert acc.diag_sum == pytest.approx(ds, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(acc.row_sums, rs, rtol=1e-10, atol=1e-12)


def test_row_sum_pair_sum_identity():
    rng = np.random.default_rng(31)
    acc = UStatAccumulator("gmd")
    for x in rng.standard_normal(300):
        acc.push(x)
    total = float(np.sum(acc.row_sums))
    assert 2.0 * acc.pair_sum == pytest.approx(total, rel=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(32)
    pts = rng.standard_normal(150)
    base = UStatAccumulator("variance")
    for x in pts:
        base.push(x)
    for _ in range(3):
        perm = rng.permutation(150)
        other = UStatAccumulator("variance")
        for x in pts[perm]:
            other.push(x)
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
        for x in pts:
            acc.push(x)
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
    # a leading-block read, then a full read, then the same reads from the filled store
    rng = np.random.default_rng(34)
    pts = rng.standard_normal((60, 2))
    kept = UStatAccumulator("mmd-gauss")
    for x in pts:
        kept.push(x)
    fresh = fresh_pairwise(get_kernel("mmd-gauss"), pts)
    np.testing.assert_array_equal(pairwise_matrix(kept, 25), fresh[:25, :25])
    np.testing.assert_array_equal(pairwise_matrix(kept), fresh)
    np.testing.assert_array_equal(pairwise_matrix(kept), fresh)
    np.testing.assert_array_equal(pairwise_matrix(kept, 25), fresh[:25, :25])


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_refused_store_growth_changes_nothing(kernel_id, monkeypatch):
    # a 512-row store fits in the patched 2 MiB; its growth to 1024 rows does not
    monkeypatch.setattr(accumulator, "_PHYSICAL_MEMORY", 512 * 512 * 8)
    rng = np.random.default_rng(38)
    pts = _random_stream(kernel_id, 513, rng)
    lazy = UStatAccumulator(kernel_id)
    for x in pts:
        lazy.push(x)
    with pytest.raises(MemoryError, match="physical memory"):
        lazy.pairwise_lower()
    assert lazy._H.size == 0  # refused before allocating
    acc = UStatAccumulator(kernel_id)
    for x in pts[:512]:
        acc.push(x)
    acc.pairwise_lower()
    before = (acc.n, acc.pair_sum, acc.diag_sum, acc.jackknife_sigma2(), acc._H.shape)
    rows = acc.row_sums.copy()
    with pytest.raises(MemoryError, match="physical memory"):
        acc.push(pts[512])
    assert (acc.n, acc.pair_sum, acc.diag_sum, acc.jackknife_sigma2(), acc._H.shape) == before
    np.testing.assert_array_equal(acc.row_sums, rows)


def test_refused_mapping_is_a_memory_error(monkeypatch):
    # the kernel may refuse a mapping that physical memory would hold
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    acc = UStatAccumulator("mmd-gauss")
    for x in _random_stream("mmd-gauss", 300, np.random.default_rng(42)):
        acc.push(x)
    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(MemoryError, match="cannot map a 512 x 512 Gram store"):
        acc.pairwise_lower()
    assert acc._H.size == 0 and acc.n == 300


@pytest.mark.filterwarnings("ignore:no positive eigenvalue")
def test_subsampled_monitor_stores_leading_block_only():
    # from n = 2 on, where N = ceil(n^0.67) still equals n at n = 2 and 3;
    # a store kept for every row would reach 8192 rows at n = 5000
    pts = sample_paired_mmd(DistParams(), np.random.default_rng(39), 5000)
    acc = UStatAccumulator("mmd-gauss")
    monitor = SpectrumMonitor(subsample_exponent=0.67)
    for x in pts:
        acc.push(x)
        if acc.n >= 2:
            est = monitor.update(acc)
    assert est.n_points > 256 and len(acc._H) == 512
    np.testing.assert_array_equal(
        pairwise_matrix(acc, est.n_points), fresh_pairwise(acc.kernel, pts[: est.n_points])
    )


def _bits(value):
    """The bytes of a float or an array, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=float).tobytes()


def _store_bits(acc):
    """The filled rows of the Gram store: their count and lower triangle."""
    m = acc._h_rows
    return m, _bits(np.tril(acc._H[:m, :m]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_unread_accumulator_refuses_m2_overflow():
    # the variance kernel of 2e77 against 0 is 2e154, whose square overflows
    # only the second moment; a push that skipped sigma^2 would accept it
    lazy = UStatAccumulator("variance")
    eager = UStatAccumulator("variance")
    for x in (0.0, 0.0):
        lazy.push(x)
        eager.push(x)
        eager.row_sums
    before = (lazy.n, lazy.pair_sum, lazy.diag_sum)
    with pytest.raises(ValueError, match="non-finite"):
        lazy.push(2e77)
    assert (lazy.n, lazy.pair_sum, lazy.diag_sum) == before
    lazy.push(1.0)
    eager.push(1.0)
    assert _bits(lazy.jackknife_sigma2()) == _bits(eager.jackknife_sigma2())
    assert _bits(lazy.row_sums) == _bits(eager.row_sums)


# h up to about 1e145 (|x - y| <= 100 before scaling): sum(h^2) (k+1)^3
# passes 1e300 within a few hundred points, while M2 stays finite
_NEAR_M2_OVERFLOW = {"gmd": 1e143, "variance": 1e71}


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lazy_sigma2_equals_eager_property(kernel_id, data):
    # one accumulator reads sigma^2 and the row sums after every push, so it
    # carries them throughout; its twin reads at random points or only at the
    # end, and replays at its first read.  Both see the same block reads and
    # the same rejected non-finite pushes, across the 256 -> 512 growth.  On
    # the scaled gmd and variance streams the overflow bound fails part way,
    # so the twin starts carrying at a push instead of at a read
    scale = data.draw(st.sampled_from([1.0, _NEAR_M2_OVERFLOW.get(kernel_id, 1.0)]))
    pts = data.draw(_tied_stream(kernel_id, 257, 600)) * scale
    n_max = len(pts)
    reads = data.draw(st.sets(st.integers(1, n_max), max_size=4))
    blocks = data.draw(st.sets(st.integers(1, n_max), max_size=3))
    rejects = data.draw(st.sets(st.integers(0, n_max), max_size=3))
    bad = math.nan if get_kernel(kernel_id).point_dim == 1 else [1.0, math.inf]
    eager = UStatAccumulator(kernel_id)
    lazy = UStatAccumulator(kernel_id)

    def read(acc):
        sigma2 = acc.jackknife_sigma2() if acc.n >= 2 else None
        return _bits(acc.row_sums), sigma2 if sigma2 is None else _bits(sigma2)

    for n in range(n_max + 1):
        if n:
            eager.push(pts[n - 1])
            lazy.push(pts[n - 1])
        if n in rejects:
            for acc in (eager, lazy):
                with pytest.raises(ValueError, match="non-finite"):
                    acc.push(bad)
        if n in blocks:
            m = data.draw(st.integers(0, n))
            assert _bits(np.tril(eager.pairwise_lower(m))) == _bits(np.tril(lazy.pairwise_lower(m)))
        current = read(eager)
        if n in reads:
            assert read(lazy) == current, n
    assert read(lazy) == read(eager)
    assert (lazy.n, lazy.pair_sum, lazy.diag_sum) == (eager.n, eager.pair_sum, eager.diag_sum)


@pytest.mark.filterwarnings("ignore:no positive eigenvalue")
def test_degenerate_monitor_leaves_sigma2_uncarried():
    # the degenerate path reads the spectrum and U_n, never sigma^2, so its
    # pushes skip the row sums and their second moment
    pts = sample_paired_mmd(DistParams(), np.random.default_rng(40), 600)
    acc = UStatAccumulator("mmd-gauss")
    monitor = SpectrumMonitor()
    p = BoundaryParams(alpha=0.05, m=100, kind="lil")
    for x in pts:
        acc.push(x)
        if acc.n >= 100:
            assert degenerate_cs(acc, p, monitor.update(acc)) is not None
    assert not acc._carries
    acc.jackknife_sigma2()
    assert acc._carries


def test_read_sizes_store_exactly_when_power_of_two_is_refused(monkeypatch):
    # 1 MiB holds 300^2 doubles but not the 512^2 a power of two would take;
    # a push that must then grow the followed store is still refused
    monkeypatch.setattr(accumulator, "_PHYSICAL_MEMORY", 1 << 20)
    pts = _random_stream("mmd-gauss", 301, np.random.default_rng(41))
    acc = UStatAccumulator("mmd-gauss")
    for x in pts[:300]:
        acc.push(x)
    np.testing.assert_array_equal(
        pairwise_matrix(acc), fresh_pairwise(acc.kernel, pts[:300]))
    assert acc._H.shape == (300, 300)
    with pytest.raises(MemoryError, match="physical memory"):
        acc.push(pts[300])
    assert acc.n == 300 and acc._H.shape == (300, 300)


def test_gmd_ustat_hits_gaussian_target():
    rng = np.random.default_rng(35)
    acc = UStatAccumulator("gmd")
    for x in rng.standard_normal(200):
        acc.push(x)
    theta = true_theta("gmd", DistParams())
    # asymptotic standard error 2*sigma/sqrt(n)
    se = 2.0 * math.sqrt(true_sigma2("gmd", DistParams()) / 200)
    assert abs(acc.ustat() - theta) <= 4.0 * se


def test_jackknife_matches_closed_form_at_5000():
    rng = np.random.default_rng(36)
    acc = UStatAccumulator("gmd")
    for x in rng.standard_normal(5000):
        acc.push(x)
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


class _FixedStream:
    """Stands in for ``st.data()`` in an ``@example``: a draw labelled with a
    kernel id returns ``coords`` as that kernel's points, (x, x) for 2-D."""

    def __init__(self, *coords):
        self.coords = np.array(coords)

    def draw(self, strategy, label):
        if get_kernel(label).point_dim == 1:
            return self.coords
        return np.column_stack([self.coords, self.coords])


def _pairwise_scale(kernel_id, pts):
    # mean |h| over the pairs: the scale of the sums' rounding error
    return float(np.mean(np.abs(fresh_pairwise(get_kernel(kernel_id), pts))))


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kept_pairwise_equals_fresh_property(kernel_id, data):
    # pushes interleaved with reads of leading blocks at random m <= n, then a
    # read of every row and more pushes; 257..600 points cross the 256 -> 512
    # growth, both in a fill and in a push that extends the store
    pts = data.draw(_tied_stream(kernel_id, 257, 600))
    fresh = fresh_pairwise(get_kernel(kernel_id), pts)
    acc = UStatAccumulator(kernel_id)
    never_read = UStatAccumulator(kernel_id)
    follow_at = data.draw(st.integers(1, len(pts)))
    reads = data.draw(st.sets(st.integers(1, follow_at), max_size=6))
    asked = 0
    for i, x in enumerate(pts):
        acc.push(x)
        never_read.push(x)
        n = i + 1
        if n in reads:
            m = data.draw(st.integers(0, n))
            tri = acc.pairwise_lower(m)
            np.testing.assert_array_equal(np.tril(tri), np.tril(fresh[:m, :m]))
            asked = max(asked, m)  # the store is sized by the largest block read
            assert len(acc._H) <= (max(256, 2 * asked - 1) if asked else 0)
        if n == follow_at:
            acc.pairwise_lower()
    np.testing.assert_array_equal(pairwise_matrix(acc), fresh)
    assert never_read._H.size == 0


def _estimate_bits(est):
    return (_bits(est.eigenvalues), _bits(est.weights), est.n_points,
            _bits([est.sum_pos, est.sum_pos_logw, est.sum_pos_ginv2]))


@pytest.mark.filterwarnings("ignore:no positive eigenvalue")
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cleared_equals_fresh_property(kernel_id, data):
    # stream A, with random block and sigma^2 reads, leaves a store of 512
    # rows or more; after clear() stream B must read as on a fresh
    # accumulator, whose store starts at 256 rows
    a = data.draw(_tied_stream(kernel_id, 257, 400))
    b = data.draw(_tied_stream(kernel_id, 2, 300))
    acc = UStatAccumulator(kernel_id)
    follow_at = data.draw(st.integers(1, len(a)))
    for n, x in enumerate(a, 1):
        acc.push(x)
        if n == follow_at:
            acc.pairwise_lower()
        if data.draw(st.integers(0, 50)) == 0:
            acc.pairwise_lower(data.draw(st.integers(0, n)))
        if n >= 2 and data.draw(st.integers(0, 50)) == 0:
            acc.jackknife_sigma2()
    assert len(acc._H) >= 512
    acc.clear()
    fresh = UStatAccumulator(kernel_id)
    spectra = [SpectrumMonitor(), SpectrumMonitor()] if kernel_id == "mmd-gauss" else None
    for n, x in enumerate(b, 1):
        acc.push(x)
        fresh.push(x)
        if spectra and n >= 20:
            assert _estimate_bits(spectra[0].update(acc)) == _estimate_bits(
                spectra[1].update(fresh)), n
        if data.draw(st.integers(0, 20)) == 0:
            m = data.draw(st.integers(0, n))
            assert _bits(np.tril(acc.pairwise_lower(m))) == _bits(np.tril(fresh.pairwise_lower(m)))
        if n >= 2 and data.draw(st.integers(0, 20)) == 0:
            assert _bits(acc.jackknife_sigma2()) == _bits(fresh.jackknife_sigma2())
    assert (acc.n, acc.pair_sum, acc.diag_sum) == (fresh.n, fresh.pair_sum, fresh.diag_sum)
    assert _bits(acc.row_sums) == _bits(fresh.row_sums)
    if acc.n >= 2:
        assert _bits(acc.jackknife_sigma2()) == _bits(fresh.jackknife_sigma2())


_RESIDENCY = """
import resource
import numpy as np
from ustatcs.accumulator import UStatAccumulator
pts = np.random.default_rng(0).standard_normal((4000, 2))
acc = UStatAccumulator("mmd-gauss")
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for x in pts:
    acc.push(x)
    if acc.n == 400:
        acc.pairwise_lower()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not os.path.isdir("/proc/self"),
                    reason="ru_maxrss counts KiB on Linux")
def test_store_keeps_only_its_lower_triangle_resident():
    # 4000 followed rows fill a 4096-row store; its lower triangle is half
    # of the buffer, and a huge page would make the unwritten upper part of
    # 64 rows resident with it
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", _RESIDENCY],
                          capture_output=True, text=True, check=True)
    grown = int(proc.stdout) * 1024
    assert grown < 0.75 * 4096 * 4096 * 8


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ustat_permutation_invariant_property(kernel_id, data):
    pts = data.draw(_tied_stream(kernel_id, 2, 300))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(pts))
    a = UStatAccumulator(kernel_id)
    for x in pts:
        a.push(x)
    b = UStatAccumulator(kernel_id)
    for x in pts[perm]:
        b.push(x)
    assert abs(a.ustat() - b.ustat()) <= 1e-12 * _pairwise_scale(kernel_id, pts)


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_incremental_matches_batch_property(kernel_id, data):
    # up to 600 points, across two buffer growths (256 -> 512 -> 1024)
    pts = data.draw(_tied_stream(kernel_id, 2, 600))
    acc = UStatAccumulator(kernel_id)
    for x in pts:
        acc.push(x)
    ps, rs, ds = batch_ustat(pts, kernel_id)
    scale = _pairwise_scale(kernel_id, pts)
    n = len(pts)
    assert abs(acc.pair_sum - ps) <= 1e-12 * scale * n * n
    np.testing.assert_allclose(acc.row_sums, rs, rtol=0, atol=1e-12 * scale * n)
    assert abs(acc.diag_sum - ds) <= 1e-12 * (abs(ds) + scale) * n


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
# variance at the 1e-80 scale: sigma^2 is subnormal, one ulp(0.0) from the oracle
@example(data=_FixedStream(0.0, 0.0, 2e-80, -1e-80))
@example(data=_FixedStream(2e-80, 2e-80, 0.0, 2e-80, 2e-80, 0.0, 1e-80))
def test_sigma2_matches_centered_oracle_property(kernel_id, data):
    # at every n: ties and duplicate points make sigma^2 exactly or nearly 0,
    # where the error floor is the kernel's squared scale, not sigma^2 itself;
    # in the subnormal range that relative bound underflows to 0, so a few
    # ulp(0.0) are allowed on top of it
    pts = data.draw(_tied_stream(kernel_id, 2, 400), label=kernel_id)
    floor = _pairwise_scale(kernel_id, pts) ** 2
    acc = UStatAccumulator(kernel_id)
    acc.push(pts[0])
    for x in pts[1:]:
        acc.push(x)
        sigma2 = acc.jackknife_sigma2()
        oracle = _sigma2_oracle(acc.row_sums)
        assert sigma2 >= 0.0
        assert abs(sigma2 - oracle) <= 1e-12 * (oracle + floor) + 4 * math.ulp(0.0), acc.n


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_push_rejects_non_finite_property(kernel_id, data):
    # 0..300 finite points (past the 256 -> 512 growth), then one point with
    # nan or +-inf in any coordinate: rejected, and no statistic moves
    pts = data.draw(_tied_stream(kernel_id, 0, 300))
    acc = UStatAccumulator(kernel_id)
    for x in pts:
        acc.push(x)
    if data.draw(st.booleans()):
        acc.pairwise_lower()  # the store now follows: the rejected push must not extend it
    dim = acc.kernel.point_dim
    point = [data.draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
    for i in data.draw(st.sets(st.integers(0, dim - 1), min_size=1)):
        point[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    bad = point[0] if dim == 1 else point
    sigma2 = acc.jackknife_sigma2() if acc.n >= 2 else None
    before = (acc.n, acc.pair_sum, acc.diag_sum, acc.row_sums.copy())
    points, store = _bits(acc.points), _store_bits(acc)
    with pytest.raises(ValueError, match="non-finite"):
        acc.push(bad)
    assert (acc.n, acc.pair_sum, acc.diag_sum) == before[:3]
    np.testing.assert_array_equal(acc.row_sums, before[3])
    assert (_bits(acc.points), _store_bits(acc)) == (points, store)
    if sigma2 is not None:
        assert acc.jackknife_sigma2() == sigma2


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_diagonal_and_layout_property(kernel_id, data):
    # each push reads h(x, x) from the last entry of its one cross row, over
    # a point buffer that is column-major for 2-D kernels; 257..600 points
    # cross the 256 -> 512 growth.  An early full read makes the pushes
    # append their rows to the store; without it the final read fills it.
    # An early sigma^2 read makes them update the row sums, which overwrites
    # the row in place once the store has its copy
    pts = data.draw(_tied_stream(kernel_id, 257, 600))
    k = get_kernel(kernel_id)
    follow_at = data.draw(st.one_of(st.none(), st.integers(0, len(pts))))
    carry_at = data.draw(st.one_of(st.none(), st.integers(2, len(pts))))
    acc = UStatAccumulator(kernel_id)
    diag = [k.h(x, x) for x in pts]
    total = (0.0, 0.0)
    for i, x in enumerate(pts):
        if i == follow_at:
            acc.pairwise_lower()
        if i == carry_at:
            acc.jackknife_sigma2()
        acc.push(x)
        total = accumulator._kahan_add(*total, diag[i])
        assert _bits(acc.diag_sum) == _bits(total[0]), i
    assert _bits(acc.points) == _bits(pts) and acc._pts.flags.f_contiguous
    tri = np.tril(acc.pairwise_lower())
    assert _bits(np.diagonal(tri)) == _bits(diag)
    # + 0.0 maps -0.0 to 0.0: spatial-kendall's h(a, b) and h(b, a) differ in
    # the sign of a zero, and a pushed row holds h(X_j, X_k), not h(X_k, X_j)
    fresh = np.tril(fresh_pairwise(k, np.ascontiguousarray(acc.points)))
    assert _bits(tri + 0.0) == _bits(fresh + 0.0)
