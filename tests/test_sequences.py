import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatcs import sequences
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams, normal_mixture_tail_inv
from ustatcs.kernels import get_kernel
from ustatcs.sequences import (
    ChiSquareTable,
    CsRecord,
    Monitor,
    chi_square_mixture_quantile,
    classical_ci,
    csv_header,
    degenerate_cs,
    nondegenerate_cs,
    _linear_quantile,
)
from ustatcs.spectral import WeightScheme, spectrum_from_eigenvalues

Z_975 = 1.959963984540054  # standard normal 97.5% quantile


def _gaussian_acc(n, seed=0, kernel="gmd"):
    rng = np.random.default_rng(seed)
    acc = UStatAccumulator(kernel)
    for x in rng.standard_normal(n):
        acc.push(x)
    return acc


# ---------------------------------------------------------------------------
# nondegenerate path
# ---------------------------------------------------------------------------


def test_constant_data_point_interval():
    acc = UStatAccumulator("gmd")
    for _ in range(30):
        acc.push(1.5)
    rec = nondegenerate_cs(acc, BoundaryParams(alpha=0.05, m=10, kind="gm"))
    assert rec.lo == rec.center == rec.hi == 0.0
    assert rec.sigma_hat == 0.0


def test_cold_start_returns_none():
    acc = _gaussian_acc(50)
    assert nondegenerate_cs(acc, BoundaryParams(alpha=0.05, m=100, kind="gm")) is None


def test_halfwidth_at_cold_start_gm():
    acc = _gaussian_acc(200, seed=3)
    p = BoundaryParams(alpha=0.05, m=200, kind="gm")
    rec = nondegenerate_cs(acc, p)
    sig = math.sqrt(acc.jackknife_sigma2())
    expected = 2.0 * sig * normal_mixture_tail_inv(0.05) / math.sqrt(200)
    assert rec.hi - rec.center == pytest.approx(expected, rel=1e-12)
    assert rec.method == "AsympCS-GM"
    assert rec.lo <= rec.center <= rec.hi


def test_classical_ci_quantile():
    acc = _gaussian_acc(500, seed=4)
    rec = classical_ci(acc, 0.05)
    sig = math.sqrt(acc.jackknife_sigma2())
    assert rec.hi - rec.center == pytest.approx(
        2.0 * sig * Z_975 / math.sqrt(500), rel=1e-12
    )
    assert rec.method == "Classical-CI"


def test_classical_ci_constant_data():
    acc = UStatAccumulator("variance")
    for _ in range(20):
        acc.push(2.0)
    rec = classical_ci(acc, 0.05)
    assert rec.lo == rec.hi == rec.center == 0.0


def test_width_ratio_classical_over_gm_below_one():
    # at n=m the ratio is z_{1-alpha/2} / ginv(alpha) < 1
    acc = _gaussian_acc(300, seed=5)
    p = BoundaryParams(alpha=0.05, m=300, kind="gm")
    cs = nondegenerate_cs(acc, p)
    ci = classical_ci(acc, 0.05)
    ratio = (ci.hi - ci.center) / (cs.hi - cs.center)
    assert ratio == pytest.approx(Z_975 / normal_mixture_tail_inv(0.05), rel=1e-12)
    assert ratio < 1.0


def test_halfwidth_scaling_slopes():
    # with sigma held fixed, half-widths decay like sqrt(slowly-varying/n):
    # log-log slopes sit just above -1/2, the LIL one closer to it
    ns = np.geomspace(1e3, 1e6, 40)

    def slope(kind):
        p = BoundaryParams(alpha=0.05, m=1000, kind=kind)
        from ustatcs.boundaries import gaussian_boundary

        hw = [2.0 * 0.4 * gaussian_boundary(int(n), p) for n in ns]
        return float(np.polyfit(np.log(ns), np.log(hw), 1)[0])

    s_gm = slope("gm")
    s_lil = slope("lil")
    assert -0.50 < s_lil < -0.44
    assert -0.49 < s_gm < -0.40
    assert s_lil < s_gm


@pytest.mark.parametrize("kernel_id", ["gmd", "variance", "spatial-kendall"])
def test_two_sided_records_are_center_minus_plus_twice_sigma_boundary(kernel_id):
    # lo/hi = center -/+ 2.0 * sigma_hat * boundary_value, bit for bit, for every
    # two-sided method: the records' one formula, which run_coverage uses too
    rng = np.random.default_rng(17)
    pts = rng.standard_normal(600 if kernel_id != "spatial-kendall" else (600, 2))
    params = [BoundaryParams(alpha=0.05, m=30, kind=kind) for kind in ("lil", "gm")]
    mon = Monitor(UStatAccumulator(kernel_id), 30, params)
    seen = set()
    for x in pts:
        records = mon.push(x)
        for rec in records + ([classical_ci(mon.acc, 0.05)] if records else []):
            seen.add(rec.method)
            half = 2.0 * rec.sigma_hat * rec.boundary_value
            assert (rec.lo, rec.hi) == (rec.center - half, rec.center + half), rec
    assert seen == {"AsympCS-LIL", "AsympCS-GM", "Classical-CI"}


@st.composite
def _wide_tied_stream(draw, dim):
    """A stream whose coordinates come from a few values of magnitude
    10^-8..10^8, so ties, whole duplicate points and cancellation are
    common, mixed with some continuous draws of the same spread."""
    n = draw(st.integers(2, 150))
    exponents = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice([-1.0, 1.0], len(exponents)) * 10.0**exponents
    shape = n if dim == 1 else (n, 2)
    tied = pool[rng.integers(len(pool), size=shape)]
    fresh = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    return np.where(rng.random(shape) < draw(st.sampled_from([0.0, 0.3])), fresh, tied)


@pytest.mark.parametrize("kernel_id", ["variance", "gmd", "spatial-kendall"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_interval_brackets_center_property(kernel_id, data):
    # every two-sided record, at every n >= m, is an interval around U_n: a
    # nan or negative half-width would break lo <= center <= hi
    pts = data.draw(_wide_tied_stream(get_kernel(kernel_id).point_dim))
    m = data.draw(st.integers(2, len(pts)))
    alpha = data.draw(st.sampled_from([0.01, 0.05, 0.3]))
    params = [BoundaryParams(alpha=alpha, m=m, kind=kind) for kind in ("lil", "gm")]
    acc = UStatAccumulator(kernel_id)
    for x in pts:
        acc.push(x)
        if acc.n < m:
            continue
        for rec in [nondegenerate_cs(acc, p) for p in params] + [classical_ci(acc, alpha)]:
            assert rec.lo <= rec.center <= rec.hi, rec


# ---------------------------------------------------------------------------
# degenerate path
# ---------------------------------------------------------------------------


def test_degenerate_record_shape():
    est = spectrum_from_eigenvalues([0.5, 0.2], WeightScheme("data"), alpha=0.05)
    acc = _gaussian_acc(400, seed=6, kernel="gmd")
    p = BoundaryParams(alpha=0.05, m=100, kind="gm")
    rec = degenerate_cs(acc, p, est)
    assert rec.hi == math.inf
    assert rec.method == "SAGE-GM"
    assert rec.lo == pytest.approx(rec.center - rec.boundary_value, rel=1e-12)


def test_degenerate_nonpositive_spectrum_bound():
    with pytest.warns(UserWarning, match="no positive eigenvalue retained"):
        est = spectrum_from_eigenvalues([-0.3, -0.1], WeightScheme("poly", 2.0))
    acc = _gaussian_acc(250, seed=7)
    p = BoundaryParams(alpha=0.05, m=50, kind="gm")
    rec = degenerate_cs(acc, p, est)
    trace = acc.diag_sum / acc.n - acc.ustat()
    assert rec.lo == pytest.approx(acc.ustat() + trace / acc.n, rel=1e-12)


def test_degenerate_lo_nondecreasing_in_alpha():
    acc = _gaussian_acc(400, seed=8)
    prev = -math.inf
    for alpha in (0.01, 0.05, 0.1, 0.2):
        est = spectrum_from_eigenvalues([0.5, 0.2], WeightScheme("poly", 2.0), alpha=alpha)
        p = BoundaryParams(alpha=alpha, m=100, kind="gm")
        rec = degenerate_cs(acc, p, est)
        assert rec.lo >= prev
        prev = rec.lo


# ---------------------------------------------------------------------------
# sequential test
# ---------------------------------------------------------------------------


def _scripted_first(monkeypatch, lows, m=10):
    """``Monitor.first`` after a stream whose record at n = m + i has lower
    bound ``lows[i]`` (and upper bound inf); the records stand in for
    ``nondegenerate_cs``, which the monitor reads through the module."""

    def scripted(acc, p):
        lo = lows[acc.n - m]
        return CsRecord(acc.n, "AsympCS-GM", lo + 1.0, lo, math.inf, None, 1.0)

    monkeypatch.setattr(sequences, "nondegenerate_cs", scripted)
    mon = Monitor(UStatAccumulator("gmd"), m, [BoundaryParams(0.05, m, kind="gm")], theta0=0.0)
    for x in range(m - 1 + len(lows)):
        mon.push(float(x))
    assert mon.acc.n == m - 1 + len(lows)
    return mon.first


def test_reject_immediately_when_theta_below_all_lows(monkeypatch):
    assert _scripted_first(monkeypatch, [0.5, 0.4, 0.3]) == {"AsympCS-GM": 10}


def test_never_rejects_when_covered(monkeypatch):
    assert _scripted_first(monkeypatch, [-1.0, -1.0, -1.0]) == {}


def test_self_test_never_rejects():
    acc = _gaussian_acc(300, seed=9)
    p = BoundaryParams(alpha=0.05, m=250, kind="gm")
    recs = []
    probe = UStatAccumulator("gmd")
    rng = np.random.default_rng(9)
    for x in rng.standard_normal(300):
        probe.push(x)
        if probe.n >= 250:
            rec = nondegenerate_cs(probe, p)
            recs.append(rec)
    # theta0 equal to each center is inside every two-sided interval
    for rec in recs:
        assert rec.covers(rec.center)


def test_nan_record_raises_instead_of_rejecting(monkeypatch):
    rec = CsRecord(n=5, method="AsympCS-LIL", center=math.nan, lo=math.nan,
                   hi=math.nan, sigma_hat=math.nan, boundary_value=1.0)
    with pytest.raises(ValueError, match="n=5"):
        rec.covers(0.0)
    with pytest.raises(ValueError, match="nan bound"):
        _scripted_first(monkeypatch, [-1.0, math.nan, 0.5])


def test_first_rejection_is_sticky(monkeypatch):
    first = _scripted_first(monkeypatch, [0.5, -5.0, 0.5])
    assert first == {"AsympCS-GM": 10}  # first crossing, not the last


# ---------------------------------------------------------------------------
# classical degenerate test
# ---------------------------------------------------------------------------


def test_chi_square_quantile_single_eigenvalue():
    rng = np.random.default_rng(10)
    q = chi_square_mixture_quantile([1.0], 0.05, ChiSquareTable(200_000, rng))
    exact = scipy.stats.chi2.ppf(0.95, df=1) - 1.0
    assert q == pytest.approx(exact, abs=0.1)


def test_chi_square_quantile_zero_spectrum():
    table = ChiSquareTable(1_000, np.random.default_rng(11))
    assert chi_square_mixture_quantile([0.0, 0.0], 0.05, table) == 0.0
    assert chi_square_mixture_quantile([], 0.05, table) == 0.0


def test_chi_square_quantile_draw_floor():
    with pytest.raises(ValueError):
        ChiSquareTable(999)


def test_chi_square_table_reuses_draws_across_refreshes():
    # the same spectrum at two refreshes of one replication gives the
    # identical critical value, even after L grew in between
    table = ChiSquareTable(5_000, np.random.default_rng(12))
    lam = [0.9, 0.4, -0.2, 0.1]
    first = chi_square_mixture_quantile(lam, 0.05, table)
    head = [col.copy() for col in table.columns(4)]
    chi_square_mixture_quantile(lam + [0.05, 0.02], 0.05, table)
    assert chi_square_mixture_quantile(lam, 0.05, table) == first
    np.testing.assert_array_equal(table.columns(4), head)
    assert len(table.columns(6)) == 6


def test_chi_square_table_clear_draws_as_a_fresh_table_in_the_kept_buffers():
    # a replication of run_power clears the run's table with its own
    # generator: the columns it reads equal a fresh table's, bit for bit,
    # whether it needs fewer or more columns than the last replication
    table = ChiSquareTable(2_000, np.random.default_rng(13))
    kept = [id(col) for col in table.columns(3)]
    for seed, L in ((14, 2), (15, 5)):
        table.clear(np.random.default_rng(seed))
        fresh = ChiSquareTable(2_000, np.random.default_rng(seed))
        np.testing.assert_array_equal(table.columns(L), fresh.columns(L))
        lam = np.linspace(1.0, 0.1, L)
        assert (chi_square_mixture_quantile(lam, 0.05, table)
                == chi_square_mixture_quantile(lam, 0.05, fresh))
    assert [id(col) for col in table.columns(3)] == kept


@st.composite
def _quantile_case(draw):
    """An array of 1000-100 000 draws (continuous, spread over many decades,
    tied to a few values, or constant) and a q in [0, 1], often at or next to
    an end.  Neighbouring draws that are far apart relative to their size
    are what tell numpy's two interpolation branches apart."""
    n = draw(st.integers(1_000, 100_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["chi2", "normal", "wide", "tied", "constant"]))
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    if kind == "chi2":
        a = rng.standard_normal(n) ** 2 - 1.0
    elif kind == "normal":
        a = rng.standard_normal(n) * draw(value)
    elif kind == "wide":
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-150.0, 150.0, n)
    elif kind == "tied":
        a = rng.choice(np.array(draw(st.lists(value, min_size=1, max_size=5))), n)
    else:
        a = np.full(n, draw(value))
    # + 0.0 turns -0.0 into 0.0: the two compare equal, so which of them a
    # partition leaves at an index is the algorithm's choice
    a += 0.0
    q = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 0.5, 0.95, 0.99, 5e-324, 1e-9, 1.0 - 1e-9, 1.0 - 2.0**-53]),
    ))
    return a, q


@settings(max_examples=150, deadline=None)
@given(case=_quantile_case())
def test_linear_quantile_equals_numpy_property(case):
    # the classical critical value from one partition is np.quantile's, bit for bit
    a, q = case
    want = np.quantile(a.copy(), q, overwrite_input=True)
    got = _linear_quantile(a.copy(), q)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, float(want))


def test_linear_quantile_on_built_arrays():
    # two cases that random draws almost never reach.  Ordered arrays: after a
    # one-index partition the next slot usually, but not always, holds the
    # next order statistic, and at some of these indices numpy's introselect
    # leaves a larger value there.  Two-valued arrays: neighbours far apart
    # relative to their size, where numpy's two interpolation branches
    # (weight below and at least 0.5) round differently
    cases = [(a, (i + 0.25) / 999) for a in (np.arange(1000.0), np.arange(1000.0, 0.0, -1.0))
             for i in range(0, 999, 5)]
    rng = np.random.default_rng(14)
    for lo, hi in np.sort(rng.standard_normal((50, 2)) * 10.0 ** rng.uniform(-3, 3, (50, 2))):
        a = rng.permutation(np.r_[np.full(500, lo), np.full(500, hi)])
        cases += [(a, (499 + t) / 999) for t in (0.25, 0.5, 0.75, 0.9)]
    for a, q in cases:
        want = np.quantile(a.copy(), q, overwrite_input=True)
        assert np.float64(_linear_quantile(a.copy(), q)).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# records and serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact():
    acc = _gaussian_acc(321, seed=13)
    p = BoundaryParams(alpha=0.05, m=100, kind="lil")
    rec = nondegenerate_cs(acc, p)
    row = rec.csv_row()
    fields = row.split(",")
    assert csv_header().split(",") == [
        "n", "method", "center", "lo", "hi", "sigma_hat", "boundary_value",
    ]
    assert int(fields[0]) == rec.n
    assert float(fields[2]) == rec.center  # repr round-trips exactly
    assert float(fields[3]) == rec.lo
    assert float(fields[6]) == rec.boundary_value


def test_determinism_same_seed_same_records():
    def one_run():
        rng = np.random.default_rng(31337)
        acc = UStatAccumulator("gmd")
        out = []
        p = BoundaryParams(alpha=0.05, m=50, kind="gm")
        for x in rng.standard_normal(120):
            acc.push(x)
            if acc.n >= 50:
                out.append(nondegenerate_cs(acc, p).csv_row())
        return out

    assert one_run() == one_run()
