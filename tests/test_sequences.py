import math

import numpy as np
import pytest
import scipy.stats

from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams, normal_mixture_tail_inv
from ustatcs.sequences import (
    ChiSquareTable,
    CsRecord,
    chi_square_mixture_quantile,
    classical_ci,
    classical_degenerate_test,
    csv_header,
    degenerate_cs,
    nondegenerate_cs,
    sequential_test,
)
from ustatcs.spectral import WeightScheme, spectrum_from_eigenvalues

Z_975 = 1.959963984540054  # standard normal 97.5% quantile


def _gaussian_acc(n, seed=0, kernel="gmd"):
    rng = np.random.default_rng(seed)
    acc = UStatAccumulator(kernel)
    acc.extend(rng.standard_normal(n))
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


# ---------------------------------------------------------------------------
# degenerate path
# ---------------------------------------------------------------------------


def test_degenerate_record_shape():
    est = spectrum_from_eigenvalues([0.5, 0.2], WeightScheme("data-driven"), alpha=0.05)
    acc = _gaussian_acc(400, seed=6, kernel="gmd")
    p = BoundaryParams(alpha=0.05, m=100, kind="gm")
    rec = degenerate_cs(acc, p, est)
    assert rec.hi == math.inf
    assert rec.method == "SAGE-GM"
    assert rec.lo == pytest.approx(rec.center - rec.boundary_value, rel=1e-12)


def test_degenerate_nonpositive_spectrum_bound():
    est = spectrum_from_eigenvalues([-0.3, -0.1], WeightScheme("polynomial", b=2.0))
    acc = _gaussian_acc(250, seed=7)
    p = BoundaryParams(alpha=0.05, m=50, kind="gm")
    rec = degenerate_cs(acc, p, est)
    assert rec.lo == pytest.approx(acc.ustat() + est.trace_est / acc.n, rel=1e-12)


def test_degenerate_lo_nondecreasing_in_alpha():
    est = spectrum_from_eigenvalues([0.5, 0.2], WeightScheme("polynomial", b=2.0))
    acc = _gaussian_acc(400, seed=8)
    prev = -math.inf
    for alpha in (0.01, 0.05, 0.1, 0.2):
        p = BoundaryParams(alpha=alpha, m=100, kind="gm")
        rec = degenerate_cs(acc, p, est)
        assert rec.lo >= prev
        prev = rec.lo


# ---------------------------------------------------------------------------
# sequential test
# ---------------------------------------------------------------------------


def _records(lows, m=10):
    return [
        CsRecord(n=m + i, method="SAGE-GM", center=lo + 1.0, lo=lo, hi=math.inf,
                 sigma_hat=None, boundary_value=1.0)
        for i, lo in enumerate(lows)
    ]


def test_reject_immediately_when_theta_below_all_lows():
    recs = _records([0.5, 0.4, 0.3])
    dec = sequential_test(recs, theta0=0.0)
    assert dec.reject and dec.first_rejection_n == 10
    assert dec.n == 12


def test_never_rejects_when_covered():
    recs = _records([-1.0, -1.0, -1.0])
    dec = sequential_test(recs, theta0=0.0)
    assert not dec.reject and dec.first_rejection_n is None


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


def test_nan_record_raises_instead_of_rejecting():
    rec = CsRecord(n=5, method="AsympCS-LIL", center=math.nan, lo=math.nan,
                   hi=math.nan, sigma_hat=math.nan, boundary_value=1.0)
    with pytest.raises(ValueError, match="n=5"):
        rec.covers(0.0)
    with pytest.raises(ValueError):
        sequential_test([rec], theta0=0.0)


def test_sequential_test_needs_strictly_increasing_n():
    recs = _records([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="does not follow"):
        sequential_test([recs[0], recs[2], recs[1]], theta0=0.0)
    with pytest.raises(ValueError, match="does not follow"):
        sequential_test([recs[0], recs[0]], theta0=0.0)


def test_first_rejection_is_sticky():
    recs = _records([0.5, -5.0, 0.5])
    dec = sequential_test(recs, theta0=0.0)
    assert dec.first_rejection_n == 10  # first crossing, not the last


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


def test_classical_degenerate_record():
    acc = _gaussian_acc(500, seed=12)
    rec = classical_degenerate_test(acc, critical=2.8414588206941245)
    assert rec.method == "Classical-Test"
    assert rec.boundary_value == pytest.approx(2.8414588206941245 / 500, rel=1e-12)
    assert rec.lo == pytest.approx(acc.ustat() - rec.boundary_value, rel=1e-12)


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
