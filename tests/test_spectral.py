import math
import re
import sys
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gram import centered_gram, fresh_pairwise, pairwise_matrix
from scipy.sparse.linalg import eigsh

from ustatcs import spectral
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams, normal_mixture_tail_inv, riemann_zeta
from ustatcs.kernels import DistParams, Kernel
from ustatcs.simharness import _rng_for, sample_paired_mmd
from ustatcs.spectral import (
    SpectrumEstimate,
    SpectrumMonitor,
    WeightScheme,
    allocate_weights,
    estimate_spectrum,
    mirror,
    parse_weights,
    sage_upper,
    spectrum_from_eigenvalues,
    trace_estimate,
)


# synthetic rank-one kernel h(x,y) = x*y; operator spectrum {E x^2}
PRODUCT_KERNEL = Kernel("product", 1, lambda a, b: a * b)
ZERO_KERNEL = Kernel("zero", 1, lambda a, b: np.zeros(np.broadcast(a, b).shape))


def _mmd_accumulator(n, seed=11):
    rng = _rng_for(seed, 900, 0)
    pts = sample_paired_mmd(DistParams(), rng, n)
    acc = UStatAccumulator("mmd-gauss")
    for x in pts:
        acc.push(x)
    return acc


# ---------------------------------------------------------------------------
# centered Gram matrix
# ---------------------------------------------------------------------------


def test_gram_constant_data_is_zero():
    acc = UStatAccumulator("gmd")
    for _ in range(6):
        acc.push(2.0)
    np.testing.assert_array_equal(centered_gram(acc), np.zeros((6, 6)))


def test_gram_three_point_variance_toy():
    acc = UStatAccumulator("variance")
    for x in (0.0, 1.0, 2.0):
        acc.push(x)
    expected = np.array(
        [[-1.0, -0.5, 1.0], [-0.5, -1.0, -0.5], [1.0, -0.5, -1.0]]
    )
    np.testing.assert_allclose(centered_gram(acc), expected, rtol=1e-14)


def test_gram_trace_identity():
    acc = _mmd_accumulator(250)
    eigs = np.linalg.eigvalsh(centered_gram(acc) / acc.n)
    lhs = float(eigs.sum())
    assert lhs == pytest.approx(trace_estimate(acc), rel=1e-8)


def test_gram_needs_two_points():
    acc = UStatAccumulator("gmd")
    acc.push(0.0)
    with pytest.raises(ValueError, match="at least 2 points"):
        estimate_spectrum(acc, SpectrumMonitor())


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------


def test_rank_one_kernel_recovers_unit_eigenvalue():
    rng = np.random.default_rng(41)
    acc = UStatAccumulator(PRODUCT_KERNEL)
    for x in rng.standard_normal(1500):
        acc.push(x)
    est = estimate_spectrum(acc, SpectrumMonitor(WeightScheme("poly", 2.0)))
    assert est.eigenvalues[0] == pytest.approx(1.0, abs=0.1)
    assert np.all(np.abs(est.eigenvalues[1:]) < 0.05)


def test_zero_kernel_spectrum():
    acc = UStatAccumulator(ZERO_KERNEL)
    for x in np.arange(12.0):
        acc.push(x)
    scheme = WeightScheme("data")
    with pytest.warns(UserWarning) as caught:
        est = estimate_spectrum(acc, SpectrumMonitor(scheme))
    # one warning carries both facts
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "no positive eigenvalue retained" in message and "data-driven" in message
    assert np.all(est.eigenvalues == 0.0)
    assert est.fallback
    # flagged fallback uses polynomial b=2 weights
    assert est.weights[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)
    # no negative eigenvalue either: the mirror, the negative side, is empty too
    with pytest.warns(UserWarning, match="no positive eigenvalue"):
        neg = mirror(est, scheme)
    assert neg.fallback
    for e in (est, neg):
        for value in (e.sum_pos, e.sum_pos_logw, e.sum_pos_ginv2):
            assert value == 0.0


def test_mmd_null_trace_near_diagonal_mean():
    acc = _mmd_accumulator(500)
    est = estimate_spectrum(acc, SpectrumMonitor(WeightScheme("data")))
    assert est.sum_pos > 0.0
    # E h(Z,Z) = 2 - 2 E k(X,Y) = 2 - 2/sqrt(3); U_n is O(1/n) noise around 0
    assert trace_estimate(acc) == pytest.approx(2.0 - 2.0 / math.sqrt(3.0), abs=0.1)


def test_truncation_count():
    acc = _mmd_accumulator(700)
    est = estimate_spectrum(acc, SpectrumMonitor(WeightScheme("poly", 2.0)))
    assert len(est.eigenvalues) == math.floor(700**0.25)
    est_sub = estimate_spectrum(
        acc, SpectrumMonitor(WeightScheme("poly", 2.0), subsample_exponent=2.0 / 3.0)
    )
    n_sub = math.ceil(700 ** (2.0 / 3.0))
    assert est_sub.n_points == n_sub
    assert len(est_sub.eigenvalues) == math.floor(n_sub**0.25)


def test_subsample_consistency_at_2000():
    acc = _mmd_accumulator(2000, seed=12)
    full = estimate_spectrum(acc, SpectrumMonitor(WeightScheme("poly", 2.0)))
    sub = estimate_spectrum(
        acc, SpectrumMonitor(WeightScheme("poly", 2.0), subsample_exponent=2.0 / 3.0)
    )
    assert sub.sum_pos == pytest.approx(full.sum_pos, rel=0.10)


@pytest.fixture(scope="module")
def paired_accumulators():
    """One 2000-point paired stream per shift: null and two alternatives."""
    accs = {}
    for delta in (0.0, 0.3, 1.0):
        pts = sample_paired_mmd(DistParams(shift=delta), _rng_for(13, 902, 0), 2000)
        accs[delta] = UStatAccumulator("mmd-gauss")
        for x in pts:
            accs[delta].push(x)
    return accs


def _converged_eigsh_calls(monkeypatch):
    calls = []

    def counted(op, **kwargs):
        w = eigsh(op, **kwargs)
        calls.append(op.shape)  # only reached when ARPACK converged
        return w

    monkeypatch.setattr(spectral, "eigsh", counted)
    return calls


@pytest.mark.parametrize("N", [spectral._DENSE_CUTOFF + 1, 300, 600, 900, 2000])
def test_arpack_path_matches_dense(N, paired_accumulators, monkeypatch):
    calls = _converged_eigsh_calls(monkeypatch)
    for delta, acc in paired_accumulators.items():
        tri = acc.pairwise_lower(N)
        shift = acc.ustat()
        got = spectral._top_abs_eigenvalues(tri, shift, 6)
        assert calls == [(N, N)], delta  # ARPACK ran, and no dense fallback followed
        calls.clear()
        np.testing.assert_allclose(got, spectral._dense_top_abs(tri, shift, 6), rtol=1e-12)


@pytest.mark.parametrize("n", [spectral._DENSE_CUTOFF, 300])
def test_solve_reads_only_the_stored_triangle(n, monkeypatch):
    # readers touch only the lower triangle of the Gram store; poisoning its
    # strictly upper part must change neither the dense nor the ARPACK solve
    calls = _converged_eigsh_calls(monkeypatch)
    acc = _mmd_accumulator(n, seed=15)
    before = estimate_spectrum(acc, SpectrumMonitor()).eigenvalues
    acc._H[np.triu_indices(len(acc._H), 1)] = np.nan
    after = estimate_spectrum(acc, SpectrumMonitor()).eigenvalues
    assert np.all(np.isfinite(after))
    np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(pairwise_matrix(acc), fresh_pairwise(acc.kernel, acc.points))
    assert len(calls) == (2 if n > spectral._DENSE_CUTOFF else 0)


def test_sort_order_abs_descending_signed_tiebreak():
    est = spectrum_from_eigenvalues(
        [0.25, -0.25, 1.0, -0.5], WeightScheme("poly", 2.0)
    )
    np.testing.assert_array_equal(est.eigenvalues, [1.0, -0.5, 0.25, -0.25])


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_polynomial_weights():
    w = allocate_weights(WeightScheme("poly", 2.0), np.zeros(4))
    assert w[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)
    np.testing.assert_allclose(w[1:] * np.array([4.0, 9.0, 16.0]), w[0] * np.ones(3))


def test_exponential_weights_ratio():
    for c in (0.5, 2.0, 7.0):
        w = allocate_weights(WeightScheme("exp", c), np.zeros(3))
        assert w[0] / w[1] == pytest.approx(math.exp(c), rel=1e-12)
    # infinite-sum normalization: partial sums approach 1
    w = allocate_weights(WeightScheme("exp", 2.0), np.zeros(40))
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)


def test_data_driven_weights_example():
    lam = np.array([0.6, 0.3, -0.2, 0.1])
    w = allocate_weights(WeightScheme("data"), lam)
    np.testing.assert_allclose(w, [0.6, 0.3, 0.0, 0.1], atol=1e-15)


def test_data_driven_needs_positive_mass():
    with pytest.raises(ValueError):
        allocate_weights(WeightScheme("data"), np.array([-1.0, -0.5]))


def test_scheme_validation_and_labels():
    with pytest.raises(ValueError):
        WeightScheme("poly", 1.0)
    with pytest.raises(ValueError):
        WeightScheme("exp", 0.0)
    with pytest.raises(ValueError):
        WeightScheme("geometric")
    assert parse_weights("poly:2.5") == WeightScheme("poly", 2.5)
    assert parse_weights("exp:3") == WeightScheme("exp", 3.0)
    assert parse_weights("data") == WeightScheme("data", 0.0) == WeightScheme()
    with pytest.raises(ValueError):
        parse_weights("uniform")
    for label in ("poly:abc", "exp:", "poly", "data:0"):
        with pytest.raises(ValueError, match=f"'{label}'; use poly:<b>, exp:<c>, or data"):
            parse_weights(label)
    for label in ("poly:nan", "exp:nan"):
        with pytest.raises(ValueError, match="got nan"):
            parse_weights(label)


@pytest.mark.parametrize("kind, param, message", [
    ("data", -1.0, "data weights take no parameter, got -1.0"),
    ("poly", math.inf, "weights need a finite parameter, got inf"),
    ("exp", math.inf, "weights need a finite parameter, got inf"),
    # beta_2 = (1 - e^-c) e^-c is 0 here, and subnormal past c = 708.4
    ("exp", 1e308, "exp:1e+308 weights underflow: beta_2 = 0.0"),
    ("exp", 709.0, "exp:709 weights underflow: beta_2 = "),
    ("poly", 1030.0, "poly:1030 weights underflow: beta_2 = "),
])
def test_scheme_without_usable_weights_refused(kind, param, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        WeightScheme(kind, param)


def test_weights_at_the_underflow_edge_stay_positive():
    # the largest c accepted still gives a normal beta_2
    w = allocate_weights(WeightScheme("exp", 708.0), np.zeros(2))
    assert w[1] >= sys.float_info.min


@given(st.sampled_from(["poly", "exp"]),
       st.floats(min_value=1.0, max_value=700.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_label_and_parse_weights_are_inverses(kind, param):
    scheme = WeightScheme(kind, param)
    assert parse_weights(scheme.label()) == scheme
    assert parse_weights(scheme.label()).label() == scheme.label()


def test_labels_are_the_flag_spelling():
    assert [WeightScheme(*k).label() for k in (("poly", 2.0), ("exp", 4.5), ("data", 0.0))] == [
        "poly:2", "exp:4.5", "data"]
    # dataclass order on (kind, param) is the sensitivity CSV's row order
    schemes = [WeightScheme("poly", 8.0), WeightScheme(), WeightScheme("exp", 2.0),
               WeightScheme("poly", 2.0)]
    assert [s.label() for s in sorted(schemes)] == ["data", "exp:2", "poly:2", "poly:8"]


# ---------------------------------------------------------------------------
# SAGE boundaries
# ---------------------------------------------------------------------------


def test_sage_gm_single_eigenvalue():
    # lambda = 1 with its whole budget: (log(n/m) + ginv(alpha)^2 - 1)/n
    est = spectrum_from_eigenvalues([1.0], WeightScheme("data"), alpha=0.05)
    assert est.weights[0] == 1.0
    p = BoundaryParams(alpha=0.05, m=100, kind="gm")
    a2 = normal_mixture_tail_inv(0.05) ** 2
    for n in (100, 500, 4000):
        expected = (math.log(n / 100) + a2 - 1.0) / n
        assert sage_upper(n, est, p, 1.0) == pytest.approx(expected, rel=1e-12)


def test_sage_lil_single_eigenvalue():
    est = spectrum_from_eigenvalues([1.0], WeightScheme("data"), alpha=0.05)
    p = BoundaryParams(alpha=0.05, m=100, eta=2.0, s=1.4, kind="lil")
    c2 = (2**0.25 + 2**-0.25) ** 2
    n = 700
    stitch = 1.4 * math.log(math.log(max(2.0 * n / 100, math.e))) + math.log(
        riemann_zeta(1.4) / (0.05 * math.log(2.0) ** 1.4)
    )
    expected = c2 / (2 * n) * stitch - 1.0 / n  # log(1/beta_1) = 0
    assert sage_upper(n, est, p, 1.0) == pytest.approx(expected, rel=1e-12)


def test_sage_all_nonpositive_spectrum():
    with pytest.warns(UserWarning, match="no positive eigenvalue retained"):
        est = spectrum_from_eigenvalues([-0.4, -0.1, 0.0], WeightScheme("poly", 2.0))
    for kind in ("lil", "gm"):
        p = BoundaryParams(alpha=0.05, m=50, kind=kind)
        for n in (50, 1000):
            assert sage_upper(n, est, p, -0.5) == pytest.approx(0.5 / n, rel=1e-12)


def test_sage_gm_two_equal_eigenvalues_at_cold_start():
    est = spectrum_from_eigenvalues([0.5, 0.5], WeightScheme("data"), alpha=0.05)
    m = 200
    p = BoundaryParams(alpha=0.05, m=m, kind="gm")
    expected = (normal_mixture_tail_inv(0.025) ** 2 - 1.0) / m
    assert sage_upper(m, est, p, 1.0) == pytest.approx(expected, rel=1e-12)


def test_single_negative_eigenvalue_minus_side():
    # plus side has no mass, so the data-driven plus weights fall back (one
    # warning); the minus side, the mirror, puts the whole budget on index 1
    scheme = WeightScheme("data")
    with pytest.warns(UserWarning, match="data-driven") as caught:
        est = spectrum_from_eigenvalues([-1.0], scheme, alpha=0.05)
    assert len(caught) == 1
    assert est.fallback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        neg = mirror(est, scheme)
    assert not neg.fallback
    assert neg.weights[0] == 1.0
    assert (-neg.sum_pos, -neg.sum_pos_logw) == (-1.0, 0.0)
    assert -neg.sum_pos_ginv2 == pytest.approx(-normal_mixture_tail_inv(0.05) ** 2, rel=1e-12)


def _assert_same_estimate(a, b):
    for f in fields(SpectrumEstimate):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


@pytest.mark.parametrize(
    "scheme",
    [WeightScheme("poly", 2.0), WeightScheme("exp", 3.0)],
    ids=["poly", "exp"],
)
def test_negative_side_mirrors_positive_side(scheme):
    # the negative side that `ustatcs spectrum` prints is the positive side of
    # the mirror: without |lambda| ties it is the estimate built from -lambda,
    # its sums run over lambda < 0 with the index weights, and mirroring twice
    # gives the estimate back
    rng = np.random.default_rng(55)
    for _ in range(10):
        lam = rng.standard_normal(5) * np.array([1.0, 0.7, 0.4, 0.2, 0.1])
        est = spectrum_from_eigenvalues(lam, scheme, alpha=0.05)
        neg = mirror(est, scheme)
        _assert_same_estimate(neg, spectrum_from_eigenvalues(-lam, scheme, alpha=0.05))
        _assert_same_estimate(mirror(neg, scheme), est)
        sorted_lam, w = est.eigenvalues, allocate_weights(scheme, est.eigenvalues)
        below = sorted_lam < 0.0
        assert -neg.sum_pos == float(sorted_lam[below].sum())
        assert -neg.sum_pos_logw == pytest.approx(
            math.fsum(sorted_lam[below] * np.log(1.0 / w[below])), rel=1e-12)
        assert -neg.sum_pos_ginv2 == pytest.approx(math.fsum(
            l * normal_mixture_tail_inv(0.05 * wi) ** 2
            for l, wi in zip(sorted_lam[below], w[below])), rel=1e-12)
    # a spectrum with no negative eigenvalue has an empty negative side
    psd = spectrum_from_eigenvalues([0.7, 0.2, 0.05], scheme, alpha=0.05)
    with pytest.warns(UserWarning, match="no positive eigenvalue"):
        neg = mirror(psd, scheme)
    assert (neg.sum_pos, neg.sum_pos_logw, neg.sum_pos_ginv2) == (0.0, 0.0, 0.0)


def test_mirror_keeps_index_order_on_a_tie():
    # +-0.5 tie: the sort puts 0.5 first, so -0.5 holds index 2 and its
    # weight; the mirror keeps that, where re-sorting -lambda would move the
    # mirrored 0.5 to index 1 and weight 6/pi^2
    scheme = WeightScheme("poly", 2.0)
    est = spectrum_from_eigenvalues([0.5, -0.5, 0.25], scheme, alpha=0.05)
    np.testing.assert_array_equal(est.eigenvalues, [0.5, -0.5, 0.25])
    neg = mirror(est, scheme)
    np.testing.assert_array_equal(neg.eigenvalues, [-0.5, 0.5, -0.25])
    np.testing.assert_array_equal(neg.weights, est.weights)
    w2 = est.weights[1]
    assert w2 == pytest.approx(6.0 / math.pi**2 / 4.0, rel=1e-12)
    assert neg.sum_pos == 0.5
    assert neg.sum_pos_logw == pytest.approx(0.5 * math.log(1.0 / w2), rel=1e-12)
    assert neg.sum_pos_ginv2 == pytest.approx(
        0.5 * normal_mixture_tail_inv(0.05 * w2) ** 2, rel=1e-12)
    resorted = spectrum_from_eigenvalues([-0.5, 0.5, -0.25], scheme, alpha=0.05)
    assert resorted.sum_pos_logw != neg.sum_pos_logw


def test_sage_gm_rejects_alpha_mismatch():
    est = spectrum_from_eigenvalues([0.6, 0.25], WeightScheme("poly", 2.0), alpha=0.05)
    with pytest.raises(ValueError, match="alpha"):
        sage_upper(1000, est, BoundaryParams(alpha=0.1, m=100, kind="gm"), 0.85)


def test_sage_nonincreasing_in_alpha():
    lam = [0.6, 0.25, -0.1, 0.05]
    for kind in ("lil", "gm"):
        prev = math.inf
        for alpha in (0.01, 0.05, 0.1, 0.2):
            est = spectrum_from_eigenvalues(lam, WeightScheme("poly", 2.0), alpha=alpha)
            p = BoundaryParams(alpha=alpha, m=100, kind=kind)
            cur = sage_upper(1000, est, p, sum(lam))
            assert cur < prev
            prev = cur


def test_sage_rate_orders():
    # log-log slope over n in [1e4, 1e8]: both boundaries decay like 1/n up
    # to a slowly varying factor; the LIL factor (loglog) grows slower than
    # the GM factor (log), so its slope sits closer to -1
    est = spectrum_from_eigenvalues([0.6, 0.3], WeightScheme("poly", 2.0))
    m = 100
    ns = np.geomspace(1e4, 1e8, 30)

    def slope(kind):
        p = BoundaryParams(alpha=0.05, m=m, kind=kind)
        ys = np.log([sage_upper(int(n), est, p, 0.9) for n in ns])
        return float(np.polyfit(np.log(ns), ys, 1)[0])

    s_gm = slope("gm")
    s_lil = slope("lil")
    assert -0.97 < s_gm < -0.90
    assert -1.0 < s_lil < -0.98
    assert s_lil < s_gm


def test_kl_optimal_weights_minimize_log_sum():
    rng = np.random.default_rng(66)
    for _ in range(10):
        lam = rng.uniform(0.0, 1.0, size=6)
        lam_pos = np.maximum(lam, 0.0)
        star = lam_pos / lam_pos.sum()
        best = float(np.sum(lam_pos[star > 0] * np.log(1.0 / star[star > 0])))
        for _ in range(40):
            beta = rng.dirichlet(np.ones(6))
            value = float(np.sum(lam_pos * np.log(1.0 / beta)))
            assert value >= best - 1e-12


# ---------------------------------------------------------------------------
# monitoring grid
# ---------------------------------------------------------------------------


def test_monitor_recompute_cadence():
    acc = _mmd_accumulator(2, seed=14)
    rng = _rng_for(14, 901, 0)
    pts = sample_paired_mmd(DistParams(), rng, 400)
    acc = UStatAccumulator("mmd-gauss")
    monitor = SpectrumMonitor(
        WeightScheme("poly", 2.0), grid_ratio=1.05
    )
    refreshes = 0
    prev = None
    for i in range(400):
        acc.push(pts[i])
        if i + 1 < 100:
            continue
        est = monitor.update(acc)
        if est is not prev:
            refreshes += 1
            prev = est
    # geometric grid 100 * 1.05^k inside [100, 400]: about log(4)/log(1.05) points
    expected = math.ceil(math.log(4.0) / math.log(1.05))
    assert abs(refreshes - expected) <= 2
    assert monitor.update(acc) is prev  # no grid point crossed: the cached estimate


# every refresh n up to 3000 of a default monitor (ratio 1.05) whose first
# update is at n0, recorded when the grid's start was a constructor argument
# set to n0; the grid now starts at the first update
_REFRESHES = {
    2: [*range(2, 77), 78, 82, 86, 90, 95, 100, 105, 110, 115, 121, 127, 133, 140, 147, 154,
        162, 170, 179, 187, 197, 207, 217, 228, 239, 251, 264, 277, 290, 305, 320, 336, 353,
        371, 389, 409, 429, 450, 473, 496, 521, 547, 575, 603, 633, 665, 698, 733, 770, 808,
        849, 891, 936, 982, 1032, 1083, 1137, 1194, 1254, 1316, 1382, 1451, 1524, 1600, 1680,
        1764, 1852, 1945, 2042, 2144, 2251, 2364, 2482, 2606, 2736, 2873],
    40: [40, 42, 45, 47, 49, 52, 54, 57, 60, 63, 66, 69, 72, 76, 80, 84, 88, 92, 97, 102, 107,
         112, 118, 123, 130, 136, 143, 150, 157, 165, 173, 182, 191, 201, 211, 221, 232, 244,
         256, 269, 282, 296, 311, 326, 343, 360, 378, 397, 417, 437, 459, 482, 506, 531, 558,
         586, 615, 646, 678, 712, 748, 785, 824, 865, 909, 954, 1002, 1052, 1104, 1160, 1218,
         1278, 1342, 1409, 1480, 1554, 1631, 1713, 1799, 1889, 1983, 2082, 2186, 2295, 2410,
         2531, 2657, 2790, 2929],
    100: [100, 105, 111, 116, 122, 128, 135, 141, 148, 156, 163, 172, 180, 189, 198, 208, 219,
          230, 241, 253, 266, 279, 293, 308, 323, 339, 356, 374, 393, 412, 433, 454, 477, 501,
          526, 552, 580, 609, 639, 671, 704, 740, 777, 815, 856, 899, 944, 991, 1041, 1093,
          1147, 1205, 1265, 1328, 1394, 1464, 1537, 1614, 1695, 1779, 1868, 1962, 2060, 2163,
          2271, 2384, 2504, 2629, 2760, 2898],
    400: [400, 420, 441, 464, 487, 511, 537, 563, 591, 621, 652, 685, 719, 755, 792, 832, 874,
          917, 963, 1011, 1062, 1115, 1171, 1229, 1291, 1355, 1423, 1494, 1569, 1647, 1729,
          1816, 1906, 2002, 2102, 2207, 2317, 2433, 2555, 2682, 2816, 2957],
}


@pytest.mark.parametrize("n0", sorted(_REFRESHES))
def test_monitor_refresh_grid_starts_at_the_first_update(monkeypatch, n0):
    refreshed = []
    monkeypatch.setattr(spectral, "estimate_spectrum",
                        lambda acc, *args, **kwargs: refreshed.append(acc.n) or object())
    monitor = SpectrumMonitor()
    for n in range(n0, 3001):
        monitor.update(SimpleNamespace(n=n))  # the stubbed solve reads only n
    assert refreshed == _REFRESHES[n0]


def test_monitor_validation():
    # every setting is refused at construction, before any update
    for ratio in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid ratio must be finite and > 1"):
            SpectrumMonitor(grid_ratio=ratio)
    with pytest.raises(ValueError, match="alpha"):
        SpectrumMonitor(alpha=1.5)
    with pytest.raises(ValueError, match="trunc_exponent"):
        SpectrumMonitor(trunc_exponent=0.5)
    with pytest.raises(ValueError, match="subsample_exponent"):
        SpectrumMonitor(subsample_exponent=1.0)
