import math

import numpy as np
import pytest
from gram import centered_gram, pairwise_matrix
from scipy.sparse.linalg import eigsh

from ustatcs import spectral
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams, normal_mixture_tail_inv, riemann_zeta
from ustatcs.kernels import DistParams, Kernel
from ustatcs.simharness import _rng_for, sample_paired_mmd
from ustatcs.spectral import (
    SpectrumMonitor,
    WeightScheme,
    allocate_weights,
    estimate_spectrum,
    parse_weights,
    sage_upper,
    spectrum_from_eigenvalues,
)


# synthetic rank-one kernel h(x,y) = x*y; operator spectrum {E x^2}
PRODUCT_KERNEL = Kernel("product", 1, lambda a, b: a * b)
ZERO_KERNEL = Kernel("zero", 1, lambda a, b: np.zeros(np.broadcast(a, b).shape))


def _mmd_accumulator(n, seed=11):
    rng = _rng_for(seed, 900, 0)
    pts = sample_paired_mmd(DistParams(), 0.0, rng, n)
    acc = UStatAccumulator("mmd-gauss")
    acc.extend(pts)
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
    rhs = acc.diag_sum / acc.n - acc.ustat()
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_gram_needs_two_points():
    acc = UStatAccumulator("gmd")
    acc.push(0.0)
    with pytest.raises(ValueError, match="at least 2 points"):
        estimate_spectrum(acc)


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------


def test_rank_one_kernel_recovers_unit_eigenvalue():
    rng = np.random.default_rng(41)
    acc = UStatAccumulator(PRODUCT_KERNEL)
    acc.extend(rng.standard_normal(1500))
    est = estimate_spectrum(acc, WeightScheme("polynomial", b=2.0))
    assert est.eigenvalues[0] == pytest.approx(1.0, abs=0.1)
    assert np.all(np.abs(est.eigenvalues[1:]) < 0.05)


def test_zero_kernel_spectrum():
    acc = UStatAccumulator(ZERO_KERNEL)
    acc.extend(np.arange(12.0))
    with pytest.warns(UserWarning) as caught:
        est = estimate_spectrum(acc, WeightScheme("data-driven"))
    messages = [str(w.message) for w in caught]
    assert any("no positive eigenvalue retained" in m for m in messages)
    assert any("data-driven" in m for m in messages)
    assert np.all(est.eigenvalues == 0.0)
    assert est.fallback
    for value in (est.sum_pos, est.sum_neg, est.sum_pos_logw, est.sum_pos_ginv2):
        assert value == 0.0
    # flagged fallback uses polynomial b=2 weights
    assert est.weights[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)


def test_mmd_null_trace_near_diagonal_mean():
    acc = _mmd_accumulator(500)
    est = estimate_spectrum(acc, WeightScheme("data-driven"))
    assert est.sum_pos > 0.0
    # E h(Z,Z) = 2 - 2 E k(X,Y) = 2 - 2/sqrt(3); U_n is O(1/n) noise around 0
    assert est.trace_est == pytest.approx(2.0 - 2.0 / math.sqrt(3.0), abs=0.1)


def test_truncation_count():
    acc = _mmd_accumulator(700)
    est = estimate_spectrum(acc, WeightScheme("polynomial", b=2.0))
    assert len(est.eigenvalues) == math.floor(700**0.25)
    est_sub = estimate_spectrum(
        acc, WeightScheme("polynomial", b=2.0), subsample_exponent=2.0 / 3.0
    )
    n_sub = math.ceil(700 ** (2.0 / 3.0))
    assert est_sub.n_points == n_sub
    assert len(est_sub.eigenvalues) == math.floor(n_sub**0.25)


def test_subsample_consistency_at_2000():
    acc = _mmd_accumulator(2000, seed=12)
    full = estimate_spectrum(acc, WeightScheme("polynomial", b=2.0))
    sub = estimate_spectrum(
        acc, WeightScheme("polynomial", b=2.0), subsample_exponent=2.0 / 3.0
    )
    assert sub.sum_pos == pytest.approx(full.sum_pos, rel=0.10)


@pytest.fixture(scope="module")
def paired_accumulators():
    """One 2000-point paired stream per shift: null and two alternatives."""
    accs = {}
    for delta in (0.0, 0.3, 1.0):
        pts = sample_paired_mmd(DistParams(), delta, _rng_for(13, 902, 0), 2000)
        accs[delta] = UStatAccumulator("mmd-gauss")
        accs[delta].extend(pts)
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
    before = estimate_spectrum(acc).eigenvalues
    acc._H[np.triu_indices(len(acc._H), 1)] = np.nan
    after = estimate_spectrum(acc).eigenvalues
    assert np.all(np.isfinite(after))
    np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(pairwise_matrix(acc), acc.kernel.pairwise(acc.points))
    assert len(calls) == (2 if n > spectral._DENSE_CUTOFF else 0)


def test_sort_order_abs_descending_signed_tiebreak():
    est = spectrum_from_eigenvalues(
        [0.25, -0.25, 1.0, -0.5], WeightScheme("polynomial", b=2.0)
    )
    np.testing.assert_array_equal(est.eigenvalues, [1.0, -0.5, 0.25, -0.25])


def test_estimate_validation():
    acc = _mmd_accumulator(50)
    with pytest.raises(ValueError):
        estimate_spectrum(acc, trunc_exponent=0.5)
    with pytest.raises(ValueError):
        estimate_spectrum(acc, subsample_exponent=1.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_polynomial_weights():
    w = allocate_weights(WeightScheme("polynomial", b=2.0), np.zeros(4))
    assert w[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)
    np.testing.assert_allclose(w[1:] * np.array([4.0, 9.0, 16.0]), w[0] * np.ones(3))


def test_exponential_weights_ratio():
    for c in (0.5, 2.0, 7.0):
        w = allocate_weights(WeightScheme("exponential", c=c), np.zeros(3))
        assert w[0] / w[1] == pytest.approx(math.exp(c), rel=1e-12)
    # infinite-sum normalization: partial sums approach 1
    w = allocate_weights(WeightScheme("exponential", c=2.0), np.zeros(40))
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)


def test_data_driven_weights_example():
    lam = np.array([0.6, 0.3, -0.2, 0.1])
    w = allocate_weights(WeightScheme("data-driven"), lam)
    np.testing.assert_allclose(w, [0.6, 0.3, 0.0, 0.1], atol=1e-15)


def test_data_driven_needs_positive_mass():
    with pytest.raises(ValueError):
        allocate_weights(WeightScheme("data-driven"), np.array([-1.0, -0.5]))


def test_scheme_validation_and_labels():
    with pytest.raises(ValueError):
        WeightScheme("polynomial", b=1.0)
    with pytest.raises(ValueError):
        WeightScheme("exponential", c=0.0)
    with pytest.raises(ValueError):
        WeightScheme("geometric")
    assert parse_weights("poly:2.5").b == 2.5
    assert parse_weights("exp:3").c == 3.0
    assert parse_weights("data").kind == "data-driven"
    with pytest.raises(ValueError):
        parse_weights("uniform")
    for label in ("poly:abc", "exp:"):
        with pytest.raises(ValueError, match=f"'{label}'; use poly:<b>, exp:<c>, or data"):
            parse_weights(label)
    for label in ("poly:nan", "exp:nan"):
        with pytest.raises(ValueError, match="got nan"):
            parse_weights(label)


# ---------------------------------------------------------------------------
# SAGE boundaries
# ---------------------------------------------------------------------------


def test_sage_gm_single_eigenvalue():
    # lambda = 1 with its whole budget: (log(n/m) + ginv(alpha)^2 - 1)/n
    est = spectrum_from_eigenvalues([1.0], WeightScheme("data-driven"), alpha=0.05)
    assert est.weights[0] == 1.0
    p = BoundaryParams(alpha=0.05, m=100, kind="gm")
    a2 = normal_mixture_tail_inv(0.05) ** 2
    for n in (100, 500, 4000):
        expected = (math.log(n / 100) + a2 - 1.0) / n
        assert sage_upper(n, est, p) == pytest.approx(expected, rel=1e-12)


def test_sage_lil_single_eigenvalue():
    est = spectrum_from_eigenvalues([1.0], WeightScheme("data-driven"), alpha=0.05)
    p = BoundaryParams(alpha=0.05, m=100, eta=2.0, s=1.4, kind="lil")
    c2 = (2**0.25 + 2**-0.25) ** 2
    n = 700
    stitch = 1.4 * math.log(math.log(max(2.0 * n / 100, math.e))) + math.log(
        riemann_zeta(1.4) / (0.05 * math.log(2.0) ** 1.4)
    )
    expected = c2 / (2 * n) * stitch - 1.0 / n  # log(1/beta_1) = 0
    assert sage_upper(n, est, p) == pytest.approx(expected, rel=1e-12)


def test_sage_all_nonpositive_spectrum():
    est = spectrum_from_eigenvalues([-0.4, -0.1, 0.0], WeightScheme("polynomial", b=2.0))
    for kind in ("lil", "gm"):
        p = BoundaryParams(alpha=0.05, m=50, kind=kind)
        for n in (50, 1000):
            assert sage_upper(n, est, p) == pytest.approx(-est.trace_est / n, rel=1e-12)


def test_sage_gm_two_equal_eigenvalues_at_cold_start():
    est = spectrum_from_eigenvalues([0.5, 0.5], WeightScheme("data-driven"), alpha=0.05)
    m = 200
    p = BoundaryParams(alpha=0.05, m=m, kind="gm")
    expected = (normal_mixture_tail_inv(0.025) ** 2 - 1.0) / m
    assert sage_upper(m, est, p) == pytest.approx(expected, rel=1e-12)


def test_single_negative_eigenvalue_minus_side():
    # plus side has no mass, so the data-driven plus weights fall back (and
    # warn); the minus side still puts the whole budget on index 1
    with pytest.warns(UserWarning, match="data-driven"):
        est = spectrum_from_eigenvalues([-1.0], WeightScheme("data-driven"), alpha=0.05)
    assert est.fallback
    assert est.weights_minus[0] == 1.0
    assert (est.sum_neg, est.sum_neg_logw) == (-1.0, 0.0)
    assert est.sum_neg_ginv2 == pytest.approx(-normal_mixture_tail_inv(0.05) ** 2, rel=1e-12)


@pytest.mark.parametrize(
    "scheme",
    [WeightScheme("polynomial", b=2.0), WeightScheme("exponential", c=3.0)],
    ids=["poly", "exp"],
)
def test_negative_side_mirrors_positive_side(scheme):
    # the negative-side sums that `ustatcs spectrum` prints are the
    # positive-side sums of the negated spectrum
    rng = np.random.default_rng(55)
    for _ in range(10):
        lam = rng.standard_normal(5) * np.array([1.0, 0.7, 0.4, 0.2, 0.1])
        e_pos = spectrum_from_eigenvalues(lam, scheme, alpha=0.05)
        e_neg = spectrum_from_eigenvalues(-lam, scheme, alpha=0.05)
        for a, b in ((e_pos, e_neg), (e_neg, e_pos)):
            assert a.sum_neg == -b.sum_pos
            assert a.sum_neg_logw == -b.sum_pos_logw
            assert a.sum_neg_ginv2 == -b.sum_pos_ginv2
    psd = spectrum_from_eigenvalues([0.7, 0.2, 0.05], scheme, alpha=0.05)
    assert (psd.sum_neg, psd.sum_neg_logw, psd.sum_neg_ginv2) == (0.0, 0.0, 0.0)


def test_sage_gm_rejects_alpha_mismatch():
    est = spectrum_from_eigenvalues([0.6, 0.25], WeightScheme("polynomial", b=2.0), alpha=0.05)
    with pytest.raises(ValueError, match="alpha"):
        sage_upper(1000, est, BoundaryParams(alpha=0.1, m=100, kind="gm"))


def test_sage_nonincreasing_in_alpha():
    lam = [0.6, 0.25, -0.1, 0.05]
    for kind in ("lil", "gm"):
        prev = math.inf
        for alpha in (0.01, 0.05, 0.1, 0.2):
            est = spectrum_from_eigenvalues(lam, WeightScheme("polynomial", b=2.0), alpha=alpha)
            p = BoundaryParams(alpha=alpha, m=100, kind=kind)
            cur = sage_upper(1000, est, p)
            assert cur < prev
            prev = cur


def test_sage_rate_orders():
    # log-log slope over n in [1e4, 1e8]: both boundaries decay like 1/n up
    # to a slowly varying factor; the LIL factor (loglog) grows slower than
    # the GM factor (log), so its slope sits closer to -1
    est = spectrum_from_eigenvalues([0.6, 0.3], WeightScheme("polynomial", b=2.0))
    m = 100
    ns = np.geomspace(1e4, 1e8, 30)

    def slope(kind):
        p = BoundaryParams(alpha=0.05, m=m, kind=kind)
        ys = np.log([sage_upper(int(n), est, p) for n in ns])
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
    pts = sample_paired_mmd(DistParams(), 0.0, rng, 400)
    acc = UStatAccumulator("mmd-gauss")
    monitor = SpectrumMonitor(
        WeightScheme("polynomial", b=2.0), start=100, grid_ratio=1.05
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


def test_monitor_validation():
    # every setting is refused at construction, before any update
    with pytest.raises(ValueError):
        SpectrumMonitor(grid_ratio=1.0)
    with pytest.raises(ValueError, match="alpha"):
        SpectrumMonitor(alpha=1.5)
    with pytest.raises(ValueError, match="trunc_exponent"):
        SpectrumMonitor(trunc_exponent=0.5)
    with pytest.raises(ValueError, match="subsample_exponent"):
        SpectrumMonitor(subsample_exponent=1.0)
