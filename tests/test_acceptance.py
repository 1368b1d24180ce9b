"""End-to-end acceptance gate.

Each test prints one PASS line with the measured numbers once its
assertions hold (run with ``pytest tests/test_acceptance.py -v -s``).
The Monte Carlo criteria use fixed seeds, so the suite is deterministic;
tolerances sit well inside the Monte Carlo noise bands.  Expect about
two minutes (118 s on a 2-core Intel Xeon), dominated by the
degenerate-regime run (AC-5).
"""

import math

import numpy as np
import pytest
from gram import centered_gram, fresh_pairwise
from oracles import mc_crossing_oracle, true_sigma2

from ustatcs.accumulator import UStatAccumulator, batch_ustat
from ustatcs.boundaries import BoundaryParams
from ustatcs.kernels import DistParams, get_kernel, true_theta
from ustatcs.simharness import (
    ExperimentConfig,
    run_coverage,
    run_power,
    run_weight_sensitivity,
    sample_stream,
    _rng_for,
)
from ustatcs.spectral import WeightScheme

pytestmark = pytest.mark.acceptance

SEED = 20260808
ALPHA = 0.05


def _mc_margin(level, reps):
    return level + 2.0 * math.sqrt(level * (1.0 - level) / reps)


# ---------------------------------------------------------------------------
# AC-1 / AC-2: nondegenerate coverage and widths
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coverage_run():
    cfg = ExperimentConfig(
        experiment="coverage",
        kernel="gmd",
        dist=DistParams(),
        alpha=ALPHA,
        m=400,
        n_max=5000,
        reps=200,
        seed=SEED,
    )
    return run_coverage(cfg)


def test_ac1_coverage(coverage_run):
    res = coverage_run
    bound = _mc_margin(ALPHA, 200)  # 0.0808
    lil = float(res.cum_miscoverage["AsympCS-LIL"][-1])
    gm = float(res.cum_miscoverage["AsympCS-GM"][-1])
    classical = float(res.cum_miscoverage["Classical-CI"][-1])
    assert lil <= bound
    assert gm <= bound
    assert classical >= 0.10
    print(
        f"AC-1 PASS: terminal cumulative miscoverage LIL={lil:.4f} GM={gm:.4f} "
        f"(<= {bound:.4f}), classical={classical:.4f} (>= 0.10)"
    )


def test_ac2_width_ordering(coverage_run):
    res = coverage_run
    at = 2000 - res.config.m
    cl = float(res.mean_halfwidth["Classical-CI"][at])
    gm = float(res.mean_halfwidth["AsympCS-GM"][at])
    lil = float(res.mean_halfwidth["AsympCS-LIL"][at])
    assert cl < gm < lil
    print(f"AC-2 PASS: half-widths at n=2000 classical={cl:.5f} < GM={gm:.5f} < LIL={lil:.5f}")


# ---------------------------------------------------------------------------
# AC-3 / AC-4: boundary validity oracles
# ---------------------------------------------------------------------------


def test_ac3_gaussian_boundary_validity():
    fracs = {}
    for kind in ("lil", "gm"):
        p = BoundaryParams(alpha=ALPHA, m=100, kind=kind)
        fracs[kind] = mc_crossing_oracle(
            p, horizon=5000, reps=2000, rng=np.random.default_rng(SEED + 3)
        )
        assert fracs[kind] <= 0.060
    print(
        f"AC-3 PASS: gaussian crossing fraction lil={fracs['lil']:.4f} "
        f"gm={fracs['gm']:.4f} (<= 0.060)"
    )


def test_ac4_sage_boundary_validity():
    lam = (1.0, 0.5, 0.25, -0.25)
    fracs = {}
    for kind in ("lil", "gm"):
        p = BoundaryParams(alpha=ALPHA, m=100, kind=kind)
        fracs[kind] = mc_crossing_oracle(
            p,
            horizon=5000,
            reps=2000,
            rng=np.random.default_rng(SEED + 4),
            lambdas=lam,
            scheme=WeightScheme("poly", 2.0),
        )
        assert fracs[kind] <= 0.060
    print(
        f"AC-4 PASS: chaos crossing fraction lil={fracs['lil']:.4f} "
        f"gm={fracs['gm']:.4f} (<= 0.060)"
    )


# ---------------------------------------------------------------------------
# AC-5: degenerate size and power
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def power_run():
    cfg = ExperimentConfig(
        experiment="power",
        kernel="mmd-gauss",
        dist=DistParams(),
        alpha=ALPHA,
        m=400,
        n_max=2000,
        reps=200,
        seed=SEED,
        delta_grid=(0.0, 0.3),
        weight_scheme=WeightScheme("data"),
        trunc_exponent=0.25,
    )
    return run_power(cfg)


def test_ac5_degenerate_size_and_power(power_run):
    res = power_run
    size_lil = float(res.cum_rejection["SAGE-LIL"][-1])
    size_gm = float(res.cum_rejection["SAGE-GM"][-1])
    size_classical = float(res.cum_rejection["Classical-Test"][-1])
    power_gm = float(res.power["SAGE-GM"][-1])
    power_lil = float(res.power["SAGE-LIL"][-1])
    assert size_lil <= 0.03
    assert size_gm <= 0.03
    assert power_gm >= 0.6
    assert power_gm >= power_lil
    assert size_classical >= 0.10
    print(
        f"AC-5 PASS: size lil={size_lil:.4f} gm={size_gm:.4f} (<= 0.03), "
        f"power@0.3 gm={power_gm:.3f} (>= 0.6) >= lil={power_lil:.3f}, "
        f"classical size={size_classical:.4f} (>= 0.10)"
    )


# ---------------------------------------------------------------------------
# AC-6: jackknife consistency along one stream
# ---------------------------------------------------------------------------


def test_ac6_jackknife_consistency():
    sigma2 = true_sigma2("gmd", DistParams())
    assert abs(sigma2 - 0.16273) < 1e-4  # closed form vs quoted two-sided check
    rng = _rng_for(SEED, 600, 0)
    xs = sample_stream("gmd", DistParams(), 10_000, rng)
    acc = UStatAccumulator("gmd")
    errs = {}
    for i, x in enumerate(xs):
        acc.push(x)
        if i + 1 in (1_000, 10_000):
            errs[i + 1] = abs(acc.jackknife_sigma2() - sigma2)
    assert errs[1_000] <= 0.05
    assert errs[10_000] <= 0.02
    assert errs[10_000] < errs[1_000]
    print(
        f"AC-6 PASS: |sigma2_hat - sigma2| = {errs[1_000]:.4f} at n=1e3 (<= 0.05), "
        f"{errs[10_000]:.4f} at n=1e4 (<= 0.02), decreasing"
    )


# ---------------------------------------------------------------------------
# AC-7: closed-form targets at n=5000
# ---------------------------------------------------------------------------


def test_ac7_closed_form_targets():
    cases = [
        ("variance", DistParams()),
        ("gmd", DistParams()),
        ("spatial-kendall", DistParams(family="elliptical", rho=0.6)),
        ("mmd-gauss", DistParams(shift=0.0)),
    ]
    reps, n = 16, 5000
    lines = []
    for stage, (kernel_id, dist) in enumerate(cases):
        theta = true_theta(kernel_id, dist)
        values = []
        for rep in range(reps):
            rng = _rng_for(SEED, 700 + stage, rep)
            pts = sample_stream(kernel_id, dist, n, rng)
            pair_sum, _, _ = batch_ustat(pts, kernel_id)
            values.append(2.0 * pair_sum / (n * (n - 1)))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(reps)
        assert abs(mean - theta) <= 4.0 * se, (kernel_id, mean, theta, se)
        lines.append(f"{kernel_id}: |{mean:.5f} - {theta:.5f}| <= 4*{se:.2e}")
    print("AC-7 PASS: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# AC-8: KL-optimality of the data-driven allocation
# ---------------------------------------------------------------------------


def test_ac8_kl_optimal_allocation():
    rng = np.random.default_rng(SEED + 8)
    worst_gap = math.inf
    for _ in range(50):
        size = int(rng.integers(2, 12))
        lam = rng.uniform(0.0, 1.0, size)
        star = lam / lam.sum()
        mask = star > 0
        best = float(np.sum(lam[mask] * np.log(1.0 / star[mask])))
        for _ in range(200):
            beta = rng.dirichlet(np.ones(size))
            value = float(np.sum(lam * np.log(1.0 / np.maximum(beta, 1e-300))))
            worst_gap = min(worst_gap, value - best)
            assert value >= best - 1e-10
    print(f"AC-8 PASS: data-driven allocation minimal on 50x200 draws (min gap {worst_gap:.3e})")


# ---------------------------------------------------------------------------
# AC-9: incremental/batch oracle
# ---------------------------------------------------------------------------


def test_ac9_incremental_matches_batch():
    rng = np.random.default_rng(SEED + 9)
    kernels = ("variance", "gmd", "spatial-kendall", "mmd-gauss")
    checked = 0
    for trial in range(100):
        kernel_id = kernels[trial % 4]
        dim = get_kernel(kernel_id).point_dim
        n = int(rng.integers(5, 201))
        pts = rng.standard_normal(n) if dim == 1 else rng.standard_normal((n, 2))
        acc = UStatAccumulator(kernel_id)
        for x in pts:
            acc.push(x)
        pair_sum, row_sums, diag_sum = batch_ustat(pts, kernel_id)
        u_batch = 2.0 * pair_sum / (n * (n - 1))
        q = row_sums / (n - 1) - u_batch
        sig2_batch = float(np.mean(q * q))
        assert acc.ustat() == pytest.approx(u_batch, rel=1e-10, abs=1e-14)
        assert acc.jackknife_sigma2() == pytest.approx(sig2_batch, rel=1e-10, abs=1e-14)
        gram_batch = fresh_pairwise(get_kernel(kernel_id), pts) - u_batch
        np.testing.assert_allclose(
            centered_gram(acc), gram_batch, rtol=1e-10, atol=1e-12
        )
        checked += 1
    assert checked == 100
    print("AC-9 PASS: 100 random streams match the batch oracle at 1e-10")


# ---------------------------------------------------------------------------
# AC-10: weight-allocation sensitivity
# ---------------------------------------------------------------------------


def test_ac10_weight_sensitivity():
    cfg = ExperimentConfig(
        experiment="weight-sensitivity",
        kernel="mmd-gauss",
        dist=DistParams(),
        alpha=ALPHA,
        m=400,
        n_max=2000,
        reps=50,
        seed=SEED,
        b_grid=(2.0, 8.0, 14.0, 20.0),
        c_grid=(2.0, 4.5, 7.0),
    )
    res = run_weight_sensitivity(cfg)
    terminal = {key: float(curve[-1]) for key, curve in res.widths.items()}
    b_widths = [terminal[WeightScheme("poly", b)] for b in cfg.b_grid]
    c_widths = [terminal[WeightScheme("exp", c)] for c in cfg.c_grid]
    assert all(a < b for a, b in zip(b_widths, b_widths[1:])), b_widths
    assert all(a < b for a, b in zip(c_widths, c_widths[1:])), c_widths
    data = terminal[WeightScheme()]
    swept = b_widths + c_widths
    assert all(data <= w for w in swept), (data, swept)
    print(
        f"AC-10 PASS: width at n=2000 monotone in b {[round(w, 5) for w in b_widths]} "
        f"and in c {[round(w, 5) for w in c_widths]}; data-driven {data:.5f} <= all"
    )
