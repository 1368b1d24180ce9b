"""``Monitor`` against the per-row loops it replaced.

The two oracles below are those loops as they were written before the
monitor existed, with the record arithmetic spelled out: the CLI's stream
loop (one record per row from the cold start, and the first n whose record
excludes theta0) and the power harness's replication loop (the first
rejection of each SAGE method and of the classical chi-square test).  The
monitor must reproduce both bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatcs import sequences, simharness
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams, gaussian_boundary
from ustatcs.cli import main
from ustatcs.kernels import DistParams, get_kernel, true_theta
from ustatcs.sequences import ChiSquareTable, Monitor, chi_square_mixture_quantile
from ustatcs.simharness import ExperimentConfig
from ustatcs.spectral import SpectrumMonitor, parse_weights, sage_upper


def _stream_oracle(kernel_id, pts, p, spectrum, theta0):
    """Records as tuples, and the first n whose interval excludes theta0."""
    acc = UStatAccumulator(kernel_id)
    records, first = [], None
    for x in pts:
        acc.push(x)
        n = acc.n
        if n < p.m:
            continue
        u = acc.ustat()
        if spectrum is None:
            sig = math.sqrt(acc.jackknife_sigma2())
            gamma = gaussian_boundary(n, p)
            half = 2.0 * sig * gamma
            rec = (n, f"AsympCS-{p.kind.upper()}", u, u - half, u + half, sig, gamma)
        else:
            ups = sage_upper(n, spectrum.update(acc), p)
            rec = (n, f"SAGE-{p.kind.upper()}", u, u - ups, math.inf, None, ups)
        if first is None and not rec[3] <= theta0 <= rec[4]:
            first = n
        records.append(rec)
    return records, first


def _harness_oracle(cfg, delta, stage, rep, quantile=chi_square_mixture_quantile):
    """First rejection index (n - m) per method of one power replication."""
    rng = simharness._rng_for(cfg.seed, stage, rep, 0)
    table = ChiSquareTable(cfg.classical_draws, simharness._rng_for(cfg.seed, stage, rep, 1))
    pts = simharness.sample_paired_mmd(replace(cfg.dist, shift=delta), rng, cfg.n_max)
    acc = UStatAccumulator(cfg.kernel)
    monitor = SpectrumMonitor(
        scheme=cfg.weight_scheme,
        alpha=cfg.alpha,
        grid_ratio=cfg.grid_ratio,
        trunc_exponent=cfg.trunc_exponent,
        subsample_exponent=cfg.subsample_exponent,
    )
    p_lil = cfg.boundary_params("lil")
    p_gm = cfg.boundary_params("gm")
    first = {meth: None for meth in cfg.methods}
    est = None
    critical = 0.0
    for i in range(cfg.n_max):
        acc.push(pts[i])
        n = i + 1
        if n < cfg.m:
            continue
        prev = est
        est = monitor.update(acc)
        if est is not prev and first.get("Classical-Test", 0) is None:
            critical = quantile(est.eigenvalues, cfg.alpha, table)
        excess = acc.ustat() - cfg.theta0
        for meth in cfg.methods:
            if first[meth] is not None:
                continue
            if meth == "SAGE-LIL":
                bound = sage_upper(n, est, p_lil)
            elif meth == "SAGE-GM":
                bound = sage_upper(n, est, p_gm)
            else:
                bound = critical / n
            if excess > bound:
                first[meth] = i - (cfg.m - 1)
        if all(v is not None for v in first.values()):
            break
    return first


def _points(kernel_id, n, rng, scale=1.0):
    if kernel_id == "mmd-gauss":
        pts = rng.standard_normal((n, 2))
        pts[:, 1] += 0.5  # a shift, so that theta0 = 0 is rejected
        return pts * scale
    if kernel_id == "spatial-kendall":
        z = rng.standard_normal((n, 2))
        return np.column_stack([z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]]) * scale
    return rng.standard_normal(n) * scale


def _spectrum(subsample=None):
    return SpectrumMonitor(parse_weights("data"), alpha=0.05, subsample_exponent=subsample)


def _bits(records):
    return [tuple(map(repr, rec)) for rec in records]


def _covered(kernel_id):
    """A theta0 != 0 that every record of ``_points``' stream covers: the true
    theta of the nondegenerate laws, and for mmd-gauss a value above U_n.
    (The one-sided SAGE bound excludes the true theta of this shifted law
    at some n: the plug-in spectrum is a degenerate-regime calibration.)"""
    if kernel_id == "mmd-gauss":
        return 0.1
    if kernel_id == "spatial-kendall":
        return true_theta(kernel_id, DistParams(family="elliptical", rho=0.6))
    return true_theta(kernel_id, DistParams())


_CASES = [
    (kernel_id, kind, theta0, subsample)
    for kernel_id in ("variance", "gmd", "spatial-kendall", "mmd-gauss")
    for kind in ("lil", "gm")
    for theta0 in (0.0, _covered(kernel_id))
    # the subsampled store changes only the degenerate path
    for subsample in ((None, 0.67) if kernel_id == "mmd-gauss" else (None,))
]


@pytest.mark.parametrize("kernel_id, kind, theta0, subsample", _CASES)
def test_records_and_first_match_the_stream_oracle(kernel_id, kind, theta0, subsample):
    m, rows = 40, 300
    pts = _points(kernel_id, rows, np.random.default_rng(17))
    p = BoundaryParams(alpha=0.05, m=m, kind=kind)
    degenerate = kernel_id == "mmd-gauss"
    mon = Monitor(UStatAccumulator(kernel_id), m, [p],
                  spectrum=_spectrum(subsample) if degenerate else None, theta0=theta0)
    records = []
    for x in pts:
        records += mon.push(x)
    want, first = _stream_oracle(kernel_id, pts, p,
                                 _spectrum(subsample) if degenerate else None, theta0)
    assert len(records) == rows - m + 1
    assert _bits(records) == _bits(want)
    assert mon.first == ({} if first is None else {records[0].method: first})
    # theta0 = 0 is excluded on these laws
    assert (first is None) == (theta0 != 0.0)


@pytest.mark.parametrize("methods", [
    ("SAGE-LIL", "SAGE-GM", "Classical-Test"),
    ("SAGE-GM", "Classical-Test"),
    ("Classical-Test",),
    ("SAGE-LIL",),
])
@pytest.mark.parametrize("subsample", [None, 0.67])
def test_first_rejections_match_the_harness_oracle(methods, subsample, monkeypatch):
    cfg = ExperimentConfig(
        experiment="power", kernel="mmd-gauss", m=30, n_max=200, reps=1, methods=methods,
        seed=23, classical_draws=2_000, subsample_exponent=subsample,
    )
    # the critical value is computed at the same refreshes: at each one
    # until Classical-Test rejects, and never without it
    calls = []

    def counted(who):
        def quantile(*args):
            calls.append(who)
            return chi_square_mixture_quantile(*args)
        return quantile

    monkeypatch.setattr(sequences, "chi_square_mixture_quantile", counted("monitor"))
    seen = set()
    for delta in (0.0, 0.8):
        for rep in range(2):
            got = simharness._degenerate_first_rejections(
                cfg, replace(cfg.dist, shift=delta), stage=200, rep=rep)
            want = _harness_oracle(cfg, delta, 200, rep, counted("oracle"))
            assert got == want, (delta, rep)
            seen |= {v is None for v in got.values()}
    assert seen == {True, False}
    assert calls.count("monitor") == calls.count("oracle")
    assert (calls.count("oracle") > 0) == ("Classical-Test" in methods)


@st.composite
def _stream_case(draw):
    kernel_id = draw(st.sampled_from(["variance", "gmd", "spatial-kendall", "mmd-gauss"]))
    n = draw(st.integers(2, 80))
    m = draw(st.integers(2, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _points(kernel_id, n, rng, scale=draw(st.floats(0.1, 3.0)))
    theta0 = draw(st.floats(-0.5, 4.0))
    return kernel_id, pts, m, theta0


@settings(max_examples=60, deadline=None)
@given(case=_stream_case())
def test_first_is_the_oracles_first_exclusion_and_final_property(case):
    kernel_id, pts, m, theta0 = case
    params = [BoundaryParams(alpha=0.05, m=m, kind=kind) for kind in ("lil", "gm")]
    degenerate = kernel_id == "mmd-gauss"
    mon = Monitor(UStatAccumulator(kernel_id), m, params,
                  spectrum=_spectrum() if degenerate else None, theta0=theta0)
    for x in pts:
        before = dict(mon.first)
        records = mon.push(x)
        # an entry, once set, never changes; a new one is the n of this push
        assert {k: mon.first[k] for k in before} == before
        assert all(mon.first[k] == mon.acc.n for k in mon.first.keys() - before.keys())
        assert [rec.n for rec in records] == ([mon.acc.n] * 2 if mon.acc.n >= m else [])
    for p in params:
        _, first = _stream_oracle(kernel_id, pts, p, _spectrum() if degenerate else None,
                                  theta0)
        label = ("SAGE-" if degenerate else "AsympCS-") + p.kind.upper()
        assert mon.first.get(label) == first


def test_cli_test_and_harness_agree_on_one_stream(tmp_path, capsys):
    # one seeded replication of the power harness at shift 0.5, replayed
    # through `ustatcs test` with the same settings: the same first rejection
    cfg = ExperimentConfig(
        experiment="power", kernel="mmd-gauss", m=60, n_max=400, reps=1,
        delta_grid=(0.5,), methods=("SAGE-LIL",), seed=3,
    )
    pts = simharness.sample_paired_mmd(
        replace(cfg.dist, shift=0.5), simharness._rng_for(cfg.seed, 200, 0), 400)
    data = tmp_path / "pairs.csv"
    data.write_text("".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()), encoding="utf-8")
    code = main(["test", str(data), "--kernel", "mmd-gauss", "--m", "60", "--boundary", "lil",
                 "--weights", "data", "--trunc-a", "0.25", "--theta0", "0"])
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    index = simharness._degenerate_first_rejections(
        cfg, replace(cfg.dist, shift=0.5), stage=200, rep=0)["SAGE-LIL"]
    assert index is not None
    assert (last[4], int(last[5])) == ("1", index + cfg.m)


def test_monitor_validation():
    acc = UStatAccumulator("gmd")
    with pytest.raises(ValueError, match="cold start m=40"):
        Monitor(acc, 40, [BoundaryParams(0.05, 30)])
    with pytest.raises(ValueError, match="needs a spectrum monitor"):
        Monitor(acc, 40, table=ChiSquareTable(1_000))


@pytest.mark.parametrize("kind", ["lil", "gm"])
def test_monitor_refuses_a_boundary_at_another_level(kind):
    # SAGE-GM would read the estimate's alpha and SAGE-LIL its own, while
    # Classical-Test reads the spectrum monitor's: one level for all
    with pytest.raises(ValueError, match="spectrum monitor's alpha=0.1"):
        Monitor(UStatAccumulator("mmd-gauss"), 40, [BoundaryParams(0.05, 40, kind=kind)],
                spectrum=SpectrumMonitor(alpha=0.1))


def test_push_reports_nothing_before_the_cold_start():
    mon = Monitor(UStatAccumulator(get_kernel("gmd")), 5, [BoundaryParams(0.05, 5)], theta0=9.0)
    assert [len(mon.push(float(x))) for x in range(6)] == [0, 0, 0, 0, 1, 1]
    assert mon.first == {"AsympCS-LIL": 5}
    # as in the record functions, U_n needs two points: m = 1 starts at n = 2
    mon = Monitor(UStatAccumulator("gmd"), 1, [BoundaryParams(0.05, 1)])
    assert [len(mon.push(float(x))) for x in range(3)] == [0, 1, 1]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the regime is chosen by kernel id, not by the law. The variance "
    "kernel on +-1 data has a constant first projection (sigma^2 = 0), yet it runs the "
    "nondegenerate interval, whose sigma_hat near 0 excludes the true theta = 1"))
def test_degenerate_law_on_the_nondegenerate_path_keeps_its_level():
    pts = np.random.default_rng(3).choice([-1.0, 1.0], 5000)
    mon = Monitor(UStatAccumulator("variance"), 400, [BoundaryParams(0.05, 400, kind="lil")],
                  theta0=1.0)
    for x in pts:
        mon.push(x)
    assert "AsympCS-LIL" not in mon.first
