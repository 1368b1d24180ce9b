import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from oracles import mc_crossing_oracle

from ustatcs import simharness
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams
from ustatcs.cli import main
from ustatcs.kernels import DistParams, true_theta
from ustatcs.sequences import CsRecord
from ustatcs.simharness import (
    ExperimentConfig,
    run_coldstart,
    run_coverage,
    run_experiment,
    run_power,
    run_weight_sensitivity,
    sample,
    sample_paired_mmd,
    sample_stream,
)
from ustatcs.spectral import SpectrumMonitor, WeightScheme, parse_weights

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_gaussian_sampler_moments():
    rng = np.random.default_rng(1)
    x = sample(DistParams(mean=2.0, variance=4.0), rng, 1_000_000)
    assert abs(float(np.mean(x)) - 2.0) <= 4.0 * 2.0 / 1000.0
    assert float(np.var(x)) == pytest.approx(4.0, rel=0.02)


def test_laplace_sampler_unit_variance():
    rng = np.random.default_rng(2)
    x = sample(DistParams(family="laplace"), rng, 1_000_000)
    assert float(np.var(x)) == pytest.approx(1.0, rel=0.01)
    assert abs(float(np.mean(x))) < 0.01


def test_t10_sampler_variance():
    rng = np.random.default_rng(3)
    x = sample(DistParams(family="t10"), rng, 1_000_000)
    assert float(np.var(x)) == pytest.approx(1.25, rel=0.02)


def test_elliptical_correlation():
    rng = np.random.default_rng(4)
    x = sample(DistParams(family="elliptical", rho=0.6), rng, 1_000_000)
    assert float(np.corrcoef(x.T)[0, 1]) == pytest.approx(0.6, abs=0.01)


def test_elliptical_laplace_mixer_heavy_tails():
    rng = np.random.default_rng(5)
    x = sample(DistParams(family="elliptical", rho=0.6, mixer="laplace"), rng, 500_000)
    z = x[:, 0]
    kurt = float(np.mean(z**4) / np.mean(z**2) ** 2)
    assert kurt > 3.5  # strictly heavier than Gaussian


def test_elliptical_t10_mixer_marginal_variance():
    rng = np.random.default_rng(6)
    x = sample(DistParams(family="elliptical", rho=0.0, mixer="t10"), rng, 500_000)
    assert float(np.var(x[:, 0])) == pytest.approx(1.25, rel=0.05)


def test_elliptical_rho_validation():
    with pytest.raises(ValueError):
        DistParams(family="elliptical", rho=1.5)


def test_spatial_kendall_stream_hits_target():
    rng = np.random.default_rng(7)
    pts = sample_stream(
        "spatial-kendall", DistParams(family="elliptical", rho=0.6), 5000, rng
    )
    acc = UStatAccumulator("spatial-kendall")
    for x in pts:
        acc.push(x)
    assert acc.ustat() == pytest.approx(1.0 / 6.0, abs=0.02)


def test_paired_mmd_null_exchangeable():
    rng = np.random.default_rng(8)
    z = sample_paired_mmd(DistParams(), rng, 200_000)
    # X and Y share all moments under the null
    assert float(np.mean(z[:, 0])) == pytest.approx(float(np.mean(z[:, 1])), abs=0.01)
    assert float(np.var(z[:, 0])) == pytest.approx(float(np.var(z[:, 1])), rel=0.02)


def test_paired_mmd_strong_shift_detected():
    rng = np.random.default_rng(9)
    pts = sample_paired_mmd(DistParams(shift=5.0), rng, 500)
    acc = UStatAccumulator("mmd-gauss")
    for x in pts:
        acc.push(x)
    assert acc.ustat() > 1.0


def test_stream_kernel_dist_compatibility():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        sample_stream("spatial-kendall", DistParams(), 10, rng)
    with pytest.raises(ValueError):
        sample_stream("gmd", DistParams(family="elliptical"), 10, rng)
    with pytest.raises(ValueError, match="kernel 'mmd-gauss' cannot take the 'elliptical'"):
        sample_stream("mmd-gauss", DistParams(family="elliptical"), 10, rng)


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        experiment="power",
        kernel="mmd-gauss",
        dist=DistParams(family="laplace", shift=0.0),
        m=50,
        n_max=200,
        reps=2,
        weight_scheme=WeightScheme("exp", 3.5),
        delta_grid=(0.0, 0.2),
        seed=99,
    )
    text = json.dumps({
        "experiment": "power",
        "kernel": "mmd-gauss",
        "dist": {"family": "laplace", "shift": 0.0},
        "m": 50,
        "n_max": 200,
        "reps": 2,
        "weight_scheme": "exp:3.5",
        "delta_grid": [0.0, 0.2],
        "seed": 99,
    })
    assert ExperimentConfig.from_json(text) == cfg


def test_config_float_grids_write_the_same_csvs_for_integer_entries(tmp_path):
    # "delta_grid": [0.0, 1] is [0.0, 1.0]: the grid cells print as floats
    base = {"experiment": "power", "kernel": "mmd-gauss", "m": 30, "n_max": 80, "reps": 2,
            "classical_draws": 2_000, "seed": 8}
    written = []
    for grid in ([0.0, 1], [0.0, 1.0]):
        cfg = ExperimentConfig.from_json(json.dumps({**base, "delta_grid": grid}))
        paths = run_power(cfg).write_csvs(tmp_path / repr(grid[1]), "power")
        written.append([Path(p).read_bytes() for p in paths])
    assert written[0] == written[1]
    assert b"\n1.0,Classical-Test," in written[0][0]
    cfg = ExperimentConfig.from_json(json.dumps(
        {"experiment": "weight-sensitivity", "kernel": "mmd-gauss", "b_grid": [2, 8],
         "c_grid": [3], "m_grid": [50]}))
    assert [repr(v) for v in cfg.b_grid + cfg.c_grid] == ["2.0", "8.0", "3.0"]
    assert cfg.m_grid == (50,) and type(cfg.m_grid[0]) is int


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_load_their_json_values_unchanged(path):
    # every value is stored as the JSON holds it, integers as ints and numbers
    # as floats, and every key the file leaves out keeps its default
    text = path.read_text(encoding="utf-8")
    raw, cfg = json.loads(text), ExperimentConfig.from_json(text)
    for key, value in raw.items():
        got = getattr(cfg, key)
        if key == "dist":
            got = {k: getattr(got, k) for k in value}
        elif key == "weight_scheme":
            value = parse_weights(value)
        elif isinstance(value, list):
            got = list(got)
        assert repr(got) == repr(value), key
    default = ExperimentConfig(experiment=cfg.experiment, kernel=cfg.kernel, dist=cfg.dist)
    for f in fields(ExperimentConfig):
        if f.name not in raw:
            assert repr(getattr(cfg, f.name)) == repr(getattr(default, f.name)), f.name


@pytest.mark.parametrize("key, value, message", [
    ("reps", 2.5, "reps must be an integer, got 2.5"),
    ("reps", True, "reps must be an integer, got true"),
    ("m", 40.5, "m must be an integer, got 40.5"),
    ("alpha", "0.05", 'alpha must be a number, got "0.05"'),
    ("theta0", None, "theta0 must be a number, got null"),
    ("delta_grid", 0.5, "delta_grid must be a JSON list, got 0.5"),
    ("delta_grid", [0.0, "1"], 'delta_grid entry must be a number, got "1"'),
    ("m_grid", [50, 100.0], "m_grid entry must be an integer, got 100.0"),
    ("methods", "SAGE-GM", 'methods must be a JSON list, got "SAGE-GM"'),
    ("weight_scheme", 2, "weight_scheme must be a string, got 2"),
    ("dist", {"family": "gaussian", "variance": False}, "variance must be a number, got false"),
], ids=["reps-float", "reps-true", "m-float", "alpha-string", "theta0-null", "delta-grid-number",
        "delta-grid-string-entry", "m-grid-float-entry", "methods-string", "weights-number",
        "dist-variance-false"])
def test_config_checks_json_types(key, value, message):
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_json(json.dumps({"experiment": "coverage", key: value}))
    assert str(info.value) == message


def test_config_numbers_in_float_fields_load_as_floats():
    cfg = ExperimentConfig.from_json(json.dumps(
        {"experiment": "power", "kernel": "mmd-gauss", "eta": 3, "theta0": 0,
         "subsample_exponent": None, "dist": {"mean": 1, "variance": 2}}))
    assert [repr(v) for v in (cfg.eta, cfg.theta0, cfg.dist.mean, cfg.dist.variance)] == [
        "3.0", "0.0", "1.0", "2.0"]
    assert cfg.subsample_exponent is None


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json(json.dumps({"experiment": "coverage", "repz": 3}))
    with pytest.raises(ValueError, match="unknown dist keys"):
        ExperimentConfig.from_json(
            json.dumps({"experiment": "coverage", "dist": {"family": "gaussian", "df": 3}})
        )


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="sweep")
    with pytest.raises(ValueError):
        ExperimentConfig(m=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=100, n_max=100)
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError, match="shift must be finite and >= 0"):
        ExperimentConfig(delta_grid=(-0.1,))
    with pytest.raises(ValueError, match="kernel 'mmd-gauss' cannot take the 'elliptical'"):
        ExperimentConfig(experiment="power", kernel="mmd-gauss",
                         dist=DistParams(family="elliptical"))
    with pytest.raises(ValueError, match="dist.shift must be 0"):
        ExperimentConfig(experiment="weight-sensitivity", kernel="mmd-gauss",
                         dist=DistParams(shift=0.2))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("AsympCS-XL",))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="power", methods=("AsympCS-LIL",))


def test_default_methods_per_experiment():
    assert ExperimentConfig(experiment="coverage").methods == (
        "AsympCS-LIL",
        "AsympCS-GM",
        "Classical-CI",
    )
    assert ExperimentConfig(experiment="power", kernel="mmd-gauss").methods == (
        "SAGE-LIL",
        "SAGE-GM",
        "Classical-Test",
    )


def test_config_takes_the_monitors_default_grid_ratio():
    cfg = ExperimentConfig(experiment="power", kernel="mmd-gauss")
    assert cfg.spectrum_monitor().grid_ratio == SpectrumMonitor().grid_ratio


# ---------------------------------------------------------------------------
# experiment smoke runs
# ---------------------------------------------------------------------------


def _tiny_coverage_cfg(**kw):
    kw.setdefault("experiment", "coverage")
    kw.setdefault("kernel", "gmd")
    kw.setdefault("m", 30)
    kw.setdefault("n_max", 120)
    kw.setdefault("reps", 3)
    kw.setdefault("seed", 7)
    return ExperimentConfig(**kw)


def test_coverage_smoke_curve_shapes():
    cfg = _tiny_coverage_cfg(reps=1)
    res = run_coverage(cfg)
    assert len(res.n_grid) == cfg.n_max - cfg.m + 1
    for meth in cfg.methods:
        assert len(res.cum_miscoverage[meth]) == len(res.n_grid)
        assert len(res.mean_halfwidth[meth]) == len(res.n_grid)


def test_coverage_requires_closed_form_theta():
    # the config refuses it, before any run
    with pytest.raises(ValueError, match="closed-form"):
        _tiny_coverage_cfg(kernel="gmd", dist=DistParams(family="t10"))


def test_cum_miscoverage_monotone():
    res = run_coverage(_tiny_coverage_cfg(reps=6))
    for curve in res.cum_miscoverage.values():
        assert np.all(np.diff(curve) >= 0.0)
        assert 0.0 <= curve[-1] <= 1.0


@pytest.mark.parametrize("kernel, dist", [
    ("gmd", DistParams()),
    ("variance", DistParams()),
    ("spatial-kendall", DistParams(family="elliptical")),
])
def test_coverage_intervals_are_the_cs_records(tmp_path, capsys, kernel, dist):
    # at every n >= m, run_coverage's lo/hi for each method are the cells that
    # `cs --classical` prints, bit for bit, and its miss is `not covers(theta)`
    cfg = _tiny_coverage_cfg(kernel=kernel, dist=dist, m=40, n_max=400)
    pts = sample_stream(kernel, dist, cfg.n_max, simharness._rng_for(cfg.seed, 0, 0))
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    bounds = simharness._coverage_boundaries(cfg, n_grid)
    theta = true_theta(kernel, dist)
    harness = simharness._intervals(kernel, pts, bounds, cfg.m, theta)
    data = tmp_path / "x.csv"
    data.write_text("".join(",".join(map(repr, np.atleast_1d(x).tolist())) + "\n" for x in pts),
                    encoding="utf-8")
    misses = set()
    for kind, label in (("lil", "AsympCS-LIL"), ("gm", "AsympCS-GM")):
        assert main(["cs", str(data), "--kernel", kernel, "--m", str(cfg.m), "--boundary", kind,
                     "--alpha", repr(cfg.alpha), "--classical"]) == 0
        cells = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for meth in (label, "Classical-CI"):
            rows = [c for c in cells if c[1] == meth]
            assert [int(c[0]) for c in rows] == n_grid.tolist()
            lo, hi, _, miss = harness[meth]
            assert [c[3] for c in rows] == [repr(v) for v in lo.tolist()]
            assert [c[4] for c in rows] == [repr(v) for v in hi.tolist()]
            recs = [CsRecord(int(c[0]), c[1], *map(float, c[2:])) for c in rows]
            assert miss.tolist() == [not rec.covers(theta) for rec in recs]
            # a theta on a record's own bound is covered there: the tie that
            # |U - theta| > half could decide the other way
            for t in (lo[len(lo) // 2], hi[len(hi) // 2]):
                tied = simharness._intervals(kernel, pts, {meth: bounds[meth]}, cfg.m, t)[meth][3]
                assert tied.tolist() == [not rec.covers(t) for rec in recs]
                misses.update(tied.tolist())
    assert misses == {True, False}


def test_coldstart_emits_per_m_curves():
    cfg = ExperimentConfig(
        experiment="coldstart", kernel="gmd", m=40, n_max=120, reps=2,
        m_grid=(30, 60), methods=("AsympCS-LIL",), seed=3,
    )
    res = run_coldstart(cfg)
    assert set(res.cum_miscoverage) == {"AsympCS-LIL|m=30", "AsympCS-LIL|m=60"}
    assert len(res.n_grid) == cfg.n_max - 30 + 1


def test_power_smoke_and_delta_ordering():
    cfg = ExperimentConfig(
        experiment="power", kernel="mmd-gauss", m=60, n_max=220, reps=6,
        delta_grid=(0.0, 1.5), seed=5,
    )
    res = run_power(cfg)
    for meth in ("SAGE-GM", "SAGE-LIL"):
        p = res.power[meth]
        assert p[1] >= p[0] - 0.17  # nondecreasing up to MC noise
        assert p[1] >= 0.5  # a shift of 1.5 is unmissable even at n=220
    assert set(res.cum_rejection) == set(cfg.methods)
    for curve in res.cum_rejection.values():
        assert np.all(np.diff(curve) >= 0.0)


def test_weight_sensitivity_smoke_data_driven_tightest():
    cfg = ExperimentConfig(
        experiment="weight-sensitivity", kernel="mmd-gauss", m=60, n_max=160,
        reps=2, b_grid=(2.0, 8.0), c_grid=(3.0,), seed=6,
    )
    res = run_weight_sensitivity(cfg)
    data = res.widths[WeightScheme()][-1]
    for curve in res.widths.values():
        assert data <= curve[-1] + 1e-12
    assert res.widths[WeightScheme("poly", 2.0)][-1] < res.widths[WeightScheme("poly", 8.0)][-1]


def test_run_experiment_dispatch():
    res = run_experiment(_tiny_coverage_cfg(reps=1))
    assert res.cum_miscoverage


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_same_seed_byte_identical_csvs(tmp_path):
    cfg = _tiny_coverage_cfg(reps=2)
    a = run_coverage(cfg).write_csvs(tmp_path / "a", "cov")
    b = run_coverage(cfg).write_csvs(tmp_path / "b", "cov")
    for pa, pb in zip(a, b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_same_seed_byte_identical_power_csvs(tmp_path):
    # one chi-square table per replication keeps the Classical-Test column
    # a pure function of (seed, stage, rep)
    cfg = ExperimentConfig(
        experiment="power", kernel="mmd-gauss", m=60, n_max=220, reps=3,
        delta_grid=(0.0, 0.5), seed=7, classical_draws=2_000,
    )
    a = run_power(cfg).write_csvs(tmp_path / "a", "power")
    b = run_power(cfg).write_csvs(tmp_path / "b", "power")
    assert len(a) == 2
    for pa, pb in zip(a, b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_different_seed_changes_results():
    r1 = run_coverage(_tiny_coverage_cfg(reps=2, seed=1))
    r2 = run_coverage(_tiny_coverage_cfg(reps=2, seed=2))
    assert not np.array_equal(
        r1.mean_halfwidth["AsympCS-GM"], r2.mean_halfwidth["AsympCS-GM"]
    )


def test_svg_written(tmp_path):
    res = run_coverage(_tiny_coverage_cfg(reps=1))
    paths = res.write_svgs(tmp_path, "cov")
    assert paths
    for p in paths:
        head = open(p, "r", encoding="utf-8").read(100)
        assert head.startswith("<svg")


def _csv_labels(path):
    """The key of every row of a simulate CSV, spelled as a chart or summary
    names it: the method, or the --weights spelling of (scheme, param)."""
    header, *rows = open(path, encoding="utf-8").read().splitlines()
    if header.split(",")[1] == "method":
        return {row.split(",")[1] for row in rows}
    keys = {tuple(row.split(",")[1:3]) for row in rows}
    return {WeightScheme(kind, float(param)).label() for kind, param in keys}


@pytest.mark.parametrize("raw", [
    dict(experiment="coverage", kernel="gmd", m=30, n_max=90, reps=1, seed=2),
    # the default methods and m_grid: 9 series
    dict(experiment="coldstart", kernel="gmd", m=50, n_max=230, reps=1, seed=3),
    dict(experiment="power", kernel="mmd-gauss", m=60, n_max=150, reps=2,
         delta_grid=(0.0, 1.0), seed=4, classical_draws=2_000),
    # the default b_grid and c_grid: 8 (scheme, param) keys
    dict(experiment="weight-sensitivity", kernel="mmd-gauss", m=60, n_max=120, reps=1, seed=5),
], ids=lambda raw: raw["experiment"])
def test_charts_and_summary_name_every_csv_key(tmp_path, raw):
    res = run_experiment(ExperimentConfig(**raw))
    csvs = res.write_csvs(tmp_path, "x")
    labels = set().union(*map(_csv_labels, csvs))
    svgs = res.write_svgs(tmp_path, "x")
    assert len(svgs) >= len(csvs)
    for path in svgs:
        text = open(path, encoding="utf-8").read()
        legend = re.findall(r'<text x="[\d.]+" y="[\d.]+">([^<]*)</text>', text)
        colours = re.findall(r'<polyline [^>]*stroke="(#[0-9a-f]{6})"', text)
        assert sorted(legend) == sorted(labels), path
        assert len(colours) == len(set(colours)) == len(labels), path
    summary = res.summary()
    assert summary.count(", ") == len(labels) - 1
    for label in labels:
        assert f"{label}=" in summary


# ---------------------------------------------------------------------------
# crossing oracle
# ---------------------------------------------------------------------------


def test_crossing_zero_boundary_always_crossed():
    p = BoundaryParams(alpha=0.05, m=10, kind="gm")
    frac = mc_crossing_oracle(
        p, horizon=50, reps=100, rng=np.random.default_rng(1),
        boundary_values=np.zeros(41),
    )
    assert frac == 1.0


def test_crossing_alpha_half_gaussian():
    p = BoundaryParams(alpha=0.5, m=20, kind="gm")
    frac = mc_crossing_oracle(p, horizon=400, reps=600, rng=np.random.default_rng(2))
    assert frac <= 0.5 + 2.0 * math.sqrt(0.25 / 600)


def test_crossing_chaos_respects_level():
    p = BoundaryParams(alpha=0.10, m=30, kind="gm")
    frac = mc_crossing_oracle(
        p, horizon=600, reps=400, rng=np.random.default_rng(3),
        lambdas=(0.8, -0.3), scheme=WeightScheme("poly", 2.0),
    )
    assert frac <= 0.10 + 2.0 * math.sqrt(0.09 / 400)
