"""The three benchmark workloads: pinned CLI argv or simulate config, and seeded inputs.

Every flag of ``ustatcs cs``/``ustatcs test`` and every field of the
``simulate`` config is written out here, so that a change of a CLI or config
default cannot silently change a workload.  ``--subsample-w`` is the one
exception: it has no spelling for "unset", and leaving it out means the full
Gram matrix.

This module imports nothing heavy at the top, because the set-up probe times
the import of ``ustatcs`` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

M = 400  # cold start of every workload; records start at n = M

STREAM_FLAGS = (
    "--m", str(M),
    "--alpha", "0.05",
    "--eta", "2.0",
    "--s", "1.4",
    "--boundary", "lil",
    "--weights", "data",
    "--trunc-a", "0.25",
    "--out", "-",
    "--seed", "0",
)

# configs/power_mmd_desk.json with AC-5's shift grid, 4 reps per shift, and
# every ExperimentConfig field spelled out; "seed" is replaced by --seed.
MC_POWER_CONFIG = {
    "experiment": "power",
    "kernel": "mmd-gauss",
    "dist": {
        "family": "gaussian",
        "mean": 0.0,
        "variance": 1.0,
        "rho": 0.6,
        "mixer": "gaussian",
        "shift": 0.0,
    },
    "alpha": 0.05,
    "m": M,
    "n_max": 2000,
    "reps": 4,
    "methods": ["SAGE-LIL", "SAGE-GM", "Classical-Test"],
    "weight_scheme": "data",
    "trunc_exponent": 0.25,
    "delta_grid": [0.0, 0.3],
    "m_grid": [50, 100, 200],
    "seed": 0,
    "eta": 2.0,
    "s": 1.4,
    "grid_ratio": 1.05,
    "subsample_exponent": None,
    "classical_draws": 100000,
    "theta0": 0.0,
    "b_grid": [2.0, 8.0, 14.0, 20.0],
    "c_grid": [2.0, 4.5, 7.0],
}


@dataclass(frozen=True)
class Stream:
    """A CLI stream monitor fed row by row through stdin."""

    name: str
    argv: tuple[str, ...]
    kernel: str
    rows: int
    dim: int

    def build(self, seed: int) -> list[str]:
        return list(self.argv)

    def inputs(self, seed: int):
        """(points, lines): the N(0,1) rows and their CSV text, one line per row."""
        import numpy as np

        rng = np.random.default_rng(seed)
        if self.dim == 1:
            points = rng.standard_normal(self.rows)
            lines = [f"{float(x)!r}\n" for x in points]
        else:
            points = rng.standard_normal((self.rows, self.dim))
            lines = [",".join(repr(float(v)) for v in row) + "\n" for row in points]
        return points, lines


@dataclass(frozen=True)
class Simulate:
    """``ustatcs simulate`` on a pinned power config."""

    name: str
    config: dict

    def config_text(self, seed: int) -> str:
        return json.dumps({**self.config, "seed": seed}, indent=2) + "\n"

    def build(self, seed: int) -> str:
        """The config text, validated the way ``simulate`` reads it."""
        from ustatcs.simharness import ExperimentConfig

        text = self.config_text(seed)
        ExperimentConfig.from_json(text)
        return text

    @property
    def ops_per_pass(self) -> int:
        return self.config["reps"] * len(self.config["delta_grid"])


WORKLOADS = {
    w.name: w
    for w in (
        Stream(
            name="stream-gmd",
            argv=("cs", "-", "--kernel", "gmd", *STREAM_FLAGS),
            kernel="gmd",
            rows=20_000,
            dim=1,
        ),
        Stream(
            name="stream-mmd",
            argv=("test", "-", "--kernel", "mmd-gauss", "--theta0", "0.0", *STREAM_FLAGS),
            kernel="mmd-gauss",
            rows=4_000,
            dim=2,
        ),
        Simulate(name="mc-power", config=MC_POWER_CONFIG),
    )
}
