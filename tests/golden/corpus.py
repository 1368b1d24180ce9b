"""The golden corpus: fixed CLI runs on seeded inputs, and the sha256 of
what each run writes.

Each run calls ``ustatcs.cli.main`` in-process with a fixed argv:

* ``cs``, ``cs --classical`` and ``test --theta0 0.5`` on the four kernels,
  with each of the two Gaussian boundaries, at ``--m 100``;
* ``spectrum`` on the four kernels;
* ``test --kernel mmd-gauss`` under each weight scheme, with and without
  ``--subsample-w 0.67``;
* ``simulate`` on a tiny config of each of the four experiments, CSVs and
  SVGs.

A stream or spectrum run reads a kernel's input file (standard normals
from ``default_rng(5)``: 1500 rows, or 600 pairs for mmd-gauss) and is
digested by its stdout; a ``simulate`` run is digested file by file.

The digests depend on the numerical stack as well as on the code: np.dot,
eigvalsh, BLAS dsymv and ARPACK run on nearly every path, and an OpenBLAS
built with DYNAMIC_ARCH picks its kernels by CPU.  So the corpus records
the stack it was generated on, and ``tests/test_golden.py`` compares
digests only on that stack.

Regenerate ``digests.json`` after a change that means to move an output
(and name the moved runs, and why, in CHANGES.md)::

    python3 tests/golden/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("digests.json")

# each kernel's input: standard normals from default_rng(5), in this shape
INPUT_SHAPES = {"variance": (1500,), "gmd": (1500,), "spatial-kendall": (1500, 2),
                "mmd-gauss": (600, 2)}

# tiny configs of the four experiments, so that the corpus runs in seconds
CONFIGS = {
    "coverage": {"experiment": "coverage", "kernel": "gmd", "m": 30, "n_max": 120,
                 "reps": 3, "seed": 1},
    "coldstart": {"experiment": "coldstart", "kernel": "gmd", "m": 40, "n_max": 120,
                  "m_grid": [20, 40], "reps": 2, "seed": 2},
    "power": {"experiment": "power", "kernel": "mmd-gauss", "m": 30, "n_max": 150,
              "reps": 2, "delta_grid": [0.0, 0.5], "classical_draws": 2000, "seed": 3},
    "weight-sensitivity": {"experiment": "weight-sensitivity", "kernel": "mmd-gauss",
                           "m": 30, "n_max": 120, "reps": 2, "b_grid": [2.0, 8.0],
                           "c_grid": [4.5], "seed": 4},
}


def runs() -> dict[str, list[str]]:
    """Every run's name and argv; ``{<kernel>}`` stands for the kernel's
    input file, ``{<experiment>.json}`` for the experiment's config and
    ``{out}`` for a fresh directory."""
    out = {}
    for kernel in INPUT_SHAPES:
        for boundary in ("lil", "gm"):
            stream = ["{%s}" % kernel, "--kernel", kernel, "--m", "100", "--boundary", boundary]
            out[f"cs {kernel} {boundary}"] = ["cs", *stream]
            out[f"cs --classical {kernel} {boundary}"] = ["cs", *stream, "--classical"]
            out[f"test --theta0 0.5 {kernel} {boundary}"] = ["test", *stream, "--theta0", "0.5"]
    for kernel in INPUT_SHAPES:
        out[f"spectrum {kernel}"] = ["spectrum", "{%s}" % kernel, "--kernel", kernel]
    for weights in ("poly:2", "exp:4.5", "data"):
        for w in ((), ("--subsample-w", "0.67")):
            argv = ["test", "{mmd-gauss}", "--kernel", "mmd-gauss", "--m", "100",
                    "--weights", weights, *w]
            out[" ".join(["test mmd-gauss", weights, *w])] = argv
    for name in CONFIGS:
        out[f"simulate {name}"] = ["simulate", "--config", "{%s.json}" % name, "--out", "{out}"]
    return out


def _write_inputs(tmp: Path) -> dict[str, str]:
    paths = {}
    for kernel, shape in INPUT_SHAPES.items():
        data = np.random.default_rng(5).standard_normal(shape)
        path = tmp / f"{kernel}.csv"
        rows = data.reshape(len(data), -1)
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        paths[kernel] = str(path)
    for name, config in CONFIGS.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(config))
        paths[f"{name}.json"] = str(path)
    return paths


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute() -> dict[str, dict[str, str]]:
    """Each run's digests: ``{"stdout": sha}``, or one sha per file written."""
    from ustatcs.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        paths = _write_inputs(tmp)
        for i, (name, argv) in enumerate(runs().items()):
            out = tmp / f"out{i}"
            paths["out"] = str(out)
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"run {name!r} exited {code}")
            if out.is_dir():
                digests[name] = {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())}
            else:
                digests[name] = {"stdout": _sha256(stdout.getvalue().encode())}
    return digests


def stack() -> dict[str, object]:
    """The numerical stack the digests depend on."""
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']} ({dep.get('openblas configuration', '')})"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def stack_differences(recorded: dict, current: dict) -> list[str]:
    """One line per entry of the stack that differs from the recorded one."""
    lines = []
    for key in sorted(set(recorded) | set(current)):
        was, now = recorded.get(key), current.get(key)
        if was != now:
            if isinstance(was, list) and isinstance(now, list):
                changes = (("here without", set(was) - set(now)), ("here with", set(now) - set(was)))
                lines.append(f"{key}: " + ", ".join(f"{how} {sorted(names)}"
                                                    for how, names in changes if names))
            else:
                lines.append(f"{key}: recorded {was!r}, here {now!r}")
    return lines


def main() -> None:
    corpus = {"stack": stack(), "runs": compute()}
    DIGESTS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, corpus['runs'].values()))} digests of "
          f"{len(corpus['runs'])} runs to {DIGESTS}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    main()
