import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ustatcs import cli
from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import normal_mixture_tail_inv
from ustatcs.cli import main
from ustatcs.kernels import KERNEL_IDS
from ustatcs.sequences import classical_ci, csv_header


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# cs
# ---------------------------------------------------------------------------


def test_cs_three_row_variance_hand_check(tmp_path, capsys):
    data = _write(tmp_path, "x.csv", "1\n3\n5\n")
    code, out, _ = _run(
        ["cs", data, "--kernel", "variance", "--m", "2", "--boundary", "gm"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,center,lo,hi,sigma_hat,boundary_value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3"]
    # U_2 = h(1,3) = 2; U_3 = (h(1,3)+h(1,5)+h(3,5))/3 = (2+8+2)/3 = 4
    assert float(rows[0][2]) == 2.0
    assert float(rows[1][2]) == 4.0


def test_cs_empty_input_header_only(tmp_path, capsys):
    data = _write(tmp_path, "empty.csv", "")
    code, out, _ = _run(["cs", data, "--kernel", "variance"], capsys)
    assert code == 0
    assert out.strip() == "n,method,center,lo,hi,sigma_hat,boundary_value"


def test_cs_default_cold_start_is_400(tmp_path, capsys):
    # at n = 2 the jackknife sigma-hat is exactly 0: a zero-width interval
    rows = np.random.default_rng(40).standard_normal(402)
    data = _write(tmp_path, "x.csv", "".join(f"{float(x)!r}\n" for x in rows))
    code, out, _ = _run(["cs", data, "--kernel", "gmd"], capsys)
    assert code == 0
    records = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in records] == ["400", "401", "402"]
    assert all(float(r[5]) > 0.0 for r in records)


def test_cs_short_input_below_cold_start(tmp_path, capsys):
    data = _write(tmp_path, "x.csv", "1\n2\n3\n")
    code, out, _ = _run(["cs", data, "--kernel", "variance", "--m", "100"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_cs_malformed_row_exit_3(tmp_path, capsys):
    data = _write(tmp_path, "bad.csv", "1\nnot-a-number\n3\n")
    code, _, err = _run(["cs", data, "--kernel", "variance"], capsys)
    assert code == 3
    assert "row 2" in err


@pytest.mark.parametrize("command", ["cs", "test"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_non_finite_row_exit_3(tmp_path, capsys, command, bad):
    # otherwise every later record is nan, and `test` reports a false reject=1
    data = _write(tmp_path, "bad.csv", f"0.1\n0.5\n{bad}\n0.3\n")
    code, out, err = _run([command, data, "--kernel", "gmd", "--m", "2"], capsys)
    assert code == 3
    assert "row 3" in err and "non-finite" in err
    assert "nan" not in out


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command", ["cs", "test", "spectrum"])
def test_overflowing_row_exit_3(tmp_path, capsys, command):
    # finite, but the variance kernel of 1e200 overflows: nan rows otherwise
    data = _write(tmp_path, "big.csv", "0.1\n0.5\n1e200\n0.3\n")
    argv = [command, data, "--kernel", "variance"]
    if command != "spectrum":  # spectrum has no cold start
        argv += ["--m", "2"]
    code, out, err = _run(argv, capsys)
    assert code == 3
    assert "row 3" in err and "non-finite" in err
    assert "nan" not in out


@pytest.mark.filterwarnings("ignore:overflow")
def test_second_moment_overflow_exit_3(tmp_path, capsys):
    # 2e77 overflows only the row sums' second moment, which no record has
    # read yet at row 3 (the cold start is 10): the row is refused all the same
    data = _write(tmp_path, "big.csv", "0\n0\n2e77\n1\n")
    code, out, err = _run(["cs", data, "--kernel", "variance", "--m", "10"], capsys)
    assert code == 3
    assert "row 3" in err and "non-finite" in err
    assert out.splitlines() == [csv_header()]


@pytest.mark.filterwarnings("ignore:overflow")
def test_row_refused_after_cold_start_exit_3(tmp_path, capsys):
    # the refusal comes from the monitor's push, after records were written
    data = _write(tmp_path, "big.csv", "0.1\n0.5\n0.3\n1e200\n0.2\n")
    code, out, err = _run(["test", data, "--kernel", "variance", "--m", "2"], capsys)
    assert code == 3
    assert "row 4" in err and "non-finite" in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2", "3"]


def test_record_error_exit_2_not_3(tmp_path, capsys, monkeypatch):
    # a ValueError raised while a record is built is not a data error: a nan
    # boundary gives a record that `test` refuses to read as a rejection
    from ustatcs import sequences

    monkeypatch.setattr(sequences, "gaussian_boundary", lambda n, p: math.nan)
    data = _write(tmp_path, "x.csv", "0.1\n0.5\n0.3\n")
    code, out, err = _run(["test", data, "--kernel", "gmd", "--m", "2"], capsys)
    assert code == 2
    assert "error: record at n=2 has a nan bound" in err
    assert "row" not in err and "Traceback" not in err
    assert out.splitlines() == ["n,method,center,boundary_value,reject,first_rejection_n"]


def test_cs_wrong_arity_exit_3(tmp_path, capsys):
    data = _write(tmp_path, "bad.csv", "1,2\n")
    code, _, err = _run(["cs", data, "--kernel", "variance"], capsys)
    assert code == 3
    assert "row 1" in err


def test_cs_invalid_alpha_exit_2(tmp_path, capsys):
    data = _write(tmp_path, "x.csv", "1\n2\n")
    code, _, err = _run(["cs", data, "--kernel", "variance", "--alpha", "1.5"], capsys)
    assert code == 2
    assert "alpha" in err


class _UnreadStdin:
    """Stands in for stdin; a read fails the test."""

    def _fail(self, *_):
        pytest.fail("input read before every setting was checked")

    __iter__ = read = readline = _fail


_STREAM_SETTINGS = [
    ("--alpha", "1.5", "alpha must be in (0,1), got 1.5"),
    ("--m", "1", "--m must be >= 2, got 1"),
    ("--eta", "1", "eta must be finite and > 1, got 1.0"),
    ("--eta", "nan", "eta must be finite and > 1, got nan"),
    ("--eta", "inf", "eta must be finite and > 1, got inf"),
    ("--s", "0.5", "s must be finite and > 1, got 0.5"),
    ("--s", "nan", "s must be finite and > 1, got nan"),
    ("--s", "inf", "s must be finite and > 1, got inf"),
    ("--trunc-a", "0.5", "trunc_exponent must lie in (0, 1/2), got 0.5"),
    ("--subsample-w", "1.5", "subsample_exponent must lie in (0, 1), got 1.5"),
    ("--weights", "poly:0.5", "polynomial weights need b > 1, got 0.5"),
    ("--weights", "bogus", "cannot parse weight scheme 'bogus'"),
    ("--weights", "poly:abc",
     "--weights: cannot parse weight scheme 'poly:abc'; use poly:<b>, exp:<c>, or data"),
    ("--weights", "exp:", "--weights: cannot parse weight scheme 'exp:'"),
    ("--weights", "poly:nan", "--weights: polynomial weights need b > 1, got nan"),
    ("--weights", "poly:inf", "--weights: weights need a finite parameter, got inf"),
    ("--weights", "exp:inf", "--weights: weights need a finite parameter, got inf"),
    ("--weights", "exp:1e308", "--weights: exp:1e+308 weights underflow: beta_2 = 0.0"),
    # test only: cs has no --theta0
    ("--theta0", "nan", "theta0 must be finite, got nan"),
    ("--theta0", "inf", "theta0 must be finite, got inf"),
]
_SPECTRUM_FLAGS = ("--alpha", "--trunc-a", "--subsample-w", "--weights")
_BOUNDARY_FLAGS = ("--alpha", "--eta", "--s")
_BAD_SETTINGS = (
    [
        ([cmd, "--kernel", kernel, flag, value], message)
        for cmd, kernel in (("cs", "gmd"), ("test", "mmd-gauss"))
        for flag, value, message in _STREAM_SETTINGS
        if flag != "--theta0" or cmd == "test"
    ]
    + [
        (["spectrum", "--kernel", "mmd-gauss", flag, value], message)
        for flag, value, message in _STREAM_SETTINGS
        if flag in _SPECTRUM_FLAGS
    ]
    + [
        (["boundary", flag, value], message)
        for flag, value, message in _STREAM_SETTINGS
        if flag in _BOUNDARY_FLAGS
    ]
)


@pytest.mark.parametrize(
    "argv, message", [pytest.param(a, msg, id=" ".join(a)) for a, msg in _BAD_SETTINGS]
)
def test_bad_setting_refused_before_first_byte(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cs", "{missing}", "--kernel", "gmd"],
        ["spectrum", "{missing}", "--kernel", "gmd"],
        ["cs", "{data}", "--kernel", "gmd", "--out", "{missing}/x.csv"],
        ["cs", "{missing}", "--kernel", "gmd", "--out", "{out}"],
    ],
    ids=["cs-input", "spectrum-input", "cs-out", "cs-input-and-out"],
)
def test_unopenable_path_exit_2(tmp_path, capsys, argv):
    paths = {
        "missing": str(tmp_path / "missing"),
        "data": _write(tmp_path, "x.csv", "1\n2\n3\n"),
        "out": str(tmp_path / "records.csv"),
    }
    code, out, err = _run([arg.format(**paths) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot open {tmp_path / 'missing'}" in err
    assert "Traceback" not in err
    # the input is opened first: a missing one leaves no output file
    assert not (tmp_path / "records.csv").exists()


def test_cs_unknown_flag_exit_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ustatcs.cli", "cs", "--kernel", "variance", "--frob", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_cs_output_round_trip_exact(tmp_path, capsys):
    rng = np.random.default_rng(123)
    data = _write(tmp_path, "x.csv", "\n".join(repr(float(v)) for v in rng.standard_normal(40)))
    out_path = str(tmp_path / "records.csv")
    code, _, _ = _run(
        ["cs", data, "--kernel", "gmd", "--m", "10", "--boundary", "lil", "--out", out_path],
        capsys,
    )
    assert code == 0
    # re-running over the re-parsed output centers reproduces them bitwise
    lines = open(out_path).read().strip().splitlines()[1:]
    for line in lines:
        center = line.split(",")[2]
        assert repr(float(center)) == center


def test_cs_broken_pipe_is_quiet():
    # downstream truncation (| head) must not produce a traceback
    rows = "\n".join(str(i % 7) for i in range(500))
    proc = subprocess.run(
        f"{sys.executable} -m ustatcs.cli cs - --kernel variance --m 2 "
        "--boundary gm | head -3",
        input=rows,
        shell=True,
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 3


def test_cs_stdin_streaming():
    proc = subprocess.run(
        [sys.executable, "-m", "ustatcs.cli", "cs", "--kernel", "variance", "--m", "2",
         "--boundary", "gm"],
        input="0\n1\n2\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3  # header + n=2 + n=3
    assert lines[1].startswith("2,AsympCS-GM,")


@pytest.mark.parametrize("kernel", ["gmd", "mmd-gauss"])
def test_cs_classical_follows_each_record(tmp_path, capsys, kernel):
    # each record line is followed by the Classical-CI line of the same n,
    # bit for bit what classical_ci gives on an accumulator fed the same rows
    rng = np.random.default_rng(21)
    pts = rng.standard_normal(60) if kernel == "gmd" else rng.standard_normal((60, 2))
    rows = [",".join(repr(v) for v in np.atleast_1d(x).tolist()) for x in pts]
    data = _write(tmp_path, "x.csv", "\n".join(rows))
    code, out, _ = _run(
        ["cs", data, "--kernel", kernel, "--m", "10", "--alpha", "0.1", "--classical"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == csv_header()
    acc = UStatAccumulator(kernel)
    expected = []
    for x in pts:
        acc.push(x)
        if acc.n >= 10:
            expected.append(classical_ci(acc, 0.1).csv_row())
    assert lines[2::2] == expected
    records = [line.split(",") for line in lines[1::2]]
    assert [r[0] for r in records] == [str(n) for n in range(10, 61)]
    assert {r[1] for r in records} == {"AsympCS-LIL" if kernel == "gmd" else "SAGE-LIL"}


def test_cs_degenerate_kernel_one_sided(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rng.standard_normal((30, 2)))
    data = _write(tmp_path, "pairs.csv", rows)
    code, out, _ = _run(
        ["cs", data, "--kernel", "mmd-gauss", "--m", "10", "--boundary", "gm"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows
    for line in rows:
        fields = line.split(",")
        assert fields[1] == "SAGE-GM"
        assert fields[4] == "inf"


# ---------------------------------------------------------------------------
# test subcommand
# ---------------------------------------------------------------------------


def test_test_subcommand_rejects_under_shift(tmp_path, capsys):
    rng = np.random.default_rng(6)
    pairs = np.column_stack([rng.standard_normal(120), rng.standard_normal(120) + 4.0])
    data = _write(tmp_path, "pairs.csv", "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pairs))
    code, out, _ = _run(
        ["test", data, "--kernel", "mmd-gauss", "--m", "20", "--boundary", "gm",
         "--theta0", "0"],
        capsys,
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[4] == "1"  # rejected
    assert int(last[5]) >= 20


def test_test_subcommand_null_mostly_accepts(tmp_path, capsys):
    rng = np.random.default_rng(7)
    pairs = np.column_stack([rng.standard_normal(80), rng.standard_normal(80)])
    data = _write(tmp_path, "pairs.csv", "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pairs))
    code, out, _ = _run(
        ["test", data, "--kernel", "mmd-gauss", "--m", "20", "--boundary", "gm"], capsys
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[4] == "0"


def test_deep_weight_underflow_names_scheme_and_index(tmp_path, capsys):
    # exp:700 passes the beta_2 check at construction; at n = 81 the
    # truncation reaches L = 3, where beta_3 = (1 - e^-700) e^-1400 = 0
    pairs = np.random.default_rng(1).standard_normal((200, 2))
    data = _write(tmp_path, "pairs.csv", "".join(f"{a!r},{b!r}\n" for a, b in pairs.tolist()))
    code, out, err = _run(
        ["test", data, "--kernel", "mmd-gauss", "--m", "50", "--weights", "exp:700"], capsys)
    assert code == 2
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        str(n) for n in range(50, 81)]
    assert err == ("ustatcs test: error: exp:700 weights underflow at index 3 of L = 3: "
                   "alpha * beta_3 = 0.0\n")


@pytest.mark.parametrize("subsample", [None, "0.6"])
def test_store_past_physical_memory_exit_4(tmp_path, capsys, monkeypatch, subsample):
    # 4 MiB of "physical memory" holds a 512-row store but not a 1024-row one
    from ustatcs import accumulator

    monkeypatch.setattr(accumulator, "_PHYSICAL_MEMORY", 4 << 20)
    pairs = np.random.default_rng(10).standard_normal((600, 2))
    data = _write(tmp_path, "pairs.csv", "".join(f"{a!r},{b!r}\n" for a, b in pairs.tolist()))
    argv = ["test", data, "--kernel", "mmd-gauss", "--m", "300"]
    code, out, err = _run(argv + (["--subsample-w", subsample] if subsample else []), capsys)
    last = out.strip().splitlines()[-1].split(",")[0]
    if subsample:
        assert (code, last) == (0, "600")
    else:
        # refused at row 513, whose push would grow the store to 1024 rows
        assert (code, last) == (4, "512")
        assert "--subsample-w" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_table_closed_forms_at_m(capsys):
    code, out, _ = _run(
        ["boundary", "--alpha", "0.05", "--m", "400", "--n-max", "2000", "--points", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,kind,value"
    by_kind = {}
    for line in lines[1:]:
        n, kind, value = line.split(",")
        by_kind.setdefault(kind, []).append((int(n), float(value)))
    assert by_kind["lil"][0][0] == 400
    assert by_kind["lil"][0][1] == pytest.approx(0.15464206738152305, rel=1e-12)
    assert by_kind["gm"][0][1] == pytest.approx(
        normal_mixture_tail_inv(0.05) / math.sqrt(400), rel=1e-12
    )
    for vals in by_kind.values():
        seq = [v for _, v in vals]
        assert seq == sorted(seq, reverse=True)


def test_boundary_grid_monotone_in_alpha(capsys):
    outs = {}
    for alpha in ("0.01", "0.1"):
        code, out, _ = _run(
            ["boundary", "--alpha", alpha, "--m", "100", "--n-max", "1000",
             "--points", "6", "--kind", "gm"],
            capsys,
        )
        assert code == 0
        outs[alpha] = [float(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
    assert all(a > b for a, b in zip(outs["0.01"], outs["0.1"]))


def test_boundary_bad_range_exit_2(capsys):
    code, _, err = _run(["boundary", "--m", "100", "--n-max", "50"], capsys)
    assert code == 2
    assert "n-max" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_dump_trace_identity(tmp_path, capsys):
    rng = np.random.default_rng(8)
    pairs = np.column_stack([rng.standard_normal(150), rng.standard_normal(150)])
    data = _write(tmp_path, "pairs.csv", "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pairs))
    code, out, _ = _run(
        ["spectrum", data, "--kernel", "mmd-gauss", "--weights", "poly:2"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,lambda_hat,beta,contribution_plus,contribution_minus"
    # independent trace oracle from the raw file
    acc = UStatAccumulator("mmd-gauss")
    for x in pairs:
        acc.push(x)
    expected = acc.diag_sum / acc.n - acc.ustat()
    trace = [l for l in lines if l.startswith("trace,")][0]
    assert float(trace.split(",")[1]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("weights", ["data", "poly:2", "exp:3"])
def test_spectrum_minus_side_matches_oracle(tmp_path, capsys, weights):
    # spatial Kendall's spectrum has both signs.  The minus side comes from
    # the mirror; an independent oracle rebuilds it from the dumped lambdas:
    # sums over lambda < 0, weights allocate_weights(scheme, -lambda)
    from ustatcs.spectral import allocate_weights, parse_weights

    rng = np.random.default_rng(12)
    pts = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    data = _write(tmp_path, "pts.csv", "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()))
    code, out, _ = _run(
        ["spectrum", data, "--kernel", "spatial-kendall", "--weights", weights,
         "--trunc-a", "0.45"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    rows = [l.split(",") for l in lines[1:] if l[0].isdigit()]
    sums = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:] if not l[0].isdigit()}
    lam = np.array([float(r[1]) for r in rows])
    below = lam < 0.0
    assert below.any() and (lam > 0.0).any()
    w = allocate_weights(parse_weights(weights), -lam)
    ginv2 = 0.0
    for i in np.flatnonzero(below):
        assert float(rows[i][2]) == w[i]
        assert float(rows[i][4]) == lam[i] * math.log(1.0 / w[i])
        a = normal_mixture_tail_inv(float(0.05 * w[i]))
        ginv2 += float(lam[i]) * a * a
    assert sums["sum_neg"] == float(lam[below].sum())
    assert sums["sum_neg_logw"] == float((lam[below] * -np.log(w[below])).sum())
    assert sums["sum_neg_ginv2"] == ginv2
    assert list(sums) == ["trace", "sum_pos", "sum_neg", "sum_pos_logw", "sum_neg_logw",
                          "sum_pos_ginv2", "sum_neg_ginv2"]


def test_spectrum_minus_side_prints_no_negative_zero(tmp_path, capsys):
    # variance on +-1 rows: one lambda < 0 whose data-driven weight is 1, so
    # its contribution is -lambda log(1/1) = 0, printed as 0.0
    rows = np.random.default_rng(8).choice([-1.0, 1.0], size=120)
    data = _write(tmp_path, "x.csv", "".join(f"{v!r}\n" for v in rows.tolist()))
    code, out, _ = _run(["spectrum", data, "--kernel", "variance", "--weights", "data"], capsys)
    assert code == 0
    lines = out.splitlines()
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) < 0.0 and first[2:] == ["1.0", "0.0", "0.0"]
    assert "-0.0" not in [cell for line in lines for cell in line.split(",")]


def test_spectrum_subsampled_stores_leading_block_only(tmp_path, capsys):
    # a store of every row would need 32768^2 doubles (8.6 GB) at n = 16385
    rows = np.random.default_rng(9).standard_normal(20_000)
    data = _write(tmp_path, "x.csv", "".join(f"{float(x)!r}\n" for x in rows))
    code, out, _ = _run(["spectrum", data, "--kernel", "gmd", "--subsample-w", "0.5"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("1,")


def test_spectrum_store_sized_to_the_rows_read(tmp_path, capsys, monkeypatch):
    # 1 MiB holds the 300^2 doubles that spectrum reads, not a 512-row store
    from ustatcs import accumulator

    monkeypatch.setattr(accumulator, "_PHYSICAL_MEMORY", 1 << 20)
    pairs = np.random.default_rng(11).standard_normal((300, 2))
    data = _write(tmp_path, "pairs.csv", "".join(f"{a!r},{b!r}\n" for a, b in pairs.tolist()))
    code, out, err = _run(["spectrum", data, "--kernel", "mmd-gauss"], capsys)
    assert code == 0, err
    assert out.splitlines()[1].startswith("1,")


@pytest.mark.parametrize("text, n", [("", 0), ("\n0.0,0.0\n\n", 1)], ids=["no_rows", "one_row"])
def test_spectrum_too_few_rows_exit_3(tmp_path, capsys, text, n):
    # too few rows is a fault of the data, found after reading it: exit 3,
    # with the row count, and no header
    data = _write(tmp_path, "few.csv", text)
    code, out, err = _run(["spectrum", data, "--kernel", "mmd-gauss"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"ustatcs spectrum: input error: need at least 2 rows, got {n}\n"


@pytest.mark.parametrize(
    "flag", [("--m", "5"), ("--eta", "2"), ("--s", "1.4"), ("--boundary", "lil"), ("--seed", "0")]
)
def test_spectrum_rejects_monitor_flags_exit_2(tmp_path, capsys, flag):
    # spectrum reads no cold start, boundary or seed, so it does not parse them
    data = _write(tmp_path, "pairs.csv", "0.0,0.0\n1.0,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", data, "--kernel", "mmd-gauss", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _coverage_config(tmp_path, **overrides):
    cfg = {
        "experiment": "coverage",
        "kernel": "gmd",
        "dist": {"family": "gaussian", "mean": 0.0, "variance": 1.0},
        "alpha": 0.05,
        "m": 30,
        "n_max": 90,
        "reps": 1,
        "seed": 11,
    }
    cfg.update(overrides)
    return _write(tmp_path, "cfg.json", json.dumps(cfg))


def test_simulate_coverage_smoke(tmp_path, capsys):
    cfg = _coverage_config(tmp_path)
    outdir = str(tmp_path / "out")
    code, _, err = _run(["simulate", "--config", cfg, "--out", outdir], capsys)
    assert code == 0
    assert "terminal cumulative miscoverage" in err
    csv = open(f"{outdir}/coverage_coverage.csv").read().splitlines()
    assert csv[0] == "n,method,cum_miscoverage,mean_halfwidth"
    # one row per method per monitoring time
    assert len(csv) - 1 == 3 * (90 - 30 + 1)
    svg = open(f"{outdir}/coverage_coverage.svg").read(60)
    assert svg.startswith("<svg")


def test_simulate_unknown_key_exit_2(tmp_path, capsys):
    cfg = _coverage_config(tmp_path, horizon=99)
    code, _, err = _run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    code, _, err = _run(["simulate", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert f"error: cannot open {tmp_path / 'nope.json'}" in err


def test_simulate_unwritable_out_exit_2_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = _coverage_config(tmp_path)
    blocker = _write(tmp_path, "notadir", "")
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("the experiment ran"))
    before = sorted(tmp_path.iterdir())
    code, out, err = _run(["simulate", "--config", cfg, "--out", f"{blocker}/x"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"error: cannot create {blocker}/x" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before and open(blocker).read() == ""


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dist": {"family": "t10"}}, "no closed-form theta for kernel 'gmd' under 't10'"),
        ({"kernel": "spatial-kendall"},
         "no closed-form theta for kernel 'spatial-kendall' under 'gaussian'"),
        ({"experiment": "power"}, "the power experiment needs the mmd-gauss kernel"),
        ({"experiment": "weight-sensitivity", "kernel": "variance"},
         "the weight-sensitivity experiment needs the mmd-gauss kernel"),
        # each setting is refused by the object that owns it, built at load
        ({"alpha": 1.5}, "alpha must be in (0,1), got 1.5"),
        ({"eta": 1.0}, "eta must be finite and > 1, got 1.0"),
        ({"classical_draws": 10}, "draws must be >= 1000, got 10"),
        ({"experiment": "weight-sensitivity", "kernel": "mmd-gauss", "b_grid": [1.0]},
         "polynomial weights need b > 1, got 1.0"),
        ({"experiment": "weight-sensitivity", "kernel": "mmd-gauss", "b_grid": [math.inf]},
         "weights need a finite parameter, got inf"),
        # get_kernel's ValueError, printed as it is
        ({"kernel": "foo"}, f"unknown kernel 'foo'; available: {list(KERNEL_IDS)}"),
        ({"grid_ratio": math.nan}, "grid ratio must be finite and > 1, got nan"),
        ({"experiment": "power", "kernel": "mmd-gauss", "dist": {"family": "elliptical"}},
         "kernel 'mmd-gauss' cannot take the 'elliptical' family"),
        ({"experiment": "power", "kernel": "mmd-gauss", "dist": {"shift": -0.5}},
         "shift must be finite and >= 0, got -0.5"),
        ({"experiment": "power", "kernel": "mmd-gauss", "dist": {"shift": 0.5}},
         "the power experiment sets the shift from delta_grid (or 0), so dist.shift must be 0, "
         "got 0.5"),
        ({"experiment": "power", "kernel": "mmd-gauss", "delta_grid": []},
         "the power experiment needs a nonempty delta_grid"),
        ({"experiment": "coldstart", "m_grid": []},
         "the coldstart experiment needs a nonempty m_grid"),
        ({"reps": 2.5}, "reps must be an integer, got 2.5"),
        ({"classical_draws": 2000.0}, "classical_draws must be an integer, got 2000.0"),
        ({"seed": -1}, "expected non-negative integer"),
    ],
    ids=["coverage-gmd-t10", "coverage-kendall-gaussian", "power-gmd", "weights-variance",
         "alpha", "eta", "classical-draws", "b-grid", "b-grid-inf", "unknown-kernel",
         "grid-ratio-nan", "mmd-elliptical",
         "negative-shift", "power-shift", "empty-delta-grid", "empty-m-grid", "reps-float",
         "classical-draws-float", "negative-seed"],
)
def test_simulate_impossible_config_exit_2_leaves_no_directory(tmp_path, capsys, overrides,
                                                               message):
    cfg = _coverage_config(tmp_path, **overrides)
    outdir = tmp_path / "out"
    code, out, err = _run(["simulate", "--config", cfg, "--out", str(outdir)], capsys)
    assert (code, out) == (2, "")
    assert err == f"ustatcs simulate: error: {message}\n"
    assert not outdir.exists()


def test_simulate_seed_override_changes_output(tmp_path, capsys):
    cfg = _coverage_config(tmp_path, reps=2)
    out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
    for outdir, seed in ((out1, None), (out2, "11"), (out3, "12")):
        argv = ["simulate", "--config", cfg, "--out", outdir, "--no-svg"]
        if seed is not None:
            argv += ["--seed", seed]
        assert _run(argv, capsys)[0] == 0
    read = lambda d: open(f"{d}/coverage_coverage.csv", "rb").read()
    assert read(out1) == read(out2)  # same seed as config
    assert read(out1) != read(out3)


# ---------------------------------------------------------------------------
# parsed flags
# ---------------------------------------------------------------------------

# parsed and never read, with the reason: the benchmark's stream workloads
# pass --seed to cs and test (ROADMAP item 8)
_UNREAD_ALLOWED = {("cs", "seed"), ("test", "seed")}


@pytest.mark.parametrize("argv", [
    ["cs", "{x}", "--kernel", "gmd", "--m", "2", "--classical"],
    ["test", "{pairs}", "--kernel", "mmd-gauss", "--m", "2"],
    ["simulate", "--config", "{config}", "--out", "{out}", "--no-svg"],
    ["boundary", "--n-max", "500", "--points", "3"],
    ["spectrum", "{pairs}", "--kernel", "mmd-gauss"],
], ids=lambda argv: argv[0])
def test_every_parsed_flag_is_read(tmp_path, capsys, monkeypatch, argv):
    paths = {
        "x": _write(tmp_path, "x.csv", "0.5\n-1.0\n2.0\n"),
        "pairs": _write(tmp_path, "pairs.csv", "0.5,0.1\n-1.0,0.3\n2.0,-0.7\n"),
        "config": _coverage_config(tmp_path),
        "out": str(tmp_path / "out"),
    }
    parsed, reads = {}, set()

    class Recorded(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    build = cli._build_parser

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(args=None):
            parsed.update(vars(parse(args)))
            return Recorded(**parsed)

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording_parser)
    code, _, err = _run([arg.format(**paths) for arg in argv], capsys)
    assert code == 0, err
    unread = {(argv[0], dest) for dest in parsed if dest not in reads} - _UNREAD_ALLOWED
    assert not unread


# ---------------------------------------------------------------------------
# import budget
# ---------------------------------------------------------------------------

# runs in a fresh interpreter: feeds ``rows`` N(0,1) rows of dimension
# ``dim`` to cli.main(argv) through stdin, with spectral.eigsh counted, and
# prints the exit code, records, eigsh calls and loaded scipy modules
_FRESH_RUN = """
import io, json, sys
import numpy as np
from ustatcs import cli, spectral

argv, rows, dim = json.loads(sys.argv[1])
solves = []
arpack = spectral.eigsh
spectral.eigsh = lambda *a, **kw: solves.append(1) or arpack(*a, **kw)
pts = np.random.default_rng(41).standard_normal((rows, dim))
sys.stdin = io.StringIO("".join(",".join(map(repr, p.tolist())) + "\\n" for p in pts))
sys.stdout = out = io.StringIO()
code = cli.main(argv)
sys.stdout = sys.__stdout__
print(json.dumps({
    "code": code,
    "records": len(out.getvalue().splitlines()) - 1,
    "eigsh": len(solves),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def _fresh_run(argv, rows, dim):
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps([argv, rows, dim])],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_nondegenerate_cs_loads_no_scipy():
    # scipy serves the degenerate solve and the classical quantile only; the
    # nondegenerate monitor must not pay its import (about 35 MB and 0.4 s)
    res = _fresh_run(["cs", "-", "--kernel", "gmd"], 450, 1)
    assert (res["code"], res["records"]) == (0, 51)
    assert res["scipy"] == []


def test_degenerate_test_reaches_arpack_through_spectral_eigsh():
    # past the dense cutoff (N = 104) the solve resolves scipy at its first
    # call, through the module attribute that the benchmark's tracer wraps
    res = _fresh_run(["test", "-", "--kernel", "mmd-gauss", "--m", "100"], 130, 2)
    assert (res["code"], res["records"]) == (0, 31)
    assert res["eigsh"] > 0
    assert "scipy.sparse.linalg" in res["scipy"]
