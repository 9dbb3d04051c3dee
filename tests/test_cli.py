"""The command-line frontend: JSON documents, CSV series, exit codes."""

import csv
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tsvar import EvaluationError, VerifyConfig, cli, verify_candidate
from tsvar.calculus import GridFunction, cumulative_delta_integral, improper_integral
from tsvar.problemfile import load_problem_file
from tsvar.problems import (
    LQR_DECAY_ROOT,
    ex_neg,
    ex_pos,
    lqr_grid_truncation_oracle,
    lqr_ray,
)
from tsvar.timescale import format_timescale, tol_at
from tsvar.variational import _slope_margin_grid, el_residual, solve_truncated

from helpers import COMB

LQR_DOC = {
    "timescale": "arith(0, 1)",
    "a": 0.0,
    "x_a": [1.0],
    "lagrangian": {"L": "-(v1^2 + u1^2)", "d2": ["-2*u1"], "d3": ["-2*v1"]},
    "candidates": {
        "decay": ["((3 - sqrt(5))/2)^t"],
        "one": ["1"],
    },
}

RAY_DOC = {
    "timescale": "ray(0)",
    "a": 0.0,
    "x_a": [1.0],
    "lagrangian": {"L": "-(v1^2 + u1^2)"},
    "candidates": {"one": ["1"]},
}

PAIR_DOC = {
    "timescale": "arith(0, 1)",
    "a": 0.0,
    "x_a": [1.0, 0.0],
    "lagrangian": {"L": "-(v1^2 + v2^2 + u1^2 + u2^2)"},
    "candidates": {"flat": ["1", "0"]},
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# integrate


def test_integrate_lattice_window(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(capsys, ["integrate", f, "--expr", "t", "--to", "3"])
    assert code == 0
    assert doc["value"] == 3.0  # 0 + 1 + 2
    assert doc["from"] == 0.0 and doc["to"] == 3.0
    assert doc["mode"] == "window"


def test_integrate_point_window_is_zero(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--expr", "t^2", "--from", "2", "--to", "2"]
    )
    assert code == 0 and doc["value"] == 0.0


def test_integrate_empty_snapped_window_is_zero(tmp_path, capsys):
    f = write(tmp_path, PAIR_DOC)
    out = tmp_path / "empty.csv"
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--candidate", "flat", "--from", "2.2", "--to", "2.8",
                 "--csv", str(out)]
    )
    assert code == 0 and doc["value"] == [0.0, 0.0]
    assert out.read_bytes() == b"t,f1,f2,integral1,integral2\r\n"


def test_integrate_reversed_window_flips_sign(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--expr", "t", "--from", "3", "--to", "0"]
    )
    assert code == 0 and doc["value"] == -3.0


def test_integrate_snaps_endpoints_to_members(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--expr", "t", "--to", "3.7"]
    )
    assert code == 0
    assert doc["to"] == 3.0 and doc["value"] == 3.0


def test_integrate_dense_window(tmp_path, capsys):
    f = write(tmp_path, RAY_DOC)
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--expr", "t^2", "--to", "1", "--h", "0.001"]
    )
    assert code == 0
    assert abs(doc["value"] - 1.0 / 3.0) <= 1e-5


def test_integrate_vector_candidate(tmp_path, capsys):
    f = write(tmp_path, PAIR_DOC)
    code, doc, _ = run_cli(capsys, ["integrate", f, "--candidate", "flat", "--to", "3"])
    assert code == 0
    assert doc["value"] == [3.0, 0.0]
    assert doc["integrand"] == "candidate:flat"


def test_integrate_csv_series(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    out = tmp_path / "series.csv"
    code, doc, _ = run_cli(
        capsys, ["integrate", f, "--expr", "t", "--to", "3", "--csv", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "f1", "integral1"]
    assert len(rows) == 4
    assert float(rows[-1][0]) == 3.0
    assert float(rows[-1][2]) == doc["value"]


def test_integrate_value_is_the_csv_last_integral(tmp_path, capsys):
    """The reported value is the last prefix integral of the CSV, bit for
    bit, also on a dense window of 20001 nodes, where a pairwise sum of the
    cells and their running sum round apart; a reversed window reports it
    negated."""
    f = write(tmp_path, RAY_DOC)
    out = tmp_path / "series.csv"
    for lo, hi, sign in (("0", "20", 1.0), ("20", "0", -1.0)):
        code, doc, _ = run_cli(capsys, ["integrate", f, "--expr", "exp(-0.1*t)*sin(t)",
                                        "--from", lo, "--to", hi, "--h", "1e-3",
                                        "--csv", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "f1", "integral1"] and len(rows) == 20001
        assert doc["value"] == sign * float(rows[-1][2])
        assert abs(doc["value"] - sign * 0.92318479961763) <= 1e-12


def write_csv_per_row(path, header, rows):
    """The per-row CSV writer the array writer replaced: repr of each float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def test_array_csv_writer_matches_per_row_writer(tmp_path):
    """Byte for byte the csv module's output, at 1 to 5 columns and at row
    counts on either side of a chunk boundary, down to one row and none."""
    special = [1e-5, 1e16, -0.0, 3.0, 0.1 + 0.2, 1.2345678901234567, -2.0 / 3.0,
               5e-324, 1.7976931348623157e308, float("inf"), float("nan"),
               1e-4, 9.999999999999999e-05, 9999999999999998.0,
               np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
               2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
               *(2.0**-1074 * k for k in (2, 3, 7, 10)), float("-inf")]
    rng = np.random.default_rng(0)
    for ncols in (1, 2, 3, 5):
        chunk = cli.CSV_CHUNK_VALUES // ncols  # rows per chunk
        shape = (2 * chunk + 808, ncols)
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        data[:len(special), 0] = special
        data[:len(special), -1] = special[::-1]
        data[chunk, :] = np.resize(special, ncols)  # first row of the second chunk
        header = ["t"] + [f"c{j}" for j in range(1, ncols)]
        for n in (len(data), chunk + 1, chunk, chunk - 1, 1, 0):
            old, new = tmp_path / "old.csv", tmp_path / "new.csv"
            write_csv_per_row(old, header, data[:n])
            with cli._csv_file(new, header) as fh:
                cli._write_rows(fh, data[:n])
            assert new.read_bytes() == old.read_bytes(), (ncols, n)


def write_rows_peak(tmp_path, ncols):
    """tracemalloc peak of writing 200001 rows of ``ncols`` columns."""
    rows = np.random.default_rng(1).standard_normal((200001, ncols))
    header = ["t"] + [f"c{j}" for j in range(1, ncols)]
    tracemalloc.start()
    try:
        with cli._csv_file(tmp_path / "big.csv", header) as fh:
            cli._write_rows(fh, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_array_csv_writer_memory_is_one_chunk(tmp_path):
    """Formatting a chunk at a time keeps the writer's peak allocation at a
    chunk's worth, not the whole array's (about 25 MB of str here)."""
    assert write_rows_peak(tmp_path, 2) <= 1 << 20


@pytest.mark.parametrize("ncols", [1, 5])
def test_array_csv_writer_memory_does_not_grow_with_columns(tmp_path, ncols):
    """A chunk is a number of values, not of rows, so the bound holds at
    any column count (a 5-column integrate --csv took 1.86 MiB when a
    chunk was 4096 rows)."""
    assert write_rows_peak(tmp_path, ncols) <= 1 << 20


def oracle_csv_bytes(tmp_path, header, columns):
    """The bytes the per-row csv-module writer writes for ``columns``."""
    path = tmp_path / "oracle.csv"
    write_csv_per_row(path, header, np.column_stack(columns))
    return path.read_bytes()


def test_csv_series_bytes_match_the_csv_module(tmp_path):
    """residual, window integrate (two components, five columns) and solve
    each write exactly what the csv module writes for the same arrays, on
    dense grids longer than one chunk, and so does the improper integral's
    evidence."""
    lqr = write(tmp_path, lqr_ray().file_form(), "lqr.json")
    pf = load_problem_file(lqr)
    prob, out = pf.problem, tmp_path / "cli.csv"

    assert cli.main(["residual", lqr, "--candidate", "decaying-exp", "--window",
                     "0", "5", "--h", "1e-3", "--csv", str(out)]) == 0
    gf = GridFunction.from_callable(_slope_margin_grid(prob.ts, prob.a, 5.0, 1e-3),
                                    pf.candidate("decaying-exp"))
    res = el_residual(prob, gf)
    keep = res.grid.nodes <= 5.0 + tol_at(5.0)
    assert keep.sum() > cli.CSV_CHUNK_VALUES // 2  # rows of two columns
    assert out.read_bytes() == oracle_csv_bytes(
        tmp_path, ["t", "residual1"], (res.grid.nodes[keep], res.values[keep]))

    wave = write(tmp_path, dict(PAIR_DOC, timescale="ray(0)",
                                 candidates={"wave": ["exp(-t)", "sin(3*t)"]}),
                 "wave.json")
    assert cli.main(["integrate", wave, "--candidate", "wave", "--to", "5",
                     "--h", "1e-3", "--csv", str(out)]) == 0
    wave_pf = load_problem_file(wave)
    grid = wave_pf.problem.ts.build_grid(0.0, 5.0, 1e-3)
    gf = GridFunction.from_callable(grid, wave_pf.candidate("wave"), extend=False)
    assert out.read_bytes() == oracle_csv_bytes(
        tmp_path, ["t", "f1", "f2", "integral1", "integral2"],
        (grid.nodes, gf.values, cumulative_delta_integral(gf)))

    assert cli.main(["solve", lqr, "--T", "3", "--h", "0.02", "--csv", str(out)]) == 0
    traj = solve_truncated(prob, 3.0, None, h=0.02, params=pf.solve_params()).trajectory
    assert out.read_bytes() == oracle_csv_bytes(
        tmp_path, ["t", "x1"], (traj.grid.nodes, traj.x.values))

    assert cli.main(["integrate", lqr, "--candidate", "decaying-exp", "--improper",
                     "--horizons", "10,20,30,40,50", "--csv", str(out)]) == 0
    est = improper_integral(prob.ts, pf.candidate("decaying-exp"), prob.a,
                            [10.0, 20.0, 30.0, 40.0, 50.0], h=pf.h, config=pf.limit_config())
    assert out.read_bytes() == oracle_csv_bytes(
        tmp_path, ["t_prime", "partial_integral"], tuple(np.array(est.evidence).T))


def test_integrate_csv_memory_has_no_table(tmp_path, capsys):
    """tracemalloc peak of tsvar integrate --csv over a 200001-node window
    of the ray: at most 65 bytes per row (55.3 measured; 79.3 when the nodes,
    samples and prefix integral were stacked into one full-length table for
    the CSV).  Full length are the grid (nodes, mu, flags), the samples and
    the prefix integral; the rest is the CSV chunks.  An untraced run on a
    short window first takes the one-time costs out of the traced one."""
    f = write(tmp_path, RAY_DOC)
    out = tmp_path / "i.csv"
    argv = ["integrate", f, "--expr", "exp(-0.1*t)*sin(t)", "--h", "1e-4",
            "--csv", str(out), "--to"]
    assert cli.main(argv + ["0.1"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv + ["20"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = out.read_bytes().count(b"\n") - 1
    assert code == 0 and rows == 200001
    assert json.loads(capsys.readouterr().out)["to"] == 20.0
    assert peak / rows <= 65.0


def test_integrate_improper_converged(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(
        capsys,
        ["integrate", f, "--expr", "2^-t", "--improper",
         "--horizons", "10,20,30,40,50,60,70,80"],
    )
    assert code == 0
    est = doc["estimate"]
    assert est["kind"] == "converged"
    assert abs(est["value"] - 2.0) <= 1e-6
    assert doc["horizons"] == [float(v) for v in range(10, 81, 10)]


def test_integrate_improper_divergent(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, _ = run_cli(
        capsys,
        ["integrate", f, "--expr", "1", "--improper",
         "--horizons", "5,10,15,20,25"],
    )
    assert code == 0
    assert doc["estimate"]["kind"] == "diverges_plus"


def test_integrate_improper_csv(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    out = tmp_path / "partials.csv"
    code, doc, _ = run_cli(
        capsys,
        ["integrate", f, "--expr", "2^-t", "--improper",
         "--horizons", "10,20,30,40,50", "--csv", str(out)],
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t_prime", "partial_integral"]
    assert len(rows) == 5
    assert abs(float(rows[0][1]) - (2.0 - 2.0**-9)) <= 1e-12


def test_integrate_argument_errors(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(capsys, ["integrate", f, "--expr", "t", "--improper"])
    assert code == 2 and "--horizons" in err
    code, _, err = run_cli(capsys, ["integrate", f, "--expr", "t"])
    assert code == 2 and "--to" in err
    code, _, err = run_cli(capsys, ["integrate", f, "--expr", "2 +", "--to", "3"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", f, "--expr", "t", "--improper", "--horizons", "1,2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", f, "--expr", "t", "--candidate", "one", "--to", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", f, "--to", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("horizons", ["10,x,30,40,50", "10;20;30"])
def test_malformed_horizons_exit_2(tmp_path, capsys, horizons):
    f = write(tmp_path, LQR_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", f, "--expr", "t", "--improper", "--horizons", horizons])
    assert exc.value.code == 2
    assert "horizons must be a comma-separated list of numbers" in capsys.readouterr().err


def test_candidate_dividing_by_zero_is_refused_by_the_probe(tmp_path, capsys):
    f = write(tmp_path, {**LQR_DOC, "candidates": {"bad": ["1/0 + t"]}})
    code, _, err = run_cli(capsys, ["integrate", f, "--candidate", "bad", "--to", "3"])
    assert code == 2 and "not finite" in err


def test_expr_dividing_by_zero_exits_3(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(capsys, ["integrate", f, "--expr", "1/0", "--to", "3"])
    assert code == 3 and "grid function values must be finite" in err


@pytest.mark.parametrize(
    "expr",
    ["(" * 300 + "t" + ")" * 300, "-" * 3000 + "t", "+".join(["t"] * 5000)],
    ids=["parentheses", "unary-minus", "sum"],
)
def test_expr_nested_too_deeply_exits_2(tmp_path, capsys, expr):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(capsys, ["integrate", f, f"--expr={expr}", "--to", "3"])
    assert code == 2 and err.startswith("error: ") and len(err) < 200


@pytest.mark.parametrize("where", ["integrand", "expr", "timescale"])
def test_nesting_that_overflows_the_parser_stack_exits_2(tmp_path, capsys, where):
    """Ten thousand unary minuses, or three thousand powers, make Python's
    parser raise MemoryError: in an integrand, an --expr or a time scale,
    the command exits 2 with an error line, as shallower nesting does."""
    deep = "-" * 10000
    doc = dict(LQR_DOC)
    argv = ["verify", "--candidate", "one", "--t-max", "8"]
    if where == "integrand":
        doc["lagrangian"] = {"L": deep + "v1"}
    elif where == "timescale":
        doc["timescale"] = "arith(" + deep + "0, 1)"
    else:
        argv = ["integrate", "--expr=" + "^".join(["t"] * 3000), "--to", "3"]
    code, _, err = run_cli(capsys, argv[:1] + [write(tmp_path, doc)] + argv[1:])
    assert code == 2 and err.startswith("error: ") and "nested too deeply" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "timescale",
    [
        [{"kind": "interval", "lo": 0}],
        [{"kind": "ray", "start": "zero"}],
        {"kind": "ray", "start": 0},
        [{"kind": "interval", "lo": 0, "hi": 2}, {"kind": "ray", "start": 1}],
    ],
    ids=["missing-key", "non-numeric", "lone-mapping", "overlap"],
)
def test_malformed_structured_timescale_exits_2(tmp_path, capsys, timescale):
    f = write(tmp_path, dict(RAY_DOC, timescale=timescale))
    assert cli.main(["verify", f, "--candidate", "one", "--t-max", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# residual


def test_residual_of_extremals(tmp_path, capsys):
    pos = write(tmp_path, ex_pos().file_form(), "pos.json")
    for cand, tol in (("const", 1e-12), ("line", 1e-9)):
        code, doc, _ = run_cli(
            capsys, ["residual", pos, "--candidate", cand, "--window", "0", "10"]
        )
        assert code == 0
        assert doc["sup_norm"] <= tol
        assert doc["nodes"] == 11


def test_residual_csv_and_default_window(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    out = tmp_path / "res.csv"
    code, doc, _ = run_cli(
        capsys, ["residual", f, "--candidate", "decay", "--csv", str(out)]
    )
    assert code == 0
    assert doc["window"] == [0.0, 40.0]
    assert doc["sup_norm"] <= 1e-12
    header, rows = read_csv(out)
    assert header == ["t", "residual1"]
    assert len(rows) == doc["nodes"]


def test_residual_window_without_nodes(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(
        capsys, ["residual", f, "--candidate", "one", "--window", "0.2", "0.8"]
    )
    assert code == 3 and "window" in err


#: a ray problem whose integrand is not finite past t = 5: its residual is
#: finite on the first block of the grid (calculus._BLOCK cells, t <= 3.2768
#: at h = 1e-4) and not on the second
LATE_NAN_DOC = {
    "timescale": "ray(0)",
    "a": 0.0,
    "x_a": [1.0],
    "lagrangian": {"L": "-(v1^2 + u1^2) * sqrt(5 - t)"},
    "candidates": {"decay": ["exp(-t)"]},
}


def test_failed_residual_leaves_the_csv_as_it_was(tmp_path, capsys, monkeypatch):
    """The residual's rows are written block by block, so a residual that
    turns non-finite in a later block fails after rows were written: the
    command exits 3, the file at the CSV path keeps its bytes and mode, a
    path with no file gets none, and no temporary file is left.  verify on
    the same problem fails with the same error."""
    f = write(tmp_path, LATE_NAN_DOC)
    old = tmp_path / "old.csv"
    old.write_bytes(b"t,residual1\r\n1.0,2.0\r\n")
    old.chmod(0o640)
    written = []
    write_rows = cli._write_rows
    monkeypatch.setattr(cli, "_write_rows",
                        lambda fh, *cols: written.append(len(cols[0])) or write_rows(fh, *cols))
    for out in (old, tmp_path / "new.csv"):
        written.clear()
        code, doc, err = run_cli(capsys, ["residual", f, "--candidate", "decay", "--window",
                                          "0", "8", "--h", "1e-4", "--csv", str(out)])
        assert (code, doc) == (3, None) and err == "error: grid function values must be finite\n"
        assert sum(written) == 32769  # the first block's rows, t = 0 .. 3.2768
    assert old.read_bytes() == b"t,residual1\r\n1.0,2.0\r\n"
    assert old.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "problem.json"]
    code, doc, _ = run_cli(capsys, ["residual", f, "--candidate", "decay",
                                    "--window", "0", "3", "--h", "1e-4", "--csv", str(old)])
    assert code == 0 and doc["nodes"] == 30001
    code, doc, err2 = run_cli(capsys, ["verify", f, "--candidate", "decay", "--t-max", "8",
                                       "--h", "1e-4"])
    assert (code, doc, err2) == (3, None, err)
    pf = load_problem_file(f)
    with pytest.raises(EvaluationError, match="finite"):
        verify_candidate(pf.problem, pf.candidate("decay"), VerifyConfig(t_max=8.0, h=1e-4))


def test_csv_file_gets_the_mode_plain_open_gives(tmp_path, capsys):
    """A new CSV gets mode 0o666 less the umask, a CSV replacing a file
    keeps that file's mode, and a CSV named by a symbolic link is written
    to the link's target, the link left as it is."""
    f = write(tmp_path, LQR_DOC)
    argv = ["residual", f, "--candidate", "decay", "--window", "0", "5", "--csv"]
    umask = os.umask(0o027)
    try:
        assert cli.main(argv + [str(tmp_path / "new.csv")]) == 0
    finally:
        os.umask(umask)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    kept.chmod(0o604)
    assert cli.main(argv + [str(kept)]) == 0
    assert kept.stat().st_mode & 0o777 == 0o604
    link = tmp_path / "link.csv"
    link.symlink_to(kept)
    kept.write_text("old")
    assert cli.main(argv + [str(link)]) == 0
    assert link.is_symlink() and kept.read_bytes() == (tmp_path / "new.csv").read_bytes()
    capsys.readouterr()


def test_csv_to_a_pipe_is_written_in_place(tmp_path, capsys):
    """A path that is not a regular file is opened and written as it is,
    not replaced by a file: a named pipe, and /dev/stdout when it is a pipe
    (whose resolved name, /proc/<pid>/fd/pipe:[...], names no file)."""
    f = write(tmp_path, LQR_DOC)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["residual", f, "--candidate", "decay", "--window", "0", "5",
                     "--csv", str(pipe)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert cli.main(["residual", f, "--candidate", "decay", "--window", "0", "5",
                     "--csv", str(tmp_path / "file.csv")]) == 0
    assert got == [(tmp_path / "file.csv").read_bytes()]
    capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "tsvar", "residual", f, "--candidate", "decay", "--window",
         "0", "5", "--csv", "/dev/stdout"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)
    assert cli.main(["residual", f, "--candidate", "decay", "--window", "0", "5"]) == 0
    doc = capsys.readouterr().out.encode()
    assert proc.returncode == 0 and proc.stdout == got[0] + doc


def test_residual_csv_memory_is_block_sized(tmp_path, capsys):
    """tracemalloc peak of tsvar residual --csv on 100001 rows of lqr-r
    with finite-difference partials: at most 80 bytes per row (70.6
    measured; 105.5 when r, its d2, d3 and prefix-integral rows, its window
    rows and their column stack were held at full length).  Full length are
    the grid (nodes, mu, flags and cell weights, 33 bytes per node) and x's
    samples and slope; the rest is one block's partial rows, their finite
    differences, r and the CSV chunks, whose 2 MB weigh 20 bytes per row
    here.  An untraced run on a short window first takes the one-time costs
    (the encoder's tables, numpy.ma) out of the traced one."""
    doc = lqr_ray(1.268).file_form()
    del doc["lagrangian"]["d2"], doc["lagrangian"]["d3"]
    f = write(tmp_path, doc)
    argv = ["residual", f, "--candidate", "decaying-exp", "--h", "1e-4",
            "--csv", str(tmp_path / "r.csv"), "--window", "0"]
    assert cli.main(argv + ["0.1"]) == 0
    capsys.readouterr()
    argv.append("10")
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = json.loads(capsys.readouterr().out)["nodes"]
    assert code == 0 and rows == 100001
    assert peak / rows <= 80.0


@pytest.mark.parametrize("offset", ["1e7", "1e8"])
def test_residual_with_a_constant_added_to_l(tmp_path, capsys, offset):
    """A constant added to L leaves its exact partials, so the construction
    check accepts them and the residual reads the same; the check once
    refused them from 1e7 up, its central differences' rounding ~u |L| /
    delta above its bound.  A d2 10% off is still refused."""
    doc = lqr_ray(1.268).file_form()
    lag = doc["lagrangian"]

    def residual(**lagrangian):
        f = write(tmp_path, dict(doc, lagrangian=dict(lag, **lagrangian)))
        return run_cli(capsys, ["residual", f, "--candidate", "decaying-exp",
                                "--window", "0", "5", "--h", "1e-3"])

    code, plain, _ = residual()
    assert code == 0
    assert residual(L=f"{offset} + {lag['L']}") == (0, plain, "")
    code, out, err = residual(L=f"{offset} + {lag['L']}", d2=["-2.2*u1"])
    assert (code, out) == (3, None) and "d2 disagrees with finite differences" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_consistent_exits_zero(tmp_path, capsys):
    pos = write(tmp_path, ex_pos().file_form(), "pos.json")
    code, doc, _ = run_cli(
        capsys, ["verify", pos, "--candidate", "const", "--t-max", "25"]
    )
    assert code == 0
    assert doc["report"]["verdict"] == "consistent"
    assert doc["report"]["flags"] == []
    assert doc["t_max"] == 25.0
    assert doc["report"]["el_tol"] == 1e-8  # the lattice default


def test_verify_flags_exit_five(tmp_path, capsys):
    neg = write(tmp_path, ex_neg().file_form(), "neg.json")
    out = tmp_path / "checks.csv"
    code, doc, _ = run_cli(
        capsys,
        ["verify", neg, "--candidate", "const", "--t-max", "25", "--csv", str(out)],
    )
    assert code == 5
    assert doc["report"]["verdict"] == "el_fails_transversality"
    assert any("transversality" in fl for fl in doc["report"]["flags"])
    header, rows = read_csv(out)
    assert header == ["check", "kind", "value"]
    assert rows[0][0] == "transversality"
    assert abs(float(rows[0][2]) - 1.0) <= 1e-9


@pytest.mark.parametrize("timescale, slow, h, t_max", [
    ("arith(0, 1)", "0.5^t", 1.0, 30.0),
    ("ray(0)", "exp(-0.8*t)", 0.01, 10.0),
    (format_timescale(COMB), "exp(-0.8*t)", 0.01, 30.0),
], ids=["Z", "ray", "comb"])
def test_verify_flags_a_non_stationary_path(tmp_path, capsys, timescale, slow, h, t_max):
    # the lqr integrand with a decay rate off its Euler-Lagrange solution
    f = write(tmp_path, dict(LQR_DOC, timescale=timescale, candidates={"slow": [slow]}))
    code, doc, _ = run_cli(capsys, ["verify", f, "--candidate", "slow", "--h", repr(h),
                                    "--t-max", repr(t_max)])
    assert code == 5
    assert doc["report"]["verdict"] == "el_residual_nonzero"
    assert any(fl.startswith("el_residual_above_tol(") for fl in doc["report"]["flags"])


def test_verify_short_window_exits_three(tmp_path, capsys):
    neg = write(tmp_path, ex_neg().file_form(), "neg.json")
    code, doc, err = run_cli(
        capsys, ["verify", neg, "--candidate", "const", "--t-max", "5", "--h", "1"]
    )
    assert code == 3 and doc is None
    assert "only 3 tail starts, need 5" in err


def test_verify_window_below_three_exits_three(tmp_path, capsys):
    neg = write(tmp_path, ex_neg().file_form({"window": 2}), "neg.json")
    code, doc, err = run_cli(capsys, ["verify", neg, "--candidate", "const", "--t-max", "20"])
    assert code == 3 and doc is None
    assert "classifier window must be >= 3" in err


def test_problem_file_of_a_json_array_exits_2(tmp_path, capsys):
    f = tmp_path / "array.json"
    f.write_text("[1, 2]")
    code, doc, err = run_cli(capsys, ["verify", str(f), "--candidate", "one"])
    assert (code, doc) == (2, None)
    assert err == "error: problem file must contain a JSON object\n"


def test_verify_t_max_at_the_start_exits_3(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, doc, err = run_cli(capsys, ["verify", f, "--candidate", "decay", "--t-max", "0"])
    assert (code, doc) == (3, None)
    assert err == "error: t_max must leave room beyond the start\n"


@pytest.mark.parametrize("t_end", ["0", "0.5"])
def test_solve_window_of_one_member_exits_3(tmp_path, capsys, t_end):
    """A window whose end snaps to the start (t_end = a, or below the next
    point of a discrete scale) is refused before the solver forms a grid;
    every window it accepts holds at least its two ends."""
    f = write(tmp_path, dict(LQR_DOC, timescale="union(points(0, 1), ray(5))"))
    code, doc, err = run_cli(capsys, ["solve", f, "--T", t_end, "--h", "0.1"])
    assert (code, doc) == (3, None)
    assert err == "error: need lo < hi, got [0.0, 0.0]\n"


def test_verify_is_deterministic(tmp_path, capsys):
    pos = write(tmp_path, ex_pos().file_form(), "pos.json")
    argv = ["verify", pos, "--candidate", "line", "--t-max", "20"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 5
    assert out1 == out2


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_trajectory(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    out = tmp_path / "traj.csv"
    code, doc, _ = run_cli(capsys, ["solve", f, "--T", "6", "--csv", str(out)])
    assert code == 0
    assert doc["converged"] is True
    assert doc["terminal"] == "free"
    assert doc["t_end"] == 6.0
    header, rows = read_csv(out)
    assert header == ["t", "x1"]
    assert len(rows) == 7
    oracle = lqr_grid_truncation_oracle(6.0)
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - oracle)) <= 1e-6


def test_solve_pinned_terminal(tmp_path, capsys):
    pos = write(tmp_path, ex_pos().file_form(), "pos.json")
    code, doc, _ = run_cli(
        capsys, ["solve", pos, "--T", "2", "--terminal", "pinned=1.0"]
    )
    assert code == 0
    assert doc["terminal"] == [1.0]
    assert abs(doc["objective"] - (-2.0)) <= 1e-9


def test_solve_iteration_budget_exit_code(tmp_path, capsys):
    # concave but not quadratic: Newton needs 8 iterations here
    doc = dict(LQR_DOC, lagrangian={"L": "-(v1^2 + u1^4)", "d2": ["-4*u1^3"],
                                    "d3": ["-2*v1"]},
               config={"max_iter": 2})
    f = write(tmp_path, doc)
    code, out, _ = run_cli(capsys, ["solve", f, "--T", "8"])
    assert code == 4
    assert out["converged"] is False
    assert out["iterations"] == len(out["history"]) == 2


def test_solve_unbounded_truncation_exits_4(tmp_path, capsys):
    f = write(tmp_path, ex_neg().file_form(), "neg.json")
    code, out, err = run_cli(capsys, ["solve", f, "--T", "8", "--h", "1"])
    assert code == 4 and not err
    assert out["converged"] is False


def test_solve_seed_has_no_effect(tmp_path, capsys):
    # --seed is still accepted, but the solver has one deterministic start
    f = write(tmp_path, dict(RAY_DOC, lagrangian=LQR_DOC["lagrangian"]))
    outputs = []
    for seed in ("1", "2"):
        csv_path = tmp_path / f"seed{seed}.csv"
        argv = ["solve", f, "--T", "3", "--h", "0.02", "--seed", seed,
                "--csv", str(csv_path)]
        assert cli.main(argv) == 0
        outputs.append((capsys.readouterr().out, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert "seed" not in json.loads(outputs[0][0])


def test_solve_multistart_flag_is_rejected(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", f, "--T", "6", "--multistart", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_solve_window_too_small(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(capsys, ["solve", f, "--T", "0.5"])
    assert code == 3 and err


def test_solve_bad_terminal_spec(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", f, "--T", "4", "--terminal", "clamped"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("pinned", ["pinned=1,a", "pinned=", "pinned=1,,2"])
def test_solve_malformed_pinned_list_exits_2(tmp_path, capsys, pinned):
    f = write(tmp_path, LQR_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", f, "--T", "4", "--terminal", pinned])
    assert exc.value.code == 2
    assert "bad pinned value list" in capsys.readouterr().err


def test_solve_terminal_free_is_the_default(tmp_path, capsys):
    """--terminal free writes the same JSON and CSV as no --terminal."""
    f = write(tmp_path, LQR_DOC)
    outputs = []
    for extra in ([], ["--terminal", "free"]):
        out = tmp_path / f"traj{len(extra)}.csv"
        assert cli.main(["solve", f, "--T", "6", "--csv", str(out)] + extra) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0])["terminal"] == "free"


# ---------------------------------------------------------------------------
# non-finite times

#: (problem file, candidate) on the ray and on the integers
SCALES = {"ray": (lqr_ray(1.268).file_form(), "decaying-exp"), "Z": (LQR_DOC, "decay")}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--t-max", "inf"], id="verify-t_max"),
    pytest.param(["residual", "--window", "0", "inf"], id="residual-window"),
    pytest.param(["integrate", "--expr", "t", "--to", "inf"], id="integrate-to"),
    pytest.param(["integrate", "--expr", "t", "--from=-inf", "--to", "1"], id="integrate-from"),
    pytest.param(["integrate", "--expr", "t", "--from", "nan", "--to", "1"], id="integrate-nan"),
    pytest.param(["integrate", "--expr", "t", "--improper", "--horizons", "1,2,3,4,inf"],
                 id="integrate-horizons"),
    pytest.param(["solve", "--T", "inf"], id="solve-T"),
])
def test_non_finite_time_exits_3(tmp_path, capsys, scale, argv):
    """A time at +-inf or nan is refused with exit 3 and an error line, not
    a traceback (OverflowError at the integers' member index or the ray's
    dense cell count)."""
    doc, candidate = SCALES[scale]
    f = write(tmp_path, doc)
    command, *rest = argv
    if command in ("verify", "residual"):
        rest = ["--candidate", candidate, *rest]
    out = tmp_path / "out.csv"
    code, doc, err = run_cli(capsys, [command, f, *rest, "--csv", str(out)])
    assert (code, doc) == (3, None)
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


def test_verify_with_an_infinite_step(tmp_path, capsys):
    """--h inf: on the ray the slope margin past t_max takes a dense step,
    which refuses an infinite h (exit 3); the integers step by their jumps
    and do not read h."""
    doc, candidate = SCALES["ray"]
    code, out, err = run_cli(capsys, ["verify", write(tmp_path, doc), "--candidate",
                                      candidate, "--h", "inf"])
    assert (code, out, err) == (3, None,
                                "error: a dense stretch needs a finite step > 0, got inf\n")
    doc, candidate = SCALES["Z"]
    code, out, _ = run_cli(capsys, ["verify", write(tmp_path, doc), "--candidate",
                                    candidate, "--h", "inf"])
    assert code == 0 and out["report"]["verdict"] == "consistent"


@pytest.mark.parametrize("argv", [
    pytest.param(["integrate", "--expr", "t^2", "--to", "1"], id="integrate"),
    pytest.param(["solve", "--T", "3"], id="solve"),
    pytest.param(["verify", "--candidate", "decaying-exp"], id="verify"),
    pytest.param(["residual", "--candidate", "decaying-exp", "--window", "0", "1"],
                 id="residual"),
])
@pytest.mark.parametrize("h", ["inf", "nan"])
def test_a_dense_stretch_refuses_a_non_finite_step(tmp_path, capsys, argv, h):
    """On the ray every command samples a dense stretch, so --h inf or nan
    exits 3 with an error line: integrate and solve once printed
    "h": Infinity and exited 0."""
    doc, _ = SCALES["ray"]
    command, *rest = argv
    out = tmp_path / "out.csv"
    code, doc, err = run_cli(capsys, [command, write(tmp_path, doc), *rest, "--h", h,
                                      "--csv", str(out)])
    assert (code, doc) == (3, None)
    assert err.startswith("error: ") and "step" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# file-level failures


def test_unknown_candidate_is_a_parse_error(tmp_path, capsys):
    f = write(tmp_path, LQR_DOC)
    code, _, err = run_cli(capsys, ["verify", f, "--candidate", "nope"])
    assert code == 2 and "nope" in err


def test_broken_problem_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, ["solve", str(bad), "--T", "4"])
    assert code == 2 and "JSON" in err
    code, _, err = run_cli(
        capsys, ["solve", str(tmp_path / "missing.json"), "--T", "4"]
    )
    assert code == 2


def test_console_script_runs(tmp_path):
    exe = shutil.which("tsvar")
    if exe is None:
        pytest.skip("console script not on PATH")
    f = write(tmp_path, LQR_DOC)
    proc = subprocess.run(
        [exe, "integrate", f, "--expr", "t", "--to", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3.0


def test_module_entry_point(tmp_path):
    f = write(tmp_path, LQR_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "tsvar.cli", "integrate", f, "--expr", "t",
         "--to", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3.0


def test_package_runs_as_a_module_from_source(tmp_path, capsys):
    """``python -m tsvar`` with only ``src`` on the path: --help exits 0 and
    residual writes the same CSV bytes and JSON as the in-process CLI."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "tsvar", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    assert run("--help").returncode == 0
    f = write(tmp_path, LQR_DOC)
    sub_csv, in_csv = tmp_path / "sub.csv", tmp_path / "in.csv"
    argv = ["residual", f, "--candidate", "decay", "--window", "0", "30"]
    proc = run(*argv, "--csv", str(sub_csv))
    assert proc.returncode == 0
    assert cli.main(argv + ["--csv", str(in_csv)]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert sub_csv.read_bytes() == in_csv.read_bytes()
