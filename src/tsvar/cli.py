"""Command-line frontend.

One JSON report per command on stdout; optional CSV series via --csv.
Exit codes: 0 success, 2 parse error, 3 evaluation error, 4 solver did not
converge, 5 verification raised flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import secrets
import stat
import sys

import numpy as np

from .calculus import GridFunction, _call_on_times, cumulative_delta_integral, improper_integral
from .errors import InvalidWindow, ParseError, TsvarError
from .expressions import compile_expression
from .floatcsv import csv_bytes
from .problemfile import candidate_generator, load_problem_file
from .timescale import tol_at
from .variational import (
    _residual_blocks,
    _slope_margin_grid,
    solve_truncated,
    verify_candidate,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_FLAGS = 5


def _print_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


CSV_CHUNK_VALUES = 8192


@contextlib.contextmanager
def _csv_file(path, header):
    """The text file of a CSV at ``path``, its header row written, for the
    caller to write the rows into.  A regular file is written as a
    temporary file beside it, which replaces it (``os.replace``) once the
    block exits without an error and is removed otherwise, so that a
    failed command leaves ``path`` as it was.  The temporary file gets the
    mode plain ``open`` gives: an existing file's, or 0o666 less the umask.
    A symbolic link is followed, and a path that is not a regular file (a
    device or a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield _with_header(fh, header)
        return
    path = os.path.realpath(path)  # a link's target, which a plain open writes
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 0o666 less the umask
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            if os.path.exists(path):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            yield _with_header(fh, header)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _with_header(fh, header):
    """``fh`` with the CSV row ``header`` written and flushed, so that rows
    may go on in its binary layer."""
    csv.writer(fh).writerow(header)
    fh.flush()
    return fh


def _write_rows(fh, *columns):
    """Write the rows of the float ``columns``, arrays of one length (1-D or
    2-D) side by side, to the CSV file ``fh``: as many rows at a time as
    make ``CSV_CHUNK_VALUES`` values (at least one row), encoded by
    ``floatcsv.csv_bytes``, a vectorized shortest round-trip encoder
    (Schubfach), into the file's binary layer.  Each float is written as
    its Python ``repr`` (``inf``, ``nan`` and ``-0.0`` included), as the csv
    module writes it, so every value round-trips.  Only one chunk's rows are
    ever stacked, so no command builds a table as long as its series, and
    the memory a chunk takes does not grow with the column count."""
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    chunk = max(1, CSV_CHUNK_VALUES // width)
    for start in range(0, len(columns[0]), chunk):
        part = slice(start, start + chunk)
        fh.buffer.write(csv_bytes(np.column_stack([c[part] for c in columns])))


def _horizons_arg(text):
    try:
        vals = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "horizons must be a comma-separated list of numbers"
        )
    if len(vals) < 3:
        raise argparse.ArgumentTypeError("need at least three horizons")
    return vals


def _terminal_arg(text):
    if text == "free":
        return None
    if text.startswith("pinned="):
        try:
            return [float(x) for x in text[len("pinned="):].split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError("bad pinned value list")
    raise argparse.ArgumentTypeError("use 'free' or 'pinned=V1[,V2,...]'")


def _scalarize(arr):
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    if arr.shape == (1,):
        return float(arr[0])
    return [float(v) for v in arr]


def _integrand(pf, args):
    if args.expr is not None:
        return candidate_generator((compile_expression(args.expr),)), f"expr:{args.expr}"
    return pf.candidate(args.candidate), f"candidate:{args.candidate}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_integrate(args):
    pf = load_problem_file(args.file)
    ts, a = pf.problem.ts, pf.problem.a
    h = args.h if args.h is not None else pf.h
    fn, label = _integrand(pf, args)

    if args.improper:
        if args.horizons is None:
            raise ParseError("--improper requires --horizons")
        horizons = sorted(set(ts.floor_member(v) for v in args.horizons))
        est = improper_integral(ts, fn, a, horizons, h=h, config=pf.limit_config())
        doc = {
            "command": "integrate",
            "mode": "improper",
            "integrand": label,
            "from": a,
            "h": h,
            "horizons": horizons,
            "estimate": est.to_dict(),
        }
        _print_json(doc)
        if args.csv:
            with _csv_file(args.csv, ["t_prime", "partial_integral"]) as fh:
                _write_rows(fh, np.array(est.evidence, dtype=float).reshape(-1, 2))
        return EXIT_OK

    if args.to is None:
        raise ParseError("--to is required unless --improper is given")
    lo_raw = args.frm if args.frm is not None else a
    sign = 1.0
    lo_v, hi_v = float(lo_raw), float(args.to)
    if lo_v > hi_v:
        lo_v, hi_v, sign = hi_v, lo_v, -1.0
    lo = ts.ceil_member(lo_v)
    hi = ts.floor_member(hi_v)
    if lo >= hi:
        # int_c^c = 0, and a window holding no complete cell integrates to 0
        dim = _call_on_times(fn, np.array([hi if lo > hi else lo])).shape[1]
        value, lo, hi = np.zeros(dim), lo_v, hi_v
        columns = (np.empty(0),)
    else:
        grid = ts.build_grid(lo, hi, h)
        gf = GridFunction.from_callable(grid, fn, extend=False)
        cum = cumulative_delta_integral(gf)  # one reduction: value is the CSV's last row
        dim, value = gf.dim, sign * cum[-1]
        columns = (grid.nodes, gf.values, cum)
    _print_json({
        "command": "integrate",
        "mode": "window",
        "integrand": label,
        "from": lo if sign > 0 else hi,
        "to": hi if sign > 0 else lo,
        "h": h,
        "value": _scalarize(value),
    })
    if args.csv:
        header = (["t"] + [f"f{j + 1}" for j in range(dim)]
                  + [f"integral{j + 1}" for j in range(dim)])
        with _csv_file(args.csv, header) as fh:
            _write_rows(fh, *columns)
    return EXIT_OK


def cmd_residual(args):
    """The E-L residual of a candidate on a window: its node count and sup
    norm on stdout and, with --csv, its rows.  The residual is formed block
    by block (variational._residual_blocks, which samples the candidate a
    block at a time); each block's rows in the window are folded into the
    count and the sup and written to the CSV straight away, so that neither
    the candidate's samples nor any row of the residual is held at full
    length.
    The CSV appears at its path only once every row is written
    (_csv_file)."""
    pf = load_problem_file(args.file)
    prob = pf.problem
    ts, a = prob.ts, prob.a
    h = args.h if args.h is not None else pf.h
    gen = pf.candidate(args.candidate)
    if args.window is not None:
        win_lo, win_hi = args.window
    else:
        win_lo, win_hi = a, float(pf.config.get("t_max", 40.0))
    grid = _slope_margin_grid(ts, a, win_hi, h)
    lo, hi = win_lo - tol_at(win_lo), win_hi + tol_at(win_hi)
    counts, sups = [], []  # per block that meets the window: its rows there, max |r|

    def window(i, r):
        t = grid.nodes_at(slice(i, i + len(r)))
        first, last = np.searchsorted(t, lo), np.searchsorted(t, hi, side="right")
        if first < last:
            counts.append(last - first)
            sups.append(float(np.max(np.abs(r[first:last]))))
            if fh is not None:
                _write_rows(fh, t[first:last], r[first:last])

    header = ["t"] + [f"residual{j + 1}" for j in range(prob.n)]
    with _csv_file(args.csv, header) if args.csv else contextlib.nullcontext() as fh:
        _residual_blocks(prob, grid, gen, window)
        if not counts:
            raise InvalidWindow("the requested window contains no residual nodes")
    _print_json({
        "command": "residual",
        "candidate": args.candidate,
        "window": [float(win_lo), float(win_hi)],
        "h": h,
        "nodes": int(sum(counts)),
        "sup_norm": max(sups),
    })
    return EXIT_OK


def cmd_verify(args):
    pf = load_problem_file(args.file)
    gen = pf.candidate(args.candidate)
    overrides = {}
    if args.h is not None:
        overrides["h"] = args.h
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    cfg = pf.verify_config(**overrides)
    report = verify_candidate(pf.problem, gen, cfg)
    doc = {
        "command": "verify",
        "candidate": args.candidate,
        "h": cfg.h,
        "t_max": cfg.t_max,
        "report": report.to_dict(),
    }
    _print_json(doc)
    if args.csv:
        rows = [("transversality", report.transversality.kind.value,
                 repr(report.transversality.value))]
        rows += [
            (f"weak_max:{label}", est.kind.value, repr(est.value))
            for label, est in report.weak_max_probes
        ]
        with _csv_file(args.csv, ["check", "kind", "value"]) as fh:
            csv.writer(fh).writerows(rows)
    return EXIT_FLAGS if report.flags else EXIT_OK


def cmd_solve(args):
    pf = load_problem_file(args.file)
    prob = pf.problem
    h = args.h if args.h is not None else pf.h
    t_end = prob.ts.floor_member(args.T)
    result = solve_truncated(prob, t_end, args.terminal, h=h, params=pf.solve_params())
    doc = {
        "command": "solve",
        "t_end": float(t_end),
        "h": h,
        "terminal": "free" if args.terminal is None else list(args.terminal),
        **result.to_dict(),
    }
    _print_json(doc)
    if args.csv:
        traj = result.trajectory
        header = ["t"] + [f"x{j + 1}" for j in range(traj.x.dim)]
        with _csv_file(args.csv, header) as fh:
            _write_rows(fh, traj.grid.nodes, traj.x.values)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational calculus on unbounded time scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="delta integral of an expression "
                                             "or candidate over a window, or an "
                                             "improper-integral estimate")
    p_int.add_argument("file", help="JSON problem file")
    group = p_int.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="integrand expression in t")
    group.add_argument("--candidate", help="integrate a named candidate")
    p_int.add_argument("--from", dest="frm", type=float, default=None)
    p_int.add_argument("--to", type=float, default=None)
    p_int.add_argument("--improper", action="store_true",
                       help="classify the improper integral from a")
    p_int.add_argument("--horizons", type=_horizons_arg, default=None,
                       help="comma-separated horizon list for --improper")
    p_int.add_argument("--h", type=float, default=None, help="dense grid step")
    p_int.add_argument("--csv", default=None, help="write per-node series here")
    p_int.set_defaults(func=cmd_integrate)

    p_res = sub.add_parser("residual", help="Euler-Lagrange residual of a candidate")
    p_res.add_argument("file")
    p_res.add_argument("--candidate", required=True)
    p_res.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                       default=None)
    p_res.add_argument("--h", type=float, default=None)
    p_res.add_argument("--csv", default=None)
    p_res.set_defaults(func=cmd_residual)

    p_ver = sub.add_parser("verify", help="full first-order verdict for a candidate")
    p_ver.add_argument("file")
    p_ver.add_argument("--candidate", required=True)
    p_ver.add_argument("--h", type=float, default=None)
    p_ver.add_argument("--t-max", type=float, default=None)
    p_ver.add_argument("--csv", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sol = sub.add_parser("solve", help="maximize the truncated functional")
    p_sol.add_argument("file")
    p_sol.add_argument("--T", type=float, required=True, help="truncation horizon")
    p_sol.add_argument("--terminal", type=_terminal_arg, default=None,
                       help="'free' (default) or 'pinned=V1[,V2,...]'")
    p_sol.add_argument("--h", type=float, default=None)
    p_sol.add_argument("--seed", type=int, default=0,
                       help="accepted for older scripts; has no effect")
    p_sol.add_argument("--csv", default=None, help="write the trajectory here")
    p_sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TsvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
