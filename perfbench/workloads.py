"""Workloads of the tsvar benchmark: seeded inputs, fixed op lists, checks.

A workload is a fixed list of ops.  Each pass draws a fresh parameter set
from the run's seed (``draw(seed, k)`` for pass k), builds the problems and
problem files from it and runs every op once.  The draws change values only,
never grid sizes, so the node total of a pass is a constant recorded in
``NODES`` and re-derived from the built inputs as a check.

Every op is checked after it is timed.  An op fails on an exception, an
unexpected CLI exit code, a verdict different from ``Candidate.expected``, a
solver that did not converge or whose error is over its bound, or a CSV row
count different from the node count.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import tsvar
from tsvar import cli
from tsvar.timescale import ClosedInterval, DiscretePoints, UnboundedRay

#: the comb scale: 20 unit-spaced half intervals, an isolated point, a ray.
#: Its 20 interval->jump seams exercise the branch-end stencils.
COMB = tsvar.union(
    *(ClosedInterval(float(k), k + 0.5) for k in range(20)),
    DiscretePoints((20.75,)),
    UnboundedRay(21.0),
)

IMPROPER_EXPR = "exp(-0.1*t)*sin(t)"
IMPROPER_RATE = 0.1
#: 40 horizons at multiples of 2 pi; the tail past the last five is below
#: the classifier's 1e-8 relative tolerance, so the estimate converges
IMPROPER_HORIZONS = tuple(2.0 * math.pi * k for k in range(1, 41))
IMPROPER_TOL = 1e-7  # trapezoid error at h=1e-4 is about 1e-10

#: solver error bound on lqr-r, limited by the O(h^2) discretization
#: (measured 0.0165 h^2 x_a)
LQR_RAY_ERR_PER_H2 = 0.05


@dataclass(frozen=True)
class Params:
    """One draw of the seeded parameters."""

    x_a: float
    alpha: float
    beta: float
    A: float
    solve_seed: int


def draw(seed, k):
    """Parameter draw k of a run seeded with ``seed``."""
    rng = np.random.default_rng([seed, k])
    x_a, alpha, beta, A = (float(v) for v in rng.uniform(0.5, 2.0, size=4))
    return Params(x_a, alpha, beta, A, int(rng.integers(0, 2**31 - 1)))


@dataclass
class Outcome:
    """Result of checking one op's output."""

    ok: bool
    note: str = ""
    el_ratio: float = 0.0  # E-L sup-norm over el_tol, when the op has one
    solve_err: float = 0.0
    iterations: int = 0
    csv_bytes: int = 0
    stdout_bytes: int = 0


@dataclass
class Op:
    label: str
    nodes: int  # grid nodes (or CSV rows) this op processes
    run: Callable  # () -> output; the only timed part
    check: Callable  # output -> Outcome


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (Params, workdir) -> list of Op
    warmup: int  # index of the op used as the set-up warm-up
    probe: Optional[Callable] = None  # Params -> Outcome of a known defect


def el_tol(grid, h):
    """VerifyConfig's documented default: 1e-8 on purely scattered grids,
    20 h^2 when the window holds dense samples."""
    return 1e-8 if bool(grid.scattered.all()) else 20.0 * h * h


def _plan_grid(ts, t_max, h):
    return tsvar.make_horizon_plan(ts, ts.a, t_max, h=h).grid


# ---------------------------------------------------------------------------
# library ops


def verify_op(named, label, t_max, h):
    cand = named.candidate(label)
    cfg = tsvar.VerifyConfig(t_max=t_max, h=h)
    grid = _plan_grid(named.problem.ts, t_max, h)
    tol = el_tol(grid, h)

    def run():
        return tsvar.verify_candidate(named.problem, cand.gen, cfg)

    def check(rep):
        ok = rep.verdict is cand.expected
        note = "" if ok else f"verdict {rep.verdict.value}, expected {cand.expected.value}"
        return Outcome(ok, note, el_ratio=rep.el_sup_norm / tol)

    return Op(f"verify {named.id}/{label} t_max={t_max:g} h={h:g}", len(grid), run, check)


def build_verify_dense(p, workdir):
    comb = tsvar.ex_pos(p.A, ts=COMB)
    ops = [verify_op(tsvar.lqr_ray(p.x_a), "decaying-exp", 40.0, 2e-4)]
    ops += [verify_op(comb, label, 40.0, 2e-4) for label in ("const", "line", "line-half")]
    return ops


def build_verify_lattice(p, workdir):
    ex_pos = tsvar.ex_pos(p.A)
    return [
        verify_op(tsvar.ex_neg(p.alpha, p.beta), "const", 20000.0, 1.0),
        verify_op(tsvar.lqr_grid(p.x_a), "decaying-mode", 20000.0, 1.0),
        verify_op(ex_pos, "const", 20000.0, 1.0),
        verify_op(ex_pos, "line", 20000.0, 1.0),
        verify_op(ex_pos, "line-half", 20000.0, 1.0),
    ]


def lqr_edge_probe(p):
    """The lqr-r verify at h=1e-4 on this draw's x_a, untimed and not an op.

    At h=1e-4 the rounding floor of the left-edge stencil (order eps |x| / h^2)
    lies above el_tol = 20 h^2, so the verdict flips to ``el_residual_nonzero``
    for some x_a (ratio 2.01 at x_a=1.268).  The gated lqr-r op runs at h=2e-4
    over t_max=40 (the same 200k nodes), where the floor is 16 times further
    below el_tol; traced runs call this probe on every pass so that the
    defect stays in the numbers."""
    op = verify_op(tsvar.lqr_ray(p.x_a), "decaying-exp", 20.0, 1e-4)
    return op.check(op.run())


# ---------------------------------------------------------------------------
# CLI ops: in-process tsvar.cli.main, stdout captured in memory


def write_problem_file(path, named, partials):
    """Export ``named`` in the problem-file layout; without ``partials`` the
    file omits d2/d3 and the loader falls back to finite differences."""
    doc = named.file_form()
    if not partials:
        del doc["lagrangian"]["d2"], doc["lagrangian"]["d3"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _take_csv(path):
    """(data rows, bytes) of a CSV the op wrote; the file is removed so that
    the next pass cannot pass its check on a stale copy."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    size = os.path.getsize(path)
    os.remove(path)
    return rows, size


def cli_verify_op(path, named, label, t_max, h):
    cand = named.candidate(label)
    grid = _plan_grid(named.problem.ts, t_max, h)
    tol = el_tol(grid, h)
    argv = ["verify", path, "--candidate", label, "--h", repr(h), "--t-max", repr(t_max)]

    def check(out):
        rc, text = out
        report = json.loads(text)["report"]
        want_rc = cli.EXIT_FLAGS if report["flags"] else cli.EXIT_OK
        ok = report["verdict"] == cand.expected.value and rc == want_rc
        if cand.expected is tsvar.Verdict.CONSISTENT:
            ok = ok and rc == cli.EXIT_OK
        note = "" if ok else f"rc={rc} verdict {report['verdict']}"
        return Outcome(ok, note, el_ratio=report["el_sup_norm"] / tol,
                       stdout_bytes=len(text))

    return Op(f"cli verify {named.id}/{label} h={h:g}", len(grid),
              lambda: _cli(argv), check)


def cli_improper_op(path, named, h):
    ts, a = named.problem.ts, named.problem.a
    horizons = [ts.floor_member(b) for b in IMPROPER_HORIZONS]
    nodes, prev = 0, a
    for b in horizons:
        nodes += len(ts.build_grid(prev, b, h))
        prev = b
    argv = ["integrate", path, "--expr", IMPROPER_EXPR, "--improper",
            "--horizons", ",".join(repr(b) for b in horizons), "--h", repr(h)]
    r = IMPROPER_RATE

    def exact(T):
        return (1.0 - math.exp(-r * T) * (r * math.sin(T) + math.cos(T))) / (1.0 + r * r)

    def check(out):
        rc, text = out
        est = json.loads(text)["estimate"]
        err = max(abs(v - exact(T)) for T, v in est["evidence"])
        ok = (rc == cli.EXIT_OK and est["kind"] == "converged"
              and len(est["evidence"]) == len(horizons) and err <= IMPROPER_TOL
              and abs(est["value"] - 1.0 / (1.0 + r * r)) <= IMPROPER_TOL)
        note = "" if ok else f"rc={rc} kind={est['kind']} err={err:.3e}"
        return Outcome(ok, note, stdout_bytes=len(text))

    return Op(f"cli integrate --improper h={h:g}", nodes, lambda: _cli(argv), check)


def cli_residual_op(path, named, label, lo, hi, h, csv_path):
    ts = named.problem.ts
    grid = ts.build_grid(lo, hi, h)
    rows = len(grid)
    tol = el_tol(grid, h)
    argv = ["residual", path, "--candidate", label, "--window", repr(lo), repr(hi),
            "--h", repr(h), "--csv", csv_path]

    def check(out):
        rc, text = out
        doc = json.loads(text)
        got, size = _take_csv(csv_path)
        ok = rc == cli.EXIT_OK and doc["nodes"] == rows and got == rows
        note = "" if ok else f"rc={rc} nodes={doc['nodes']} csv_rows={got} want={rows}"
        return Outcome(ok, note, el_ratio=doc["sup_norm"] / tol, csv_bytes=size,
                       stdout_bytes=len(text))

    return Op(f"cli residual --csv h={h:g}", rows, lambda: _cli(argv), check)


def cli_solve_op(path, named, x_a, t_end, h, seed, csv_path):
    prob = named.problem
    nodes = len(prob.ts.build_grid(prob.a, t_end, h))
    bound = LQR_RAY_ERR_PER_H2 * h * h * x_a
    oracle = tsvar.lqr_ray_truncation_oracle(t_end, x_a)
    argv = ["solve", path, "--T", repr(t_end), "--h", repr(h), "--seed", str(seed),
            "--csv", csv_path]

    def check(out):
        rc, text = out
        doc = json.loads(text)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        _, size = _take_csv(csv_path)
        err = float(np.max(np.abs(data[:, 1] - oracle(data[:, 0]))))
        ok = rc == cli.EXIT_OK and len(data) == nodes and err <= bound
        note = "" if ok else f"rc={rc} rows={len(data)} err={err:.3e} bound={bound:.3e}"
        return Outcome(ok, note, solve_err=err, iterations=doc["iterations"],
                       csv_bytes=size, stdout_bytes=len(text))

    return Op(f"cli solve --csv T={t_end:g} h={h:g}", nodes, lambda: _cli(argv), check)


def build_cli(p, workdir):
    lqr = tsvar.lqr_ray(p.x_a)
    comb = tsvar.ex_pos(p.A, ts=COMB)
    lqr_exact = write_problem_file(os.path.join(workdir, "lqr-r.json"), lqr, True)
    lqr_fd = write_problem_file(os.path.join(workdir, "lqr-r-fd.json"), lqr, False)
    comb_fd = write_problem_file(os.path.join(workdir, "comb-fd.json"), comb, False)
    return [
        cli_verify_op(lqr_fd, lqr, "decaying-exp", 20.0, 1e-3),
        cli_verify_op(comb_fd, comb, "line", 40.0, 1e-3),
        cli_improper_op(lqr_exact, lqr, 1e-4),
        cli_residual_op(lqr_fd, lqr, "decaying-exp", 0.0, 20.0, 1e-4,
                        os.path.join(workdir, "residual.csv")),
        cli_solve_op(lqr_exact, lqr, p.x_a, 3.0, 0.02, p.solve_seed,
                     os.path.join(workdir, "solve.csv")),
    ]


# The warm-up op of each workload is one whose work does not depend on the
# seed, so that set-up time compares across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-dense", build_verify_dense, warmup=1, probe=lqr_edge_probe),
        Workload("verify-lattice", build_verify_lattice, warmup=0),
        Workload("cli", build_cli, warmup=0),
    )
}

#: recorded grid nodes (CSV rows for the residual op) of one pass
NODES = {
    "verify-dense": 200004 + 3 * 145025,
    "verify-lattice": 5 * 20004,
    "cli": 20005 + 29025 + 2513320 + 200001 + 151,
}
