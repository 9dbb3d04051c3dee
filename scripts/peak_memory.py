#!/usr/bin/env python3
"""Measure the peak memory of verify and of the residual and integrate CSV commands.

Runs each case once under tracemalloc and prints its peak allocation, the
peak per grid node (per CSV row for the CSV commands) and its wall
time.  The cases are ROADMAP item 8's table:

  lqr-r    verify_candidate of lqr_ray(1.268)'s decaying-exp at t_max=40,
           h=2.5e-4 (160004 nodes) and at t_max=2000, h=1e-3 (2000004);
  lqr-z    verify_candidate of lqr_grid(1.2)'s decaying-mode at t_max=20000,
           h=1 (20004 nodes);
  comb     verify_candidate of ex_pos(1.0)'s line on the comb of 20 half
           intervals, a point and a ray (21 dense runs, 20 of them ending in
           a jump) at t_max=40, h=2e-4 (145025 nodes), as the benchmark's
           comb ops run it;
  residual ``tsvar residual --csv`` in process, on lqr_ray(1.268) with
           finite-difference partials, window [0, 20] at h=1e-4 (200001 rows);
  integrate ``tsvar integrate --csv`` in process, of exp(-0.1*t)*sin(t) on
           ray(0), window [0, 20] at h=1e-4 (200001 rows);
  first_variation, variation_quotient (eps=0.1), parts_decomposition_residual
           of lqr_ray(1.268)'s decaying-exp and p = smoothstep_tail(1, 0, 1)
           at T'=20, h=1e-4, on their grid of T' and three steps past it
           (200004 nodes).

With --fast the t_max=2000 run stops at t_max=200, the comb runs at h=1e-3
(29025 nodes), the CSV windows stop at t=5 and the variation diagnostics
take T'=10 (100004 nodes).  Times include tracemalloc's own overhead.

    python3 scripts/peak_memory.py
    python3 scripts/peak_memory.py --fast --json
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import tracemalloc

from tsvar import (
    ClosedInterval,
    DiscretePoints,
    UnboundedRay,
    VerifyConfig,
    cli,
    ex_pos,
    first_variation,
    lqr_grid,
    lqr_ray,
    parts_decomposition_residual,
    smoothstep_tail,
    union,
    variation_quotient,
    verify_candidate,
)

#: the benchmark's comb: 20 unit-spaced half intervals, an isolated point, a ray
COMB = union(*(ClosedInterval(float(k), k + 0.5) for k in range(20)),
             DiscretePoints((20.75,)), UnboundedRay(21.0))


def traced(run):
    """(result, peak bytes, seconds) of one call of ``run`` under tracemalloc."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, seconds


def verify_case(label, named, candidate, t_max, h):
    gen = named.candidate(candidate).gen
    report, peak, seconds = traced(
        lambda: verify_candidate(named.problem, gen, VerifyConfig(t_max=t_max, h=h)))
    return {"case": f"{label} verify t_max={t_max:g} h={h:g}", "nodes": report.nodes,
            "peak_bytes": peak, "seconds": seconds, "verdict": report.verdict.value}


def csv_case(workdir, case, doc, command, *options):
    """The row of one in-process ``tsvar <command> <file> <options> --csv``
    run, the file holding the problem ``doc``.  Its node count is the CSV's
    row count."""
    path, csv_path = os.path.join(workdir, "problem.json"), os.path.join(workdir, "out.csv")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [command, path, *options, "--csv", csv_path]
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak, seconds = traced(lambda: cli.main(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"{command} exited {code}")
    with open(csv_path, "rb") as fh:
        rows = fh.read().count(b"\n") - 1
    return {"case": case, "nodes": rows, "peak_bytes": peak, "seconds": seconds,
            "csv_bytes": os.path.getsize(csv_path)}


def residual_case(workdir, t_hi, h):
    doc = lqr_ray(1.268).file_form()
    del doc["lagrangian"]["d2"], doc["lagrangian"]["d3"]  # finite-difference partials
    return csv_case(workdir, f"lqr-r residual --csv window=[0, {t_hi:g}] h={h:g}", doc,
                    "residual", "--candidate", "decaying-exp", "--window", "0", repr(t_hi),
                    "--h", repr(h))


def integrate_case(workdir, t_hi, h):
    doc = {"timescale": "ray(0)", "a": 0.0, "x_a": [1.0],
           "lagrangian": {"L": "-(v1^2 + u1^2)"}, "candidates": {}}
    return csv_case(workdir, f"ray integrate --csv window=[0, {t_hi:g}] h={h:g}", doc,
                    "integrate", "--expr", "exp(-0.1*t)*sin(t)", "--to", repr(t_hi),
                    "--h", repr(h))


def variation_cases(t_prime, h):
    """The rows of the three variation diagnostics of lqr_ray(1.268) at T'.
    Their grid holds the nodes from a to T' and three steps past it."""
    named = lqr_ray(1.268)
    problem, gen, p = named.problem, named.candidate("decaying-exp").gen, smoothstep_tail(1.0, 0.0, 1.0)
    ts, t_hi = problem.ts, t_prime
    for _ in range(3):
        t_hi = ts.advance(t_hi, h)
    nodes = len(ts.build_grid(problem.a, t_hi, h))
    rows = []
    for name, run in (
            ("first_variation", lambda: first_variation(problem, gen, p, t_prime, h=h)),
            ("variation_quotient", lambda: variation_quotient(problem, gen, p, 0.1, t_prime, h=h)),
            ("parts_decomposition_residual",
             lambda: parts_decomposition_residual(problem, gen, p, t_prime, h=h))):
        value, peak, seconds = traced(run)
        rows.append({"case": f"lqr-r {name} T'={t_prime:g} h={h:g}", "nodes": nodes,
                     "peak_bytes": peak, "seconds": seconds, "value": value})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true", help="shorter long run and window")
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    args = ap.parse_args(argv)

    ray, lattice = lqr_ray(1.268), lqr_grid(1.2)
    rows = [
        verify_case("lqr-r", ray, "decaying-exp", 40.0, 2.5e-4),
        verify_case("lqr-r", ray, "decaying-exp", 200.0 if args.fast else 2000.0, 1e-3),
        verify_case("lqr-z", lattice, "decaying-mode", 20000.0, 1.0),
        verify_case("comb", ex_pos(1.0, ts=COMB), "line", 40.0, 1e-3 if args.fast else 2e-4),
    ]
    t_hi = 5.0 if args.fast else 20.0
    with tempfile.TemporaryDirectory() as workdir:
        rows.append(residual_case(workdir, t_hi, 1e-4))
        rows.append(integrate_case(workdir, t_hi, 1e-4))
    rows += variation_cases(10.0 if args.fast else 20.0, 1e-4)
    for row in rows:
        row["bytes_per_node"] = row["peak_bytes"] / row["nodes"]

    if args.json:
        print(json.dumps({"results": rows}, indent=2))
    else:
        print(f"{'case':<52} {'nodes':>8} {'peak':>9} {'per node':>9} {'time':>7}")
        for r in rows:
            print(f"{r['case']:<52} {r['nodes']:>8} {r['peak_bytes'] / 1e6:>6.2f} MB "
                  f"{r['bytes_per_node']:>7.1f} B {r['seconds']:>6.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
