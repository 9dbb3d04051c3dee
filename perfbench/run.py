#!/usr/bin/env python3
"""The tsvar benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed or compiled).  Workloads (see workloads.py):
``verify-dense``, ``verify-lattice`` and ``cli``.  Each runs in
this one single-threaded process: no threads are started, BLAS pools are
pinned to one thread and ``TSVAR_THREADS`` is removed from the environment.

Set-up imports tsvar, builds the seeded inputs of pass 0 and runs the
workload's warm-up op.  ``setup_s`` is the median import time plus the
median of build + warm-up over SETUP_FIRST reps before the passes and
SETUP_SPREAD reps spread evenly over them, so that host contention in the
first seconds of a run does not decide it.  An import can be timed only once
per interpreter, so the import is timed in short-lived fresh interpreters
that do nothing else.  Passes over the workload's op list run until
``--seconds`` have passed, each on the next parameter draw of the seed.  Only
the op calls are timed; every output is checked afterwards.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (mean pass wall
time), ``nodes_per_s``, ``setup_s`` and ``peak_rss_mb``.  On a shared host,
contention comes in regimes lasting tens of seconds; the median pass time
jumps to whichever regime covers most of the run, while the mean weighs the
regimes by their duration, so the mean is the steadier figure from run to
run.  The median and the pass count are printed and recorded.  ``--trace 1``
runs each pass twice, untraced and then under the outside-in tracer
(tracer.py), and reports the per-layer metrics (medians over the traced
passes), ``trace.overhead_frac`` and the accuracy figures ``el_tol_ratio``,
``solve_err`` and ``fail_frac``.  On ``verify-dense`` it also runs the
workload's known-defect probe once per pass, untimed and not counted as an
op (see ``lqr_edge_probe`` in workloads.py), and reports its largest
``el_tol_ratio`` and the share of draws whose verdict flipped.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted``/``failed`` count ops; an op fails
when its check fails (see workloads.py).  ``correct`` is false when a
whole-run invariant breaks: the pass's node total differs from the recorded
one, the repeated warm-up op does not give the same outcome, or an op's
outcome changes under tracing.  A record of the run (machine, load average
before and after, set-up, every pass) is written to perfbench/out/, and a
traced run also writes the spans of its first traced pass there.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_FIRST = 3  # set-up reps before the first pass
SETUP_SPREAD = 8  # set-up reps spread evenly over the measured passes
WORKLOAD_NAMES = ("verify-dense", "verify-lattice", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_single_thread():
    os.environ.pop("TSVAR_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import tsvar; print(time.perf_counter() - t0)")


SRC = ROOT / "src"


def time_import():
    """Seconds a fresh interpreter takes to import tsvar from src/."""
    probe = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                           cwd=ROOT, capture_output=True, text=True, check=True,
                           timeout=120)
    return float(probe.stdout)


def import_tsvar():
    """Import the package from the checkout's src/.  Raises
    FileNotFoundError when the checkout holds no source."""
    if not (SRC / "tsvar" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tsvar source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tsvar
    if Path(tsvar.__file__).resolve().parent != (SRC / "tsvar").resolve():
        raise ImportError(f"imported tsvar from {tsvar.__file__}, not from {SRC}")


def cache_sizes():
    """Sizes of cpu0's unified/data caches by level, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_record():
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def attempt(op, outcome_type):
    """Run one op (timed) and check its output (untimed)."""
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return perf_counter() - t0, outcome_type(False, f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - t0
    try:
        return elapsed, op.check(out)
    except Exception as exc:
        return elapsed, outcome_type(False, f"check: {type(exc).__name__}: {exc}")


def run_pass(ops, outcome_type):
    """(seconds of each op, outcome of each op)"""
    times, outcomes = [], []
    for op in ops:
        elapsed, outcome = attempt(op, outcome_type)
        times.append(elapsed)
        outcomes.append(outcome)
    return times, outcomes


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for t in tracer.TARGETS:
        spec += [(f"{t.name}.calls", "count", "lower"), (f"{t.name}.s", "s", "lower"),
                 (f"{t.name}.self_s", "s", "lower")]
        if t.counter:
            spec.append((f"{t.name}.{t.counter}", t.counter, "lower"))
    spec += [
        ("calculus.GridFunction.from_callable.per_verify", "count", "lower"),
        ("calculus.GridFunction.from_callable.useful_frac", "ratio", "higher"),
        ("variational.Lagrangian.values.fd_share", "ratio", "lower"),
        ("solve.iterations", "count", "lower"),
        ("solve.evals_per_iter", "ratio", "lower"),
        ("cli.main.csv_bytes", "bytes", "lower"),
        ("cli.main.stdout_bytes", "bytes", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("el_tol_ratio", "ratio", "lower"),
        ("solve_err", "abs", "lower"),
        ("fail_frac", "ratio", "lower"),
        ("edge_probe.el_tol_ratio", "ratio", "lower"),
        ("edge_probe.flip_frac", "ratio", "lower"),
    ]
    return spec


END_TO_END = (
    ("pass_s", "s"),
    ("nodes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def benchmark(args):
    pin_single_thread()
    load_before = os.getloadavg()
    import_tsvar()

    import workloads as W

    wl = W.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        return _measure(args, W, wl, workdir, load_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, W, wl, workdir, load_before):
    Outcome = W.Outcome
    import_reps, reps, warm = [], [], []

    def set_up():
        """One set-up rep: a fresh import, the inputs of pass 0, the warm-up op."""
        import_reps.append(time_import())
        t0 = perf_counter()
        ops = wl.build(W.draw(args.seed, 0), workdir)
        build_s = perf_counter() - t0
        op_s, outcome = attempt(ops[wl.warmup], Outcome)
        reps.append(build_s + op_s)
        warm.append((outcome.ok, outcome.note))
        return ops

    for _ in range(SETUP_FIRST):
        ops = set_up()

    broken = []
    nodes = sum(op.nodes for op in ops)
    if nodes != W.NODES[wl.name]:
        broken.append(f"pass node total {nodes} != recorded {W.NODES[wl.name]}")

    passes, summaries, first_spans = [], [], None
    t_start = perf_counter()
    next_setup = args.seconds / SETUP_SPREAD
    k = 0
    while k == 0 or perf_counter() - t_start < args.seconds:
        params = W.draw(args.seed, k)
        if k > 0:
            ops = wl.build(params, workdir)
        op_s, outcomes = run_pass(ops, Outcome)
        rec = {"k": k, "params": vars(params), "s": sum(op_s), "op_s": op_s,
               "ops": [dict(vars(o), label=op.label) for op, o in zip(ops, outcomes)]}
        if args.trace:
            with tracer.Tracer() as tr:
                traced_op_s, traced = run_pass(ops, Outcome)
            traced_s = sum(traced_op_s)
            spans = tr.take()
            summaries.append(tracer.summarize(spans))
            if first_spans is None:
                first_spans = spans
            rec["traced_s"] = traced_s
            rec["traced_ops"] = [dict(vars(o), label=op.label)
                                 for op, o in zip(ops, traced)]
            if [o.ok for o in traced] != [o.ok for o in outcomes]:
                broken.append(f"pass {k}: outcomes changed under tracing")
            if wl.probe is not None:
                rec["probe"] = vars(wl.probe(params))
        passes.append(rec)
        k += 1
        if perf_counter() - t_start >= next_setup and len(reps) < SETUP_FIRST + SETUP_SPREAD:
            set_up()
            next_setup += args.seconds / SETUP_SPREAD
    run_s = perf_counter() - t_start
    import_s = median(import_reps)
    setup_s = import_s + median(reps)
    if len(set(warm)) != 1:
        broken.append(f"warm-up outcomes differ across repeats: {warm}")

    op_recs = [o for p in passes for key in ("ops", "traced_ops") for o in p.get(key, [])]
    attempted = len(op_recs)
    failed = sum(1 for o in op_recs if not o["ok"])
    pass_s = fmean(p["s"] for p in passes)

    if args.trace:
        metrics = tracer.median_summary(summaries)
        iters = [sum(o["iterations"] for o in p["traced_ops"]) for p in passes]
        metrics["solve.iterations"] = median(iters)
        metrics["solve.evals_per_iter"] = median(
            s["variational.Lagrangian.values.calls"] / n if n else 0.0
            for s, n in zip(summaries, iters))
        metrics["cli.main.csv_bytes"] = median(
            sum(o["csv_bytes"] for o in p["traced_ops"]) for p in passes)
        metrics["cli.main.stdout_bytes"] = median(
            sum(o["stdout_bytes"] for o in p["traced_ops"]) for p in passes)
        metrics["trace.overhead_frac"] = median(
            p["traced_s"] / p["s"] for p in passes) - 1.0
        metrics["el_tol_ratio"] = max(o["el_ratio"] for o in op_recs)
        metrics["solve_err"] = max(o["solve_err"] for o in op_recs)
        metrics["fail_frac"] = failed / attempted
        probes = [p["probe"] for p in passes if "probe" in p]
        metrics["edge_probe.el_tol_ratio"] = max((o["el_ratio"] for o in probes), default=0.0)
        metrics["edge_probe.flip_frac"] = (
            sum(not o["ok"] for o in probes) / len(probes) if probes else 0.0)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        metrics = {
            "pass_s": pass_s,
            "nodes_per_s": nodes / pass_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "import_reps_s": import_reps, "setup_reps_s": reps, "setup_s": setup_s,
        "nodes_per_pass": nodes, "run_s": run_s, "passes": passes,
        "broken": broken, "metrics": metrics,
    }
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if first_spans is not None:
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.span_records(first_spans):
                fh.write(json.dumps(span) + "\n")

    m = record["machine"]
    print(f"machine: {m['cpu']} nproc={m['nproc']} caches={m['caches']} "
          f"python {m['python']} numpy {m['numpy']}")
    print(f"load average before {load_before} after {record['load_after']}")
    print(f"{wl.name} seed={args.seed}: setup {setup_s:.4f} s (import {import_s:.4f} s), "
          f"{len(passes)} passes of {nodes} nodes, pass mean {pass_s:.4f} s, "
          f"median {median(p['s'] for p in passes):.4f} s")
    ratios = [o["el_ratio"] for o in op_recs if o["el_ratio"]]
    errs = [o["solve_err"] for o in op_recs if o["solve_err"]]
    print(f"accuracy: max el_tol_ratio {max(ratios, default=0.0):.4g}, "
          f"max solve_err {max(errs, default=0.0):.4g}, failed {failed}/{attempted}")
    for o in op_recs:
        if not o["ok"]:
            print(f"FAILED {o['label']}: {o['note']}")
    for p in passes:
        if "probe" in p:
            o = p["probe"]
            print(f"known defect probe, lqr-r verify at h=1e-4, x_a={p['params']['x_a']:.4f}: "
                  f"el_tol_ratio {o['el_ratio']:.4g}"
                  + ("" if o["ok"] else f", verdict flipped ({o['note']})"))
    for invariant in broken:
        print(f"INVARIANT BROKEN: {invariant}")

    result = {
        "correct": not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return benchmark(args)
    except (FileNotFoundError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
