"""Tests of the benchmark harness itself:  python3 -m pytest -q perfbench

They pin the deterministic call counts that performance work will cite (per
lqr-r verify: 16 ``from_callable``, 17 ``delta_derivative_all``; per improper
op: 40 ``build_grid``), check that the tracer sees internal calls and leaves
no wrapper behind, and that the checks catch wrong outputs.  They never
assert wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import tsvar  # noqa: E402
import workloads as W  # noqa: E402


def traced(op):
    with tracer.Tracer() as tr:
        out = op.run()
    return out, tracer.summarize(tr.take())


def test_benchmark_json_matches_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_spec()


def test_draws_are_seeded_and_in_range():
    assert W.draw(7, 3) == W.draw(7, 3)
    assert W.draw(7, 3) != W.draw(8, 3) and W.draw(7, 3) != W.draw(7, 4)
    p = W.draw(7, 3)
    assert all(0.5 <= v <= 2.0 for v in (p.x_a, p.alpha, p.beta, p.A))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_node_totals_do_not_depend_on_the_seed(name, tmp_path):
    for seed in (0, 1):
        ops = W.WORKLOADS[name].build(W.draw(seed, 0), str(tmp_path))
        assert sum(op.nodes for op in ops) == W.NODES[name]


def test_lqr_ray_verify_call_counts():
    op = W.build_verify_dense(W.draw(0, 0), None)[0]
    _, s = traced(op)
    assert s["variational.verify_candidate.calls"] == 1
    assert s["calculus.GridFunction.from_callable.calls"] == 16
    assert s["calculus.delta_derivative_all.calls"] == 17
    assert s["calculus.sigma_shift_all.calls"] == 16
    assert s["variational.weak_max_compare.calls"] == 6
    assert s["variational.liminf_over_tails.calls"] == 7
    assert s["variational.make_horizon_plan.nodes"] == op.nodes
    assert s["calculus.GridFunction.from_callable.per_verify"] == 16
    # x* sampled 9 times; 6 competitors and 1 variation once each
    assert s["calculus.GridFunction.from_callable.useful_frac"] == 8 / 16


def test_lqr_edge_defect_shows_in_the_probe_not_in_the_op():
    p = W.draw(1, 0)  # x_a = 1.268: the h=1e-4 verdict flips (ratio 2.01)
    probe = W.lqr_edge_probe(p)
    assert not probe.ok and probe.el_ratio > 1
    op = W.build_verify_dense(p, None)[0]
    assert op.nodes == 200004
    outcome = op.check(op.run())
    assert outcome.ok and outcome.el_ratio < 0.5


def test_improper_op_builds_one_grid_per_horizon(tmp_path):
    op = W.build_cli(W.draw(0, 0), str(tmp_path))[2]
    out, s = traced(op)
    assert op.check(out).ok
    assert s["cli.main.calls"] == 1
    assert s["problemfile.load_problem_file.calls"] == 1
    assert s["calculus.improper_integral.calls"] == 1
    assert s["timescale.build_grid.calls"] == 40
    assert s["calculus.delta_integral.calls"] == 40
    assert s["timescale.build_grid.nodes"] == op.nodes
    assert s["calculus.classify_limit.calls"] == 1


def test_solve_makes_no_calculus_calls(tmp_path):
    op = W.build_cli(W.draw(0, 0), str(tmp_path))[4]
    out, s = traced(op)
    assert op.check(out).ok
    assert s["variational.solve_truncated.calls"] == 1
    assert s["variational.solve_truncated.nodes"] == op.nodes
    assert s["expressions.Expression.__call__.calls"] > 0
    assert s["calculus.GridFunction.from_callable.calls"] == 0
    assert s["calculus.delta_derivative_all.calls"] == 0
    assert s["variational.Lagrangian.values.fd_share"] == 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    names = ("delta_derivative_all", "sigma_shift_all", "classify_limit")
    originals = {n: getattr(tsvar.calculus, n) for n in names}
    verify = tsvar.variational.verify_candidate
    from_callable = vars(tsvar.GridFunction)["from_callable"]
    with tracer.Tracer():
        for n in names:
            wrapper = getattr(tsvar.calculus, n)
            assert wrapper is not originals[n]
            assert getattr(tsvar.variational, n) is wrapper
            assert getattr(tsvar, n) is wrapper
        assert tsvar.cli.verify_candidate is tsvar.variational.verify_candidate
        assert tsvar.cli.verify_candidate is not verify
        assert vars(tsvar.GridFunction)["from_callable"] is not from_callable
    for n in names:
        assert getattr(tsvar.calculus, n) is originals[n]
        assert getattr(tsvar.variational, n) is originals[n]
    assert tsvar.cli.verify_candidate is verify
    assert vars(tsvar.GridFunction)["from_callable"] is from_callable


def test_self_time_subtracts_direct_children():
    v, p2 = "variational.Lagrangian.values", "variational.Lagrangian.partial2"
    spans = [
        [p2, 0.0, 10.0, -1, 5, None],
        [v, 1.0, 3.0, 0, 5, None],
        [v, 4.0, 8.0, 0, 5, None],
        [v, 11.0, 12.0, -1, 5, None],
    ]
    s = tracer.summarize(spans)
    assert s[f"{p2}.s"] == 10.0 and s[f"{p2}.self_s"] == 4.0
    assert s[f"{v}.calls"] == 3 and s[f"{v}.s"] == 7.0 and s[f"{v}.rows"] == 15
    assert s[f"{v}.fd_share"] == 2 / 3


def test_checks_catch_wrong_outputs(tmp_path):
    verify = W.build_verify_lattice(W.draw(0, 0), None)[0]
    report = SimpleNamespace(verdict=tsvar.Verdict.CONSISTENT, el_sup_norm=0.0)
    assert not verify.check(report).ok  # ex-neg's constant path is not consistent

    residual = W.build_cli(W.draw(0, 0), str(tmp_path))[3]
    rows = residual.nodes

    def check(rc, nodes, csv_rows):
        (tmp_path / "residual.csv").write_text("t,residual1\n" + "0.0,0.0\n" * csv_rows)
        return residual.check((rc, json.dumps({"nodes": nodes, "sup_norm": 0.0}))).ok

    assert check(0, rows, rows)
    assert not check(0, rows - 1, rows)
    assert not check(0, rows, rows - 1)
    assert not check(3, rows, rows)
    with pytest.raises(FileNotFoundError):  # a pass that writes no CSV fails
        residual.check((0, json.dumps({"nodes": rows, "sup_norm": 0.0})))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
