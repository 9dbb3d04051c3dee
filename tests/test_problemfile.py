"""Parsing and validation of JSON problem files."""

import json

import numpy as np
import pytest

from tsvar import PartialsMismatch, ProblemFileError, SolveParams, solve_truncated
from tsvar.problemfile import load_problem_file, problem_from_dict
from tsvar.timescale import ArithmeticTail, ClosedInterval, union


def base_doc(**over):
    doc = {
        "timescale": "arith(0, 1)",
        "a": 0,
        "x_a": [1.0],
        "lagrangian": {
            "L": "-(v1^2 + u1^2)",
            "d2": ["-2*u1"],
            "d3": ["-2*v1"],
        },
        "candidates": {"decay": ["exp(-t)"]},
    }
    doc.update(over)
    return doc


def test_minimal_file():
    pf = problem_from_dict(base_doc())
    assert pf.problem.n == 1
    assert pf.problem.a == 0.0
    assert pf.h == 1e-2  # default sampling step
    gen = pf.candidate("decay")
    assert gen(np.array([0.0, 1.0])).shape == (2, 1)
    assert gen(0.0).shape == (1,)
    assert abs(gen(0.0)[0] - 1.0) <= 1e-12


def test_scalar_x_a_promotes_to_vector():
    pf = problem_from_dict(base_doc(x_a=2.5, candidates={"c": "2.5"}))
    assert np.array_equal(pf.problem.x_a, [2.5])
    # single string candidates are accepted for one-dimensional problems
    assert pf.candidate("c")(np.zeros(2)).shape == (2, 1)


def test_structured_timescale_form():
    structured = [
        {"kind": "interval", "lo": 0, "hi": 1},
        {"kind": "arith", "start": 2, "step": 1},
    ]
    pf = problem_from_dict(base_doc(timescale=structured))
    assert pf.problem.ts == union(ClosedInterval(0, 1), ArithmeticTail(2, 1))


@pytest.mark.parametrize("field", ["timescale", "a", "x_a", "lagrangian"])
def test_missing_required_field(field):
    doc = base_doc()
    del doc[field]
    with pytest.raises(ProblemFileError, match=field):
        problem_from_dict(doc)


def test_candidates_are_optional():
    doc = base_doc()
    del doc["candidates"]
    pf = problem_from_dict(doc)
    assert pf.candidates == {}
    with pytest.raises(ProblemFileError, match="no candidate"):
        pf.candidate("decay")


@pytest.mark.parametrize(
    "doc",
    [
        base_doc(extra_field=1),
        base_doc(config={"no_such_knob": 1}),
        base_doc(a="zero"),
        base_doc(x_a=[]),
        base_doc(x_a=["one"]),
        base_doc(timescale=7),
        base_doc(config=[1, 2]),
        base_doc(candidates=["exp(-t)"]),
        base_doc(lagrangian="L"),
        base_doc(lagrangian={"L": "-(v1^2)", "dV": ["-2*v1"]}),
        base_doc(lagrangian={"L": "-(v1^2)", "d3": ["-2*v1", "0"]}),
        base_doc(candidates={"c": ["t", "t"]}),  # two components, n = 1
        base_doc(config={"h": "abc"}),
        base_doc(config={"n_tails": "x"}),
        base_doc(config={"gateaux_eps": 0.1}),
        base_doc(config={"el_tol": "x"}),
    ],
)
def test_rejects_malformed_documents(doc):
    with pytest.raises(ProblemFileError):
        problem_from_dict(doc)


def test_rejects_nonfinite_candidate():
    with pytest.raises(ProblemFileError, match="finite"):
        problem_from_dict(base_doc(candidates={"bad": ["log(t - 100)"]}))


def test_rejects_nonfinite_integrand():
    with pytest.raises(ProblemFileError, match="finite"):
        problem_from_dict(base_doc(lagrangian={"L": "log(t)"}))


def test_wrong_gradient_expression_is_caught():
    doc = base_doc(
        lagrangian={"L": "u1^2", "d2": ["u1"]}  # should be 2*u1
    )
    with pytest.raises(PartialsMismatch):
        problem_from_dict(doc)


def test_config_builds_typed_objects():
    doc = base_doc(
        config={
            "h": 0.5,
            "t_max": 12.0,
            "window": 7,
            "gateaux_eps": [0.1, 0.01],
            "g_tol": 1e-6,
            "max_iter": 200.0,
            "multistart": 1,
        }
    )
    pf = problem_from_dict(doc)
    assert pf.h == 0.5
    assert pf.limit_config().window == 7
    vc = pf.verify_config()
    assert vc.t_max == 12.0
    assert vc.h == 0.5
    assert vc.gateaux_eps == (0.1, 0.01)
    assert vc.limits.window == 7
    assert pf.verify_config(t_max=5.0).t_max == 5.0
    sp = pf.solve_params()
    assert sp.max_iter == 200 and isinstance(sp.max_iter, int)
    assert sp.g_tol == 1e-6
    assert pf.solve_params(max_iter=3).max_iter == 3


def test_config_values_are_typed_at_load():
    pf = problem_from_dict(base_doc(config={"el_tol": None, "t_max": 12, "n_tails": "4"}))
    assert pf.config == {"el_tol": None, "t_max": 12.0, "n_tails": 4}
    vc = pf.verify_config()
    assert vc.el_tol is None and vc.n_tails == 4
    assert isinstance(vc.t_max, float)


def test_former_multistart_keys_still_load_and_solve(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(base_doc(config={"multistart": 3, "init_amplitude": 0.1})))
    pf = load_problem_file(path)
    assert pf.solve_params() == SolveParams()
    res = solve_truncated(pf.problem, 6.0, h=1.0, params=pf.solve_params())
    plain = solve_truncated(problem_from_dict(base_doc()).problem, 6.0, h=1.0)
    assert res.converged
    assert np.array_equal(res.trajectory.x.values, plain.trajectory.x.values)


def test_load_problem_file(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(base_doc()))
    pf = load_problem_file(path)
    assert pf.source["timescale"] == "arith(0, 1)"

    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(ProblemFileError, match="JSON"):
        load_problem_file(bad)
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem_file(tmp_path / "missing.json")
