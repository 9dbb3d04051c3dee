"""JSON problem files.

Layout::

    {
      "timescale": "union(points(0), arith(1, 1))",   // DSL string or the
                                                      // structured dict form
      "a": 0.0,
      "x_a": [1.0],
      "lagrangian": {
        "L":  "(u1 - 1)^2 + v1",
        "d2": ["2*(u1 - 1)"],      // optional, one expression per component
        "d3": ["1"]                // optional
      },
      "candidates": { "const": ["1"], "line": ["t + 1"] },
      "config": { "h": 0.01, "t_max": 40.0, ... }     // optional overrides
    }

Integrand expressions use variables t, u1..un, v1..vn; candidate expressions
use t only.  Candidate values may be a single string for one-dimensional
problems.  Loaded expressions are probed for finiteness at a few scale points
before the file is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .calculus import LimitConfig
from .errors import ProblemFileError
from .expressions import compile_expression, lagrangian_variables
from .timescale import parse_timescale, timescale_from_structured
from .variational import Lagrangian, Problem, SolveParams, VerifyConfig

_CONFIG_KEYS = {
    "h", "t_max", "horizon_count", "n_tails", "el_tol", "trans_tol",
    "probe_tol", "probe_amplitude", "gateaux_eps",
    "rel_tol", "abs_floor", "div_threshold", "window", "rate_keep",
    "drift_frac",
    "g_tol", "max_iter",
    # accepted and ignored, so files written for the multistart solver still load
    "multistart", "init_amplitude",
}

_LIMIT_KEYS = {"rel_tol", "abs_floor", "div_threshold", "window", "rate_keep",
               "drift_frac"}
_VERIFY_KEYS = {"t_max", "h", "horizon_count", "n_tails", "el_tol",
                "trans_tol", "probe_tol", "probe_amplitude", "gateaux_eps"}
_SOLVE_KEYS = {"g_tol", "max_iter"}


@dataclass(frozen=True)
class ProblemFile:
    problem: Problem
    candidates: Dict[str, Callable]
    candidate_exprs: Dict[str, Tuple[str, ...]]
    config: dict
    source: dict

    @property
    def h(self):
        return float(self.config.get("h", 1e-2))

    def candidate(self, name):
        if name not in self.candidates:
            raise ProblemFileError(
                f"no candidate {name!r}; file defines {sorted(self.candidates)}"
            )
        return self.candidates[name]

    def limit_config(self):
        kw = {k: v for k, v in self.config.items() if k in _LIMIT_KEYS}
        if "window" in kw:
            kw["window"] = int(kw["window"])
        return LimitConfig(**kw)

    def verify_config(self, **overrides):
        kw = {k: v for k, v in self.config.items() if k in _VERIFY_KEYS}
        kw.update(overrides)
        if "gateaux_eps" in kw:
            kw["gateaux_eps"] = tuple(float(e) for e in kw["gateaux_eps"])
        for key in ("horizon_count", "n_tails"):
            if key in kw:
                kw[key] = int(kw[key])
        return VerifyConfig(limits=self.limit_config(), **kw)

    def solve_params(self, **overrides):
        kw = {k: v for k, v in self.config.items() if k in _SOLVE_KEYS}
        kw.update(overrides)
        if "max_iter" in kw:
            kw["max_iter"] = int(kw["max_iter"])
        return SolveParams(**kw)


def _require(doc, key, kind=None):
    if key not in doc:
        raise ProblemFileError(f"problem file is missing the {key!r} field")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise ProblemFileError(f"field {key!r} has the wrong type")
    return val


def _expr_list(raw, n, what, variables):
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or len(raw) != n:
        raise ProblemFileError(f"{what} must list {n} expression(s)")
    return tuple(compile_expression(s, variables) for s in raw)


def _vector_env(n, t, U, V):
    env = {"t": t}
    for j in range(n):
        env[f"u{j + 1}"] = U[:, j]
        env[f"v{j + 1}"] = V[:, j]
    return env


def _build_lagrangian(spec, n):
    if not isinstance(spec, dict):
        raise ProblemFileError("the 'lagrangian' field must be an object")
    names = lagrangian_variables(n)
    L = compile_expression(_require(spec, "L", str), names)
    d2 = _expr_list(spec["d2"], n, "'d2'", names) if "d2" in spec else None
    d3 = _expr_list(spec["d3"], n, "'d3'", names) if "d3" in spec else None
    unknown = set(spec) - {"L", "d2", "d3"}
    if unknown:
        raise ProblemFileError(f"unknown lagrangian fields {sorted(unknown)}")

    def eval_fn(t, U, V):
        out = L(**_vector_env(n, t, U, V))
        return np.broadcast_to(out, np.shape(t)).astype(float)

    def grad_fn(exprs):
        def fn(t, U, V):
            env = _vector_env(n, t, U, V)
            cols = [np.broadcast_to(e(**env), np.shape(t)).astype(float)
                    for e in exprs]
            return np.stack(cols, axis=-1)
        return fn

    return Lagrangian(
        n=n,
        eval=eval_fn,
        d2=grad_fn(d2) if d2 is not None else None,
        d3=grad_fn(d3) if d3 is not None else None,
        vectorized=True,
    )


def _candidate_generator(exprs):
    n = len(exprs)

    def gen(t):
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        cols = [np.broadcast_to(e(t=flat), flat.shape).astype(float) for e in exprs]
        out = np.stack(cols, axis=-1)
        if arr.ndim == 0:
            return out[0]
        return out

    return gen


def _probe_points(ts, a, h):
    pts = [a]
    t = a
    for _ in range(3):
        t = ts.advance(t, max(h, 1e-3))
        pts.append(t)
    return np.asarray(pts, dtype=float)


def problem_from_dict(doc):
    """Validate a parsed problem-file dict and build the live objects."""
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must contain a JSON object")
    unknown = set(doc) - {"timescale", "a", "x_a", "lagrangian", "candidates",
                          "config", "title", "notes"}
    if unknown:
        raise ProblemFileError(f"unknown problem-file fields {sorted(unknown)}")

    raw_ts = _require(doc, "timescale")
    if isinstance(raw_ts, str):
        ts = parse_timescale(raw_ts)
    elif isinstance(raw_ts, (dict, list)):
        ts = timescale_from_structured(raw_ts)
    else:
        raise ProblemFileError("'timescale' must be a DSL string or structured form")

    a = float(_require(doc, "a", (int, float)))
    raw_xa = _require(doc, "x_a")
    if isinstance(raw_xa, (int, float)):
        raw_xa = [raw_xa]
    if not isinstance(raw_xa, list) or not raw_xa:
        raise ProblemFileError("'x_a' must be a number or a nonempty list")
    try:
        x_a = np.asarray([float(v) for v in raw_xa])
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"'x_a' entries must be numbers: {exc}") from exc
    n = len(x_a)

    lagrangian = _build_lagrangian(_require(doc, "lagrangian"), n)
    problem = Problem(ts=ts, a=a, x_a=x_a, lagrangian=lagrangian)

    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ProblemFileError("'config' must be an object")
    bad = set(config) - _CONFIG_KEYS
    if bad:
        raise ProblemFileError(f"unknown config keys {sorted(bad)}")

    candidates = {}
    candidate_exprs = {}
    raw_cands = doc.get("candidates", {})
    if not isinstance(raw_cands, dict):
        raise ProblemFileError("'candidates' must map names to expressions")
    for name, raw in raw_cands.items():
        exprs = _expr_list(raw, n, f"candidate {name!r}", ("t",))
        candidates[name] = _candidate_generator(exprs)
        candidate_exprs[name] = tuple(e.source for e in exprs)

    pf = ProblemFile(
        problem=problem,
        candidates=candidates,
        candidate_exprs=candidate_exprs,
        config=dict(config),
        source=doc,
    )
    _probe_finiteness(pf)
    return pf


def _probe_finiteness(pf):
    ts, a, n = pf.problem.ts, pf.problem.a, pf.problem.n
    t = _probe_points(ts, a, pf.h)
    for name, gen in pf.candidates.items():
        vals = np.asarray(gen(t), dtype=float)
        if vals.shape != (len(t), n):
            raise ProblemFileError(
                f"candidate {name!r} produced shape {vals.shape}, "
                f"expected {(len(t), n)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ProblemFileError(f"candidate {name!r} is not finite on probe points")
    U = np.repeat(pf.problem.x_a[None, :], len(t), axis=0)
    for V in (np.zeros_like(U), np.full_like(U, 0.25)):
        for label, vals in (("L", pf.problem.lagrangian.values(t, U, V)),
                            ("d2", pf.problem.lagrangian.partial2(t, U, V)),
                            ("d3", pf.problem.lagrangian.partial3(t, U, V))):
            if not np.all(np.isfinite(vals)):
                raise ProblemFileError(
                    f"integrand field {label!r} is not finite on probe points"
                )


def load_problem_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    return problem_from_dict(doc)
