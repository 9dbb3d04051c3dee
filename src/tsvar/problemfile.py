"""JSON problem files.

Layout::

    {
      "timescale": "union(points(0), arith(1, 1))",   // DSL string, or a list
                                                      // of segment mappings
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
from dataclasses import dataclass, fields
from typing import Callable, Dict, Tuple

import numpy as np

from .calculus import LimitConfig
from .errors import ProblemFileError
from .expressions import compile_expression, lagrangian_variables
from .timescale import parse_timescale, timescale_from_structured
from .variational import Lagrangian, Problem, SolveParams, VerifyConfig

#: config key -> the converter that types its value; the settings object a
#: key goes to is the one with a field of that name.  multistart and
#: init_amplitude are accepted and ignored, so files written for the
#: multistart solver still load.
_CONFIG = {
    "h": float, "t_max": float, "horizon_count": int, "n_tails": int,
    "el_tol": lambda v: None if v is None else float(v), "trans_tol": float,
    "probe_tol": float, "probe_amplitude": float,
    "gateaux_eps": lambda v: tuple(float(e) for e in v),
    "rel_tol": float, "abs_floor": float, "div_threshold": float, "window": int,
    "rate_keep": float, "drift_frac": float,
    "g_tol": float, "max_iter": int,
    "multistart": None, "init_amplitude": None,
}


@dataclass(frozen=True)
class ProblemFile:
    problem: Problem
    candidates: Dict[str, Callable]
    candidate_exprs: Dict[str, Tuple[str, ...]]
    config: dict
    source: dict

    @property
    def h(self):
        return self.config.get("h", 1e-2)

    def candidate(self, name):
        if name not in self.candidates:
            raise ProblemFileError(
                f"no candidate {name!r}; file defines {sorted(self.candidates)}"
            )
        return self.candidates[name]

    def _settings(self, cls, overrides):
        names = {f.name for f in fields(cls)}
        return {**{k: v for k, v in self.config.items() if k in names}, **overrides}

    def limit_config(self):
        return LimitConfig(**self._settings(LimitConfig, {}))

    def verify_config(self, **overrides):
        return VerifyConfig(limits=self.limit_config(),
                            **self._settings(VerifyConfig, overrides))

    def solve_params(self, **overrides):
        return SolveParams(**self._settings(SolveParams, overrides))


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
        return L(**_vector_env(n, t, U, V))

    def grad_fn(exprs):
        def fn(t, U, V):
            env = _vector_env(n, t, U, V)
            return np.stack([np.broadcast_to(e(**env), np.shape(t)) for e in exprs], axis=-1)
        return fn

    return Lagrangian(
        n=n,
        eval=eval_fn,
        d2=grad_fn(d2) if d2 is not None else None,
        d3=grad_fn(d3) if d3 is not None else None,
        vectorized=True,
    )


def candidate_generator(exprs):
    """The generator t -> (m, n) array of the t-only expressions ``exprs``."""
    def gen(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.broadcast_to(e(t=t), t.shape) for e in exprs], axis=-1)

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
    elif isinstance(raw_ts, list):
        ts = timescale_from_structured(raw_ts)
    else:
        raise ProblemFileError("'timescale' must be a DSL string or a list of segments")

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

    config = _typed_config(doc.get("config", {}))

    candidates = {}
    candidate_exprs = {}
    raw_cands = doc.get("candidates", {})
    if not isinstance(raw_cands, dict):
        raise ProblemFileError("'candidates' must map names to expressions")
    for name, raw in raw_cands.items():
        exprs = _expr_list(raw, n, f"candidate {name!r}", ("t",))
        candidates[name] = candidate_generator(exprs)
        candidate_exprs[name] = tuple(e.source for e in exprs)

    pf = ProblemFile(
        problem=problem,
        candidates=candidates,
        candidate_exprs=candidate_exprs,
        config=config,
        source=doc,
    )
    _probe_finiteness(pf)
    return pf


def _typed_config(raw):
    """The config section, each value converted by its _CONFIG entry; keys
    that are accepted and ignored are dropped."""
    if not isinstance(raw, dict):
        raise ProblemFileError("'config' must be an object")
    bad = set(raw) - set(_CONFIG)
    if bad:
        raise ProblemFileError(f"unknown config keys {sorted(bad)}")
    config = {}
    for key, val in raw.items():
        if _CONFIG[key] is not None:
            try:
                config[key] = _CONFIG[key](val)
            except (TypeError, ValueError) as exc:
                raise ProblemFileError(f"config key {key!r} has a bad value {val!r}") from exc
    return config


def _probe_finiteness(pf):
    t = _probe_points(pf.problem.ts, pf.problem.a, pf.h)
    for name, gen in pf.candidates.items():
        if not np.all(np.isfinite(gen(t))):
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
