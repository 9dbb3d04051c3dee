"""Built-in problem corpus.

Four families with known first-order behavior:

* ``ex-neg``  L = (x_sigma - alpha)^2 + beta x_delta, x(a) = alpha.  The
  constant path kills the E-L residual but its transversality term is
  identically beta*alpha, so the necessary conditions cannot all hold.
* ``ex-pos``  L = -sqrt(1 + x_delta^2), x(0) = A.  The constant path is the
  honest candidate; lines t -> c t + A are extremals too but lose to the
  constant on every long window.
* ``lqr-z``   L = -(x_delta^2 + x_sigma^2) on the integers.  Truncations are
  solvable exactly by a tridiagonal system; the infinite-horizon candidate is
  the decaying mode of the recurrence x_{k+1} = 3 x_k - x_{k-1}.
* ``lqr-r``   the same integrand on [0, inf); truncations solve x'' = x with
  a natural boundary condition, the infinite-horizon candidate is x_a e^{-t}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .timescale import format_timescale, integer_scale, real_ray
from .variational import Lagrangian, Problem, Verdict

#: decaying root of r^2 - 3r + 1 = 0, the stable mode of the lqr recurrence
LQR_DECAY_ROOT = (3.0 - np.sqrt(5.0)) / 2.0


def scalar_traj(fn):
    """Wrap a scalar formula t -> x(t) into the generator shape contract:
    scalar in -> (1,), array (m,) in -> (m, 1)."""

    def gen(t):
        arr = np.asarray(t, dtype=float)
        vals = np.broadcast_to(np.asarray(fn(arr), dtype=float), arr.shape)
        if arr.ndim == 0:
            return np.array([float(vals)])
        return np.asarray(vals, dtype=float).reshape(len(arr), 1)

    return gen


@dataclass(frozen=True)
class Candidate:
    label: str
    gen: Callable
    expected: Verdict
    expression: str  # closed form in t, exportable to the problem-file format


@dataclass(frozen=True)
class NamedProblem:
    id: str
    title: str
    problem: Problem
    known_candidates: tuple
    integrand_expr: str
    d2_exprs: tuple
    d3_exprs: tuple
    params: dict
    notes: str = ""

    def candidate(self, label):
        for cand in self.known_candidates:
            if cand.label == label:
                return cand
        raise KeyError(f"no candidate {label!r} in problem {self.id!r}")

    def file_form(self, config=None):
        """The problem as a dict in the JSON problem-file layout."""
        doc = {
            "timescale": format_timescale(self.problem.ts),
            "a": float(self.problem.a),
            "x_a": [float(v) for v in self.problem.x_a],
            "lagrangian": {
                "L": self.integrand_expr,
                "d2": list(self.d2_exprs),
                "d3": list(self.d3_exprs),
            },
            "candidates": {c.label: [c.expression] for c in self.known_candidates},
        }
        if config:
            doc["config"] = dict(config)
        return doc


# ---------------------------------------------------------------------------
# factories


def ex_neg(alpha=1.0, beta=1.0, ts=None):
    """(x_sigma - alpha)^2 + beta x_delta from x(a) = alpha.

    The constant candidate satisfies the E-L equation exactly, yet its
    transversality term is beta*alpha at every horizon: with beta*alpha != 0
    the verdict is EL_FAILS_TRANSVERSALITY.  With beta*alpha = 0 the
    transversality term vanishes, but the constant path sits at the global
    minimum of the squared term, so every tail perturbation improves the
    functional and the verdict is NOT_WEAKLY_MAXIMAL.
    """
    ts = ts if ts is not None else integer_scale(0)
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: (u[:, 0] - alpha) ** 2 + beta * v[:, 0],
        d2=lambda t, u, v: (2.0 * (u[:, 0] - alpha))[:, None],
        d3=lambda t, u, v: np.full((len(t), 1), beta),
        vectorized=True,
    )
    prob = Problem(ts=ts, a=ts.a, x_a=np.array([alpha]), lagrangian=lag)
    cands = (
        Candidate(
            label="const",
            gen=scalar_traj(lambda t: alpha * np.ones_like(t)),
            expected=Verdict.EL_FAILS_TRANSVERSALITY
            if abs(beta * alpha) > 1e-9
            else Verdict.NOT_WEAKLY_MAXIMAL,
            expression=f"{float(alpha)!r}",
        ),
    )
    return NamedProblem(
        id="ex-neg",
        title="quadratic-plus-linear integrand with a stranded transversality term",
        problem=prob,
        known_candidates=cands,
        integrand_expr=f"(u1 - {float(alpha)!r})^2 + {float(beta)!r}*v1",
        d2_exprs=(f"2*(u1 - {float(alpha)!r})",),
        d3_exprs=(f"{float(beta)!r}",),
        params={"alpha": float(alpha), "beta": float(beta)},
        notes="E-L residual vanishes for the constant path, transversality does not",
    )


def ex_pos(A=1.0, ts=None):
    """-sqrt(1 + x_delta^2) from x(0) = A: arclength penalty.

    Every line is an extremal; the constant one is the weakly maximal
    candidate.  Non-constant lines keep a drifting transversality term and
    lose to tamer competitors on long windows.
    """
    ts = ts if ts is not None else integer_scale(0)
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: -np.sqrt(1.0 + v[:, 0] ** 2),
        d2=lambda t, u, v: np.zeros((len(t), 1)),
        d3=lambda t, u, v: (-v[:, 0] / np.sqrt(1.0 + v[:, 0] ** 2))[:, None],
        vectorized=True,
    )
    prob = Problem(ts=ts, a=ts.a, x_a=np.array([A]), lagrangian=lag)
    a = float(ts.a)
    cands = (
        Candidate(
            label="const",
            gen=scalar_traj(lambda t: A * np.ones_like(t)),
            expected=Verdict.CONSISTENT,
            expression=f"{float(A)!r}",
        ),
        Candidate(
            label="line",
            gen=scalar_traj(lambda t: (t - a) + A),
            expected=Verdict.NOT_WEAKLY_MAXIMAL,
            expression=f"(t - {a!r}) + {float(A)!r}",
        ),
        Candidate(
            label="line-half",
            gen=scalar_traj(lambda t: 0.5 * (t - a) + A),
            expected=Verdict.NOT_WEAKLY_MAXIMAL,
            expression=f"0.5*(t - {a!r}) + {float(A)!r}",
        ),
    )
    return NamedProblem(
        id="ex-pos",
        title="negative arclength: constant paths beat every other extremal",
        problem=prob,
        known_candidates=cands,
        integrand_expr="-sqrt(1 + v1^2)",
        d2_exprs=("0",),
        d3_exprs=("-v1 / sqrt(1 + v1^2)",),
        params={"A": float(A)},
        notes="constant candidate passes all checks; lines are extremals but not maximal",
    )


def _lqr_lagrangian():
    return Lagrangian(
        n=1,
        eval=lambda t, u, v: -(v[:, 0] ** 2 + u[:, 0] ** 2),
        d2=lambda t, u, v: (-2.0 * u[:, 0])[:, None],
        d3=lambda t, u, v: (-2.0 * v[:, 0])[:, None],
        vectorized=True,
    )


def lqr_grid(x_a=1.0):
    """-(x_delta^2 + x_sigma^2) on the integers from x(0) = x_a."""
    ts = integer_scale(0)
    prob = Problem(ts=ts, a=0.0, x_a=np.array([x_a]), lagrangian=_lqr_lagrangian())
    r = LQR_DECAY_ROOT
    cands = (
        Candidate(
            label="decaying-mode",
            gen=scalar_traj(lambda t: x_a * np.power(r, t)),
            expected=Verdict.CONSISTENT,
            expression=f"{float(x_a)!r} * ((3 - sqrt(5))/2)^t",
        ),
    )
    return NamedProblem(
        id="lqr-z",
        title="discrete linear-quadratic regulator on the integer lattice",
        problem=prob,
        known_candidates=cands,
        integrand_expr="-(v1^2 + u1^2)",
        d2_exprs=("-2*u1",),
        d3_exprs=("-2*v1",),
        params={"x_a": float(x_a)},
        notes="truncations agree with a tridiagonal linear-system solve",
    )


def lqr_ray(x_a=1.0):
    """-(x'^2 + x^2) on [0, inf) from x(0) = x_a."""
    ts = real_ray(0)
    prob = Problem(ts=ts, a=0.0, x_a=np.array([x_a]), lagrangian=_lqr_lagrangian())
    cands = (
        Candidate(
            label="decaying-exp",
            gen=scalar_traj(lambda t: x_a * np.exp(-t)),
            expected=Verdict.CONSISTENT,
            expression=f"{float(x_a)!r} * exp(-t)",
        ),
    )
    return NamedProblem(
        id="lqr-r",
        title="continuous linear-quadratic regulator on the half-line",
        problem=prob,
        known_candidates=cands,
        integrand_expr="-(v1^2 + u1^2)",
        d2_exprs=("-2*u1",),
        d3_exprs=("-2*v1",),
        params={"x_a": float(x_a)},
        notes="truncations agree with the x'' = x boundary-value solution",
    )


def corpus():
    return (ex_neg(), ex_pos(), lqr_grid(), lqr_ray())


def get_problem(pid, **params):
    factories = {"ex-neg": ex_neg, "ex-pos": ex_pos, "lqr-z": lqr_grid, "lqr-r": lqr_ray}
    if pid not in factories:
        raise KeyError(f"unknown problem id {pid!r}; have {sorted(factories)}")
    return factories[pid](**params)


# ---------------------------------------------------------------------------
# reference solutions for the lqr truncations


def lqr_grid_truncation_oracle(t_end, x_a=1.0):
    """Exact maximizer of the lqr-z truncation on {0, ..., t_end}, free end.

    Stationarity of -sum[(x_{k+1}-x_k)^2 + x_{k+1}^2] gives the tridiagonal
    system x_{k-1} - 3 x_k + x_{k+1} = 0 inside and x_{T-1} - 2 x_T = 0 at
    the free end.  Returns the full node vector including x_0 = x_a.
    """
    T = int(round(t_end))
    if T < 1:
        raise ValueError("need at least one step")
    A = np.zeros((T, T))
    b = np.zeros(T)
    for row, k in enumerate(range(1, T)):
        A[row, k - 1] = -3.0
        if k - 2 >= 0:
            A[row, k - 2] = 1.0
        A[row, k] = 1.0
    b[0] = -float(x_a)
    A[T - 1, T - 1] = -2.0
    if T - 2 >= 0:
        A[T - 1, T - 2] = 1.0
    x_free = np.linalg.solve(A, b)
    return np.concatenate([[float(x_a)], x_free])


def lqr_ray_truncation_oracle(t_end, x_a=1.0):
    """Maximizer of the lqr-r truncation on [0, t_end], free right end:
    x'' = x with x(0) = x_a and the natural condition x'(t_end) = 0, i.e.
    x(t) = x_a cosh(t_end - t) / cosh(t_end).  Returns a callable."""

    def x(t):
        t = np.asarray(t, dtype=float)
        return float(x_a) * np.cosh(t_end - t) / np.cosh(t_end)

    return x
