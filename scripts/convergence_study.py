#!/usr/bin/env python3
"""Measure the second-order convergence of the dense-grid machinery.

Three studies, each over a halving sequence of sampling steps, printing the
sup error and the observed order log2(err(h) / err(h/2)):

  A. slope operator on a continuous ray: max |delta(sin) - cos| on [0, 10];
  B. parts split of the first variation on a mixed scale (a continuous
     stretch, two isolated points, then a ray) with a path whose slope
     field is polynomial, so the split's hypotheses hold and the residual
     is pure truncation;
  C. truncated direct solver on the ray quadratic problem at T = 3 against
     the closed-form boundary-value solution.

    python3 scripts/convergence_study.py
    python3 scripts/convergence_study.py --fast
"""

import argparse
from dataclasses import dataclass

import numpy as np

from tsvar import (
    ClosedInterval,
    DiscretePoints,
    GridFunction,
    Lagrangian,
    Problem,
    TimeScaleSpec,
    UnboundedRay,
    delta_derivative_all,
    lqr_ray,
    lqr_ray_truncation_oracle,
    parts_decomposition_residual,
    real_ray,
    solve_truncated,
)


@dataclass(frozen=True)
class Study:
    name: str
    steps: tuple
    run: callable


def report(study):
    """Print the study's table and return its observed orders."""
    print(f"-- {study.name}")
    errs = [study.run(h) for h in study.steps]
    orders = [float(np.log2(prev / e)) for prev, e in zip(errs, errs[1:])]
    for i, (h, e) in enumerate(zip(study.steps, errs)):
        order = "" if i == 0 else f"  order {orders[i - 1]:5.2f}"
        print(f"   h = {h:<8g} err = {e:.3e}{order}")
    return orders


def slope_error(h):
    grid = real_ray(0.0).build_grid(0.0, 10.0, h)
    dd, defined = delta_derivative_all(GridFunction.from_callable(grid, np.sin))
    return float(np.max(np.abs(dd[defined, 0] - np.cos(grid.nodes[defined]))))


# -- study B fixtures: T = [0,1] u {1.5, 2.25} u [3, inf) -------------------

MIXED = TimeScaleSpec(
    (ClosedInterval(0.0, 1.0), DiscretePoints((1.5, 2.25)), UnboundedRay(3.0))
)


def smooth_path(t):
    """x with x(0) = 1 and slope field w(t) = 0.3 + 0.2 t on MIXED:
    continuous stretches integrate w, each jump adds mu * w."""
    t = np.asarray(t, dtype=float)

    def W(s):  # antiderivative of w
        return 0.3 * s + 0.1 * s * s

    return np.select(
        [t <= 1.0, t <= 1.5, t <= 2.25, t < 3.0, t >= 3.0],
        [1.0 + W(t), 1.65, 2.1, 2.6625, 2.6625 + W(t) - W(3.0)],
    )


QUAD = Lagrangian(
    n=1,
    eval=lambda t, u, v: -(u[:, 0] ** 2 + 0.5 * v[:, 0] ** 2 + 0.2 * u[:, 0] + 0.1 * v[:, 0]),
    d2=lambda t, u, v: (-(2.0 * u[:, 0] + 0.2))[:, None],
    d3=lambda t, u, v: (-(v[:, 0] + 0.1))[:, None],
    vectorized=True,
)


def parts_error(h):
    prob = Problem(ts=MIXED, a=0.0, x_a=[1.0], lagrangian=QUAD)
    p = lambda t: np.asarray(t) * (0.25 - 0.05 * np.asarray(t))
    return parts_decomposition_residual(prob, smooth_path, p, 4.0, h=h)


def solver_error(h):
    res = solve_truncated(lqr_ray().problem, 3.0, h=h)
    nodes = res.trajectory.x.grid.nodes
    want = lqr_ray_truncation_oracle(3.0)(nodes)
    return float(np.max(np.abs(res.trajectory.x.values[:, 0] - want)))


def main(argv=None):
    """Run the three studies; returns {study name: observed orders}."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true", help="drop the finest steps")
    args = ap.parse_args(argv)
    cut = -1 if args.fast else None
    studies = (
        Study("A. slope of sin on [0, 10] vs cos", (0.1, 0.05, 0.025, 0.0125)[:cut], slope_error),
        Study("B. parts split on a mixed scale", (0.04, 0.02, 0.01, 0.005)[:cut], parts_error),
        Study("C. solver vs boundary-value solution, T = 3", (0.08, 0.04, 0.02, 0.01)[:cut], solver_error),
    )
    return {study.name: report(study) for study in studies}


if __name__ == "__main__":
    main()
