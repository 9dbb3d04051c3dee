"""First-order diagnostics: residuals, transversality, lim-inf estimates,
variation quotients, the lemma probe, and the truncated direct solver."""

import collections
import dataclasses
import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsvar import (
    BoundaryUndefined,
    ClosedInterval,
    DimensionMismatch,
    DiscretePoints,
    EvaluationError,
    GridFunction,
    GridTooSmall,
    InadmissiblePath,
    InadmissibleVariation,
    InsufficientHorizons,
    InvalidWindow,
    Lagrangian,
    LimitConfig,
    LimitEstimate,
    LimitKind,
    NonFiniteObjective,
    PartialsMismatch,
    Problem,
    SampleGrid,
    SampledPath,
    Trajectory,
    VerificationReport,
    SolveParams,
    Verdict,
    VerifyConfig,
    ZeroEpsilon,
    compact_bump,
    decaying_pulse,
    el_residual,
    el_sup_norm,
    first_variation,
    fundamental_lemma_probe,
    gateaux_report,
    integer_scale,
    is_weak_max_consistent,
    liminf_over_tails,
    make_horizon_plan,
    parts_decomposition_residual,
    perturbed_generator,
    real_ray,
    sample_trajectory,
    smoothstep_tail,
    solve_truncated,
    transversality_liminf,
    transversality_sweep,
    transversality_term,
    UnboundedRay,
    union,
    variation_quotient,
    verify_candidate,
    weak_max_compare,
)
from tsvar.problems import (
    ex_neg,
    ex_pos,
    lqr_grid,
    lqr_grid_truncation_oracle,
    lqr_ray,
    lqr_ray_truncation_oracle,
    scalar_traj,
)
from tsvar import calculus, cli, variational
from tsvar.problemfile import problem_from_dict
from tsvar.variational import (
    _block_tridiagonal_solve,
    _default_el_tol,
    _Discretization,
    _hessian_blocks,
    _newton,
    classify_report,
)

from helpers import (
    COMB,
    difference_integral,
    mask_grid,
    quadratic_lagrangian,
    random_poly,
    reference_gateaux,
    reference_horizon_idx,
    reference_liminf,
    same_bits,
    whole_lagrangian_row,
    whole_shift_slope,
)

NAT = integer_scale(0)


def counted(calls, name, fn):
    """fn, counting its calls under ``name`` in the Counter ``calls``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(monkeypatch, names):
    """A Counter of the calls to the named calculus functions, through their
    bindings in calculus and, where it imports them, in variational."""
    calls = collections.Counter()
    for mod in (calculus, variational):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(calls, name, getattr(mod, name)))
    return calls


# ---------------------------------------------------------------------------
# Lagrangian partials


def test_finite_difference_partials():
    lag = Lagrangian(n=1, eval=lambda t, u, v: u[0] * v[0] + np.sin(v[0]))
    t = np.array([0.7])
    u = np.array([[1.3]])
    v = np.array([[0.4]])
    assert abs(lag.partial2(t, u, v)[0, 0] - 0.4) <= 1e-6
    assert abs(lag.partial3(t, u, v)[0, 0] - (1.3 + np.cos(0.4))) <= 1e-6


def test_partials_are_cross_checked():
    with pytest.raises(PartialsMismatch):
        Lagrangian(
            n=1,
            eval=lambda t, u, v: u[:, 0] ** 2,
            d2=lambda t, u, v: np.ones((len(t), 1)),  # wrong: should be 2u
            vectorized=True,
        )
    # the same wrong gradient passes when validation is disabled
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: u[:, 0] ** 2,
        d2=lambda t, u, v: np.ones((len(t), 1)),
        vectorized=True,
        validate=False,
    )
    assert lag.partial2(np.zeros(1), np.ones((1, 1)), np.zeros((1, 1)))[0, 0] == 1.0


def offset_quadratic(offset, d2_factor=2.0):
    """offset - (u^2 + v^2), vectorized, with d2 = -d2_factor u and the
    exact d3."""
    return Lagrangian(
        n=1,
        eval=lambda t, u, v: offset - (v[:, 0] ** 2 + u[:, 0] ** 2),
        d2=lambda t, u, v: -d2_factor * u,
        d3=lambda t, u, v: -2.0 * v,
        vectorized=True,
    )


@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8, 1e10, -1e9])
def test_exact_partials_pass_the_check_under_a_large_constant(offset):
    """The central differences of offset - (u^2 + v^2) lose about
    eps |L| / delta to rounding (2.3e-4 above the relative bound at 1e7,
    2.8e-3 at 1e8); the check's rounding term admits that, and a d2 10%
    off stays refused up to 1e8."""
    lag = offset_quadratic(offset)
    t, u, v = np.zeros(2), np.array([[0.5], [-1.0]]), np.array([[2.0], [0.0]])
    assert np.array_equal(lag.partial2(t, u, v), -2.0 * u)
    if abs(offset) <= 1e8:
        with pytest.raises(PartialsMismatch, match="d2 disagrees"):
            offset_quadratic(offset, d2_factor=2.2)


def log_or_raise(t, u, v):
    """log u on one row, raising where u <= 0."""
    if u[0] <= 0:
        raise ValueError("u must be positive")
    return math.log(u[0])


@pytest.mark.parametrize("eval_, vectorized", [
    (lambda t, u, v: np.log(u[:, 0]) + v[:, 0], True),  # nan at the negative probe rows
    (lambda t, u, v: np.zeros(len(t)) + 1.0 / (u[:, 0] > 5.0).sum(), True),  # inf
    (log_or_raise, False),
], ids=["nan", "inf", "raises"])
def test_partials_check_is_skipped_where_l_is_not_finite(eval_, vectorized):
    """An integrand that is not finite at the probe points, or raises there,
    has no finite differences to compare with: the check is skipped and the
    partials are kept as supplied."""
    with np.errstate(all="ignore"):
        lag = Lagrangian(n=1, eval=eval_, d2=lambda t, u, v: 7.0 * u, vectorized=vectorized)
    u = np.ones((1, 1))
    assert lag.partial2(np.zeros(1), u, u)[0, 0] == 7.0


def polynomial_twins(n, partials):
    """A polynomial integrand in R^n as a scalar Lagrangian (one row per
    call) and as its vectorized twin; both do the same float operations on
    each row.  With ``partials`` False both fall back to finite
    differences."""
    if n == 1:
        scalar = dict(
            eval=lambda t, u, v: u[0] * u[0] * u[0] - 2.0 * u[0] * v[0] + t * v[0] * v[0],
            d2=lambda t, u, v: 3.0 * u[0] * u[0] - 2.0 * v[0],
            d3=lambda t, u, v: -2.0 * u[0] + 2.0 * t * v[0],
        )
        rows = dict(
            eval=lambda t, u, v: (u[:, 0] * u[:, 0] * u[:, 0] - 2.0 * u[:, 0] * v[:, 0]
                                  + t * v[:, 0] * v[:, 0]),
            d2=lambda t, u, v: (3.0 * u[:, 0] * u[:, 0] - 2.0 * v[:, 0])[:, None],
            d3=lambda t, u, v: (-2.0 * u[:, 0] + 2.0 * t * v[:, 0])[:, None],
        )
    else:
        scalar = dict(
            eval=lambda t, u, v: u[0] * u[1] - v[0] * v[0] + t * v[1],
            d2=lambda t, u, v: [u[1], u[0]],
            d3=lambda t, u, v: [-2.0 * v[0], t],
        )
        rows = dict(
            eval=lambda t, u, v: u[:, 0] * u[:, 1] - v[:, 0] * v[:, 0] + t * v[:, 1],
            d2=lambda t, u, v: np.stack([u[:, 1], u[:, 0]], axis=1),
            d3=lambda t, u, v: np.stack([-2.0 * v[:, 0], t], axis=1),
        )
    if not partials:
        for fns in (scalar, rows):
            del fns["d2"], fns["d3"]
    return Lagrangian(n=n, **scalar), Lagrangian(n=n, vectorized=True, **rows)


@pytest.mark.parametrize("partials", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("n", [1, 2])
def test_scalar_lagrangian_matches_its_vectorized_twin(n, partials):
    scalar, twin = polynomial_twins(n, partials)
    # the adapted callables are private: fields, repr and == stay as given
    assert scalar == dataclasses.replace(scalar) and "_eval" not in repr(scalar)
    assert scalar.vectorized is False
    rng = np.random.default_rng(7 + n)
    t = rng.uniform(0.0, 5.0, 9)
    u, v = rng.standard_normal((9, n)), rng.standard_normal((9, n))
    for name in ("values", "partial2", "partial3"):
        got, want = getattr(scalar, name)(t, u, v), getattr(twin, name)(t, u, v)
        assert got.shape == want.shape == ((9,) if name == "values" else (9, n))
        assert np.array_equal(got, want), name
    if n == 2:  # one row
        t1, u1, v1 = np.array([2.0]), np.array([[1.0, 3.0]]), np.array([[0.5, 0.25]])
        for lag in (scalar, twin):
            assert lag.values(t1, u1, v1).tolist() == [3.0 - 0.25 + 0.5]


def scalar_lqr_problem():
    """lqr-z with its integrand given as scalar (one row per call) callables."""
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: -(v[0] ** 2 + u[0] ** 2),
        d2=lambda t, u, v: -2.0 * u[0],
        d3=lambda t, u, v: -2.0 * v[0],
    )
    return Problem(ts=NAT, a=0.0, x_a=np.array([1.0]), lagrangian=lag)


def test_scalar_lagrangian_verifies_and_solves_like_the_builtin():
    lqr, scalar = lqr_grid(), scalar_lqr_problem()
    cfg = VerifyConfig(t_max=60.0, h=1.0)
    gen = lqr.candidate("decaying-mode").gen
    want = verify_candidate(lqr.problem, gen, cfg).to_dict()
    assert verify_candidate(scalar, gen, cfg).to_dict() == want
    a, b = solve_truncated(lqr.problem, 60.0, h=1.0), solve_truncated(scalar, 60.0, h=1.0)
    assert np.array_equal(a.trajectory.x.values, b.trajectory.x.values)
    assert (a.objective, a.iterations, a.history) == (b.objective, b.iterations, b.history)


def test_lagrangian_results_of_another_shape_are_refused():
    t, u, v = np.arange(4.0), np.arange(8.0).reshape(4, 2), np.ones((4, 2))
    # d2 returned as (n, m) instead of (m, n): once silently reshaped
    transposed = lambda t, u, v: np.stack([2.0 * u[:, 0], 3.0 * u[:, 1]])
    lag = Lagrangian(n=2, eval=lambda t, u, v: u[:, 0] ** 2 + 1.5 * u[:, 1] ** 2,
                     d2=transposed, vectorized=True, validate=False)
    with pytest.raises(DimensionMismatch, match=r"\(2, 4\)"):
        lag.partial2(t, u, v)
    # with validation on, the same mistake is named as a shape, not as a
    # disagreement with finite differences
    with pytest.raises(DimensionMismatch):
        Lagrangian(n=2, eval=lag.eval, d2=transposed, vectorized=True)
    column = Lagrangian(n=2, eval=lambda t, u, v: u[:, :1] * v[:, :1], vectorized=True)
    with pytest.raises(DimensionMismatch, match=r"\(4, 1\)"):
        column.values(t, u, v)


def test_lagrangian_constants_broadcast():
    t, u, v = np.arange(3.0), np.ones((3, 2)), np.zeros((3, 2))
    lag = Lagrangian(n=2, eval=lambda t, u, v: 1.5, d2=lambda t, u, v: np.array([1.0, -2.0]),
                     vectorized=True, validate=False)
    assert lag.values(t, u, v).tolist() == [1.5, 1.5, 1.5]
    assert lag.partial2(t, u, v).tolist() == [[1.0, -2.0]] * 3


def test_partials_are_read_as_constant_only_when_they_are():
    # m = n = 2: a d2 giving the column 2 u1 returns (2,), the shape of a
    # constant gradient, and was once broadcast as the row [2, 6]
    t, u, v = np.arange(2.0), np.array([[1.0, 0.0], [3.0, 0.0]]), np.zeros((2, 2))
    column = Lagrangian(n=2, eval=lambda t, u, v: u[:, 0] ** 2,
                        d2=lambda t, u, v: 2.0 * u[:, 0], vectorized=True, validate=False)
    with pytest.raises(DimensionMismatch, match=r"\(2,\)"):
        column.partial2(t, u, v)
    constant = Lagrangian(n=2, eval=lambda t, u, v: u[:, 0] - 2.0 * u[:, 1],
                          d2=lambda t, u, v: np.array([1.0, -2.0]), vectorized=True)
    assert constant.partial2(t, u, v).tolist() == [[1.0, -2.0]] * 2
    # and a transposed d2, (n, m), has the shape of (m, n) on 2 rows
    transposed = Lagrangian(n=2, eval=column.eval, vectorized=True, validate=False,
                            d2=lambda t, u, v: np.stack([2.0 * u[:, 0], 3.0 * u[:, 1]]))
    with pytest.raises(DimensionMismatch, match=r"\(2, 2\)"):
        transposed.partial2(t, np.array([[1.0, 2.0], [5.0, 7.0]]), v)
    # one gradient on every row count, so a constant one of the wrong
    # length is refused on every row count
    short = Lagrangian(n=2, eval=lambda t, u, v: u[:, 0], d3=lambda t, u, v: np.zeros(3),
                       vectorized=True, validate=False)
    with pytest.raises(DimensionMismatch, match="constant"):
        short.partial3(np.arange(3.0), np.ones((3, 2)), np.ones((3, 2)))


def test_lagrangian_results_are_copied_only_to_broadcast_or_convert():
    t, u, v = np.arange(3.0), np.ones((3, 1)), np.ones((3, 1))
    own = np.array([1.0, 2.0, 3.0])
    lag = Lagrangian(n=1, eval=lambda t, u, v: own[: len(t)],
                     d3=lambda t, u, v: own[: len(t), None], vectorized=True, validate=False)
    assert np.shares_memory(lag.values(t, u, v), own)
    assert np.shares_memory(lag.partial3(t, u, v), own)
    ints = Lagrangian(n=1, eval=lambda t, u, v: np.arange(3), vectorized=True)
    assert ints.values(t, u, v).dtype == float


def test_scalar_lagrangian_may_return_length_one_arrays():
    # with n = 1, u and v are length-1 rows, so u * u is a length-1 array
    one = Lagrangian(n=1, eval=lambda t, u, v: u * u, d3=lambda t, u, v: 2.0 * v,
                     validate=False)
    t1, u1 = np.arange(3.0), np.array([[1.0], [2.0], [3.0]])
    assert one.values(t1, u1, u1).tolist() == [1.0, 4.0, 9.0]
    assert one.partial3(t1, u1, u1).tolist() == [[2.0], [4.0], [6.0]]


# ---------------------------------------------------------------------------
# Euler-Lagrange residual


@given(st.integers(0, 10_000))
def test_el_residual_matches_difference_recurrence(seed):
    # on the integer lattice the integral residual is the prefix sum of the
    # exact second-order difference expression; rebuild it by hand from the
    # partials
    rng = np.random.default_rng(seed)
    q, lag = quadratic_lagrangian(rng)
    c = random_poly(rng)
    x_of = lambda t: c[0] + c[1] * t + c[2] * t * t
    prob = Problem(ts=NAT, a=0.0, x_a=np.array([x_of(0.0)]), lagrangian=lag)
    traj = sample_trajectory(prob, scalar_traj(x_of), 8.0, 1.0)
    res = el_residual(prob, traj)

    xv = np.array([x_of(float(k)) for k in range(10)])
    def p_rows(k):
        u, v = xv[k + 1], xv[k + 1] - xv[k]
        t = np.array([float(k)])
        args = (t, np.array([[u]]), np.array([[v]]))
        return lag.partial2(*args)[0, 0], lag.partial3(*args)[0, 0]

    terms = []
    for k in range(8):
        p2_k, p3_k = p_rows(k)
        _, p3_next = p_rows(k + 1)
        terms.append(p3_next - p3_k - p2_k)
    want = np.concatenate([[0.0], np.cumsum(terms)])
    assert len(res.grid) == 9
    assert np.all(np.abs(res.values[:, 0] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_el_residual_zero_for_known_extremals():
    lqr = lqr_grid()
    traj = sample_trajectory(
        lqr.problem, lqr.candidate("decaying-mode").gen, 20.0, 1.0
    )
    assert el_sup_norm(lqr.problem, traj) <= 1e-12
    arc = ex_pos()
    traj = sample_trajectory(arc.problem, arc.candidate("line").gen, 15.0, 1.0)
    assert el_sup_norm(arc.problem, traj) <= 1e-12  # lines are extremals too


def test_el_residual_second_order_on_dense_grids():
    # down to h = 2.5e-5, where a pointwise residual (the d3 row differenced
    # again) is dominated by rounding divided by h^2
    ray = lqr_ray()
    hs = [0.1, 0.05, 0.025, 1e-4, 5e-5, 2.5e-5]
    sups = []
    for h in hs:
        traj = sample_trajectory(
            ray.problem, ray.candidate("decaying-exp").gen, 2.0, h
        )
        sups.append(el_sup_norm(ray.problem, traj))
        assert sups[-1] <= 5.0 * h * h
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert 1.6 <= slope <= 2.4


def test_el_residual_on_a_one_node_prefix():
    """A path whose slope is defined at a alone: r(a) = d3(a) - d3(a) = 0,
    with no cell to integrate."""
    lqr = lqr_grid()
    path = SampledPath(lqr.problem, GridFunction(NAT.build_grid(0.0, 1.0, 1.0), [[1.0], [0.5]]))
    assert path.K == 1
    assert el_residual(lqr.problem, path).values.tolist() == [[0.0]]
    assert el_sup_norm(lqr.problem, path) == 0.0


def reusing_integrand(fn):
    """The vectorized integrand ``fn`` handing back one output array, which
    every call overwrites."""
    out = np.empty(0)

    def reused(t, u, v):
        nonlocal out
        if out.shape != t.shape:
            out = np.empty(t.shape)
        out[...] = fn(t, u, v)
        return out

    return reused


def test_fd_partials_survive_an_integrand_that_reuses_its_output():
    """Finite-difference partials copy L at the upper point before L at the
    lower one is formed: with an integrand that hands back one array for
    both, they equal those of the same integrand returning fresh arrays,
    bit for bit (they read 0 when the two results were the one array)."""
    def fn(t, u, v):
        return (np.sin(u[:, 1]) + v[:, 1] ** 3
                - (v[:, 0] ** 2 + u[:, 0] ** 2 + u[:, 0] * v[:, 1]) * np.exp(-0.1 * t))

    fresh = Lagrangian(n=2, eval=fn, vectorized=True)
    reused = Lagrangian(n=2, eval=reusing_integrand(fn), vectorized=True)
    rng = np.random.default_rng(3)
    t, u, v = np.linspace(0.0, 5.0, 40), rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
    for partial in ("partial2", "partial3"):
        want = getattr(fresh, partial)(t, u, v)
        assert np.array_equal(getattr(reused, partial)(t, u, v), want)
        assert np.all(want != 0.0)


def test_sweep_survives_an_integrand_that_reuses_its_output(monkeypatch):
    """x*'s L row, formed per block in a buffer of the sweep's own, is not
    overwritten by the competitor rows of an integrand that hands back one
    array for every call: the horizon values equal those of the integrand
    returning fresh arrays, for blocks of 9 cells and for one block.  So
    does first_variation, whose d2/d3 rows the sweep forms by finite
    differences of that integrand."""
    ray = lqr_ray(1.3)
    lag = ray.problem.lagrangian
    fresh, reused = (dataclasses.replace(ray.problem, lagrangian=Lagrangian(
        n=1, eval=fn, vectorized=True)) for fn in (lag.eval, reusing_integrand(lag.eval)))
    plan = make_horizon_plan(fresh.ts, 0.0, 5.0, h=1e-2)
    gen, q = ray.candidate("decaying-exp").gen, smoothstep_tail(0.5, 0.0, 1.0)
    for block in (9, calculus._BLOCK):
        monkeypatch.setattr(calculus, "_BLOCK", block)
        got, fv = [], []
        for problem in (fresh, reused):
            star = SampledPath.of(problem, gen, plan.grid)
            competitor = SampledPath.of(problem, perturbed_generator(gen, q), plan.grid)
            got.append(difference_integral(
                problem, star, plan.horizon_idx, [(competitor, None), (q, (1.0, -0.1))]))
            fv.append(first_variation(problem, gen, q, 4.5, h=1e-2))
        assert np.array_equal(got[1], got[0]) and np.all(got[0][:, -1] != 0.0)
        assert fv[1] == fv[0] != 0.0


@pytest.mark.parametrize("x_a, h, fd", [
    (1.0, 5e-5, False),
    (1.268, 1e-4, False),
    (1.0, 1e-4, True),
], ids=["h=5e-5", "x_a=1.268", "fd-partials"])
def test_lqr_ray_optimum_stays_consistent_on_fine_grids(x_a, h, fd):
    named = lqr_ray(x_a)
    problem = named.problem
    if fd:  # partials left to finite differences
        lag = Lagrangian(n=1, eval=problem.lagrangian.eval, vectorized=True)
        problem = dataclasses.replace(problem, lagrangian=lag)
    report = verify_candidate(problem, named.candidate("decaying-exp").gen,
                              VerifyConfig(t_max=20.0, h=h))
    assert report.verdict is Verdict.CONSISTENT, report.flags
    assert report.el_sup_norm <= 0.1 * report.el_tol


def test_transversality_closed_forms():
    neg = ex_neg()  # d3 = beta identically, x = alpha
    traj = sample_trajectory(neg.problem, neg.candidate("const").gen, 12.0, 1.0)
    for tp in (1.0, 5.0, 9.0):
        assert transversality_term(neg.problem, traj, tp) == 1.0
    pos = ex_pos()  # line x = t + 1: term is -(T' + 1)/sqrt(2)
    traj = sample_trajectory(pos.problem, pos.candidate("line").gen, 12.0, 1.0)
    for tp in (2.0, 7.0):
        want = -(tp + 1.0) / np.sqrt(2.0)
        assert abs(transversality_term(pos.problem, traj, tp) - want) <= 1e-12


def test_transversality_sweep_is_the_term_at_each_horizon():
    pos = ex_pos()
    plan = make_horizon_plan(pos.problem.ts, 0.0, 30.0, h=1.0)
    path = SampledPath.of(pos.problem, pos.candidate("line").gen, plan.grid)
    pairs = transversality_sweep(pos.problem, path, plan)
    assert [t for t, _ in pairs] == list(plan.horizons)
    assert pairs == [(t, transversality_term(pos.problem, path, t)) for t in plan.horizons]


# ---------------------------------------------------------------------------
# lim-inf over tails


def tail_pairs(vals):
    return [(float(k + 1), float(v)) for k, v in enumerate(vals)]


def test_liminf_constant():
    pairs = tail_pairs([2.5] * 40)
    est = liminf_over_tails(pairs, [1, 5, 9, 13, 17, 21, 25])
    assert est.kind is LimitKind.CONVERGED and est.value == 2.5


def test_liminf_linear_drift_down():
    pairs = tail_pairs(-np.arange(1.0, 41.0))
    est = liminf_over_tails(pairs, [1, 5, 9, 13, 17, 21, 25])
    assert est.kind is LimitKind.DIVERGES_MINUS


def test_liminf_oscillation_with_settling_floor():
    # (-1)^k + 1/k: every tail's infimum equals the value at the largest
    # sampled odd index, so the infima sequence is flat
    ks = np.arange(1.0, 41.0)
    pairs = tail_pairs((-1.0) ** ks + 1.0 / ks)
    est = liminf_over_tails(pairs, [1, 5, 9, 13, 17, 21, 25, 29, 33])
    assert est.kind is LimitKind.CONVERGED
    assert abs(est.value - (-1.0 + 1.0 / 39.0)) <= 1e-12


def test_liminf_running_minimum_past_the_threshold_diverges():
    """Stage 1 returns DIVERGES_MINUS once the running minimum has passed
    -div_threshold, whatever its rate does: a drop to -1e8 that then stays
    flat keeps no rate (stage 1's rate test fails, and the tail infima,
    all -1e8, would converge), yet the estimate diverges, with the running
    minima at the tail starts as evidence.  A steady drift past it, t ->
    -1e7 t, diverges by the same rule."""
    tails = [1, 6, 11, 16, 21, 26]
    ts = np.arange(1.0, 30.0)
    est = liminf_over_tails(tail_pairs(-1e7 * np.minimum(ts, 10.0)), tails)
    assert est.kind is LimitKind.DIVERGES_MINUS
    assert est.evidence == tuple(zip([1.0, 6.0, 11.0, 16.0, 21.0, 26.0, 29.0],
                                     [-1e7, -6e7] + [-1e8] * 5))
    est = liminf_over_tails(tail_pairs(-1e7 * ts), tails)
    assert est.kind is LimitKind.DIVERGES_MINUS


def test_liminf_array_input_matches_pairs():
    ks = np.arange(1.0, 41.0)
    pairs = tail_pairs((-1.0) ** ks + 1.0 / ks)
    tails = [1, 5, 9, 13, 17, 21, 25, 29, 33]
    assert liminf_over_tails(np.array(pairs), tails) == liminf_over_tails(pairs, tails)
    down = tail_pairs(-np.arange(1.0, 41.0))
    assert liminf_over_tails(np.array(down), tails) == liminf_over_tails(down, tails)


def test_liminf_input_validation():
    pairs = tail_pairs(np.zeros(40))
    with pytest.raises(InsufficientHorizons):
        liminf_over_tails(pairs, [1, 5, 9])  # too few tails
    with pytest.raises(InsufficientHorizons):
        liminf_over_tails(pairs, [1, 5, 9, 13, 17.5])  # not a sampled horizon
    with pytest.raises(InsufficientHorizons):
        liminf_over_tails(pairs[:3], [1, 2, 3, 4, 5])
    bad = [(2.0, 0.0), (1.0, 0.0)] + pairs[2:]
    with pytest.raises(InsufficientHorizons):
        liminf_over_tails(bad, [1, 5, 9, 13, 17])


def estimate_json(est):
    """The estimate as a report holds it: kind, values and evidence, the
    signs of zeros included."""
    return json.dumps(est.to_dict())


def random_sequence(rng, n):
    """n values with, by turns, a drift down (stage 1's rules), ties, a
    floor of zeros, or a converging tail; zeros of both signs throughout."""
    v = rng.normal(size=n)
    kind = rng.integers(5)
    if kind == 1:
        v = -np.cumsum(np.abs(v)) * 10.0 ** rng.integers(0, 8)
    elif kind == 2:
        v = np.round(v)
    elif kind == 3:
        v = np.abs(v)
    elif kind == 4:
        v = 2.5 + 1e-12 * v
    zeros = rng.random(n) < 0.3
    v[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return v


def same_stats(a, b):
    """Statistics rows with the same minima, the signs of zeros included,
    and the same maximum (whose zero, read only for max |v|, may take
    either sign)."""
    return same_bits(a[..., :-1], b[..., :-1]) and np.array_equal(a[..., -1], b[..., -1])


def fold_in_blocks(stats, values, cuts):
    """The statistics of ``values`` folded block by block, split at ``cuts``."""
    rows = stats.empty(1)
    for lo, end in zip([0, *cuts], [*cuts, len(values)]):
        stats.fold(rows, lo, values[None, lo:end])
    return rows[0]


def test_tail_statistics_equal_the_full_length_minima():
    """On random sequences, the lim-inf classified from the tail statistics
    -- of the whole array (liminf_over_tails) or folded block by block --
    is the one the full-length running and suffix minima give, its report
    bytes included, and the Gateaux table from the statistics equals the
    one from the full rows.  The tail starts are now and then adjacent
    (p + 1 is the next p) or at the last horizon; the marks may repeat."""
    rng = np.random.default_rng(20261019)
    for _ in range(400):
        n = int(rng.integers(5, 60))
        T = 0.5 * np.arange(1, n + 1)
        if rng.random() < 0.3:  # adjacent tail starts up to the last horizon
            pos = np.arange(n - int(rng.integers(5, n + 1)), n)
        else:
            pos = np.sort(rng.choice(n, size=int(rng.integers(5, n + 1)), replace=False))
        marks = rng.integers(0, n, size=3)
        stats = variational._TailStats(T, T[pos], pos, marks)
        cuts = sorted(set(rng.integers(1, n, size=int(rng.integers(0, 6))).tolist()))
        V = random_sequence(rng, n)
        want = estimate_json(reference_liminf(T, V, T[pos]))
        assert estimate_json(liminf_over_tails(np.column_stack((T, V)), T[pos])) == want
        row = fold_in_blocks(stats, V, cuts)
        assert same_stats(row, stats.of(V))
        assert estimate_json(stats.classify(row, LimitConfig())) == want
        rows = [random_sequence(rng, n) for _ in range(3)]
        eps = (0.1, -0.01, 1e-3)
        table = variational._gateaux_table(eps, stats, [fold_in_blocks(stats, r, cuts)
                                                        for r in rows])
        quot, a_values = reference_gateaux(eps, marks, rows)
        assert same_bits(table.quotients, quot) and same_bits(table.a_values, a_values)
        assert table.t_values == tuple(T[marks])


def test_tail_statistics_edges():
    """Adjacent tail starts and one at the last horizon: the cuts p + 1 and
    the next p coincide, and a reduceat over an empty segment would return
    an element, not the identity; each value a block of its own."""
    T = np.arange(1.0, 13.0)
    V = np.array([3.0, -0.0, 2.0, 0.0, -1.0, 4.0, -0.0, 0.0, 5.0, 0.0, -0.0, 0.5])
    pos = np.array([3, 4, 5, 6, 11])
    stats = variational._TailStats(T, T[pos], pos, (11, 11, 2))
    assert list(stats.cuts) == [0, 2, 3, 4, 5, 6, 7, 11]
    row = fold_in_blocks(stats, V, list(range(1, 12)))
    assert same_stats(row, stats.of(V))
    est = stats.classify(row, LimitConfig())
    assert estimate_json(est) == estimate_json(reference_liminf(T, V, T[pos]))
    # the tails from T = 6 and T = 7 reach their minimum, a zero, first at
    # T = 7, where it is -0.0: the suffix minimum keeps that first zero
    assert [float(v) for _, v in est.evidence] == [-1.0, -1.0, -0.0, -0.0, 0.5]
    assert np.signbit(est.evidence[2][1]) and np.signbit(est.evidence[3][1])


STATS_CASES = pytest.mark.parametrize("named, label, t_max, h", [
    (lqr_grid(1.2), "decaying-mode", 300.0, 1.0),
    (ex_pos(1.7, ts=COMB), "line", 40.0, 2e-3),
    (lqr_ray(1.3), "decaying-exp", 10.0, 1e-2),
], ids=["lqr-z-one-block", "comb-seams", "lqr-r"])


@STATS_CASES
@pytest.mark.parametrize("block", [1, 3, 4, 40, calculus._BLOCK])
def test_streamed_statistics_equal_the_array_route(monkeypatch, named, label, t_max, h,
                                                   block):
    """The sweep's statistics, folded from each block's horizon values as
    they are formed, classify to the lim-inf that liminf_over_tails gives
    on the column-stacked horizon values of the same sweep, and give its
    Gateaux table: for a competitor path, a sampled variation and a
    variation generator, at blocks of 1-3 cells (one horizon segment each),
    4-40 and the default (the lattice plan is then one block; the comb's
    sweep adds its seam terms block by block)."""
    monkeypatch.setattr(calculus, "_BLOCK", block)
    problem, a = named.problem, named.problem.a
    plan = make_horizon_plan(problem.ts, a, t_max, h=h)
    gen = named.candidate(label).gen
    star = SampledPath.of(problem, gen, plan.grid)
    hz, span = plan.horizons, plan.horizons[-1] - a
    q = smoothstep_tail(0.5, a, span / 5.0)
    competitors = [
        (SampledPath.of(problem, perturbed_generator(gen, q), plan.grid), None),
        (SampledPath.of(problem, q, plan.grid, variation=True), (1.0, -1.0)),
        (compact_bump(0.5, a + span / 4.0, span / 10.0), (0.1, -1e-3)),
    ]
    marks = (len(hz) // 4, len(hz) // 2, len(hz) - 1)
    stats = variational._TailStats.of_plan(plan, marks)
    got = difference_integral(problem, star, plan.horizon_idx, competitors, stats)
    F = difference_integral(problem, star, plan.horizon_idx, competitors)
    assert got.shape == (5, 2 * len(stats.cuts) + 1) and F.shape == (5, len(hz))
    for row, values in zip(got, F):
        assert same_stats(row, stats.of(values))
        want = liminf_over_tails(np.column_stack((hz, values)), plan.tail_values)
        assert estimate_json(stats.classify(row, LimitConfig())) == estimate_json(want)
    table = variational._gateaux_table((0.1, -1e-3), stats, got[3:])
    quot, a_values = reference_gateaux((0.1, -1e-3), list(marks), F[3:])
    assert same_bits(table.quotients, quot) and same_bits(table.a_values, a_values)


def test_gateaux_report_on_a_short_plan_with_repeated_marks():
    """Three times that all fall on the last horizon of a seven-horizon
    plan: the table repeats its column, as the full rows give it."""
    neg = ex_neg()
    plan = make_horizon_plan(NAT, 0.0, 7.0, h=1.0)
    gen, pv, eps = neg.candidate("const").gen, pulse_var(), (0.1, -0.01)
    report = gateaux_report(neg.problem, gen, pv, eps, (7.0, 6.9, 9.0), plan)
    star = SampledPath.of(neg.problem, gen, plan.grid)
    F = difference_integral(neg.problem, star, plan.horizon_idx, [(pv, eps)])
    quot, a_values = reference_gateaux(eps, [6, 6, 6], F)
    assert report.t_values == (7.0, 7.0, 7.0)
    assert same_bits(report.quotients, quot) and same_bits(report.a_values, a_values)


# ---------------------------------------------------------------------------
# weak-maximality comparison


def test_weak_max_constant_beats_line():
    pos = ex_pos()
    plan = make_horizon_plan(pos.problem.ts, 0.0, 30.0, h=1.0)
    line = scalar_traj(lambda t: 0.1 * t + 1.0)
    est = weak_max_compare(pos.problem, line, pos.candidate("const").gen, plan)
    assert est.kind is LimitKind.DIVERGES_MINUS
    assert is_weak_max_consistent(est)
    rate = 1.0 - np.sqrt(1.01)
    for T, Q in est.evidence:
        assert abs(Q - rate * T) <= 1e-9


def test_weak_max_self_comparison_is_zero():
    pos = ex_pos()
    plan = make_horizon_plan(pos.problem.ts, 0.0, 30.0, h=1.0)
    gen = pos.candidate("const").gen
    est = weak_max_compare(pos.problem, gen, gen, plan)
    assert est.kind is LimitKind.CONVERGED and est.value == 0.0


def test_weak_max_flags_improving_competitor():
    neg = ex_neg()
    plan = make_horizon_plan(neg.problem.ts, 0.0, 20.0, h=1.0)
    gen = neg.candidate("const").gen
    comp = perturbed_generator(gen, compact_bump(0.5, 5.0, 2.0))
    est = weak_max_compare(neg.problem, comp, gen, plan)
    assert not is_weak_max_consistent(est)
    assert est.kind is LimitKind.CONVERGED and est.value > 0


def test_weak_max_consistency_rule():
    assert is_weak_max_consistent(LimitEstimate(LimitKind.DIVERGES_MINUS))
    assert is_weak_max_consistent(LimitEstimate(LimitKind.CONVERGED, value=0.0))
    assert not is_weak_max_consistent(LimitEstimate(LimitKind.CONVERGED, value=1e-3))
    assert not is_weak_max_consistent(LimitEstimate(LimitKind.DIVERGES_PLUS))
    assert not is_weak_max_consistent(LimitEstimate(LimitKind.OSCILLATES, lo=0, hi=1))


# ---------------------------------------------------------------------------
# variation quotients


def pulse_var(c=0.3, rate=0.7):
    return scalar_traj(lambda t: c * t * np.exp(-rate * t))


def quotient_oracle(pv, eps, t_prime, beta=1.0):
    # integrand difference telescopes on the lattice:
    # A = eps * sum p(t+1)^2 + beta p(T')
    acc = 0.0
    for k in range(int(t_prime)):
        acc += float(pv(float(k + 1))[0]) ** 2
    return eps * acc + beta * float(pv(float(t_prime))[0])


@pytest.mark.parametrize("eps", [0.5, 1e-3])
@pytest.mark.parametrize("t_prime", [3.0, 7.0])
def test_variation_quotient_exact_value(eps, t_prime):
    neg = ex_neg()
    pv = pulse_var()
    got = variation_quotient(
        neg.problem, neg.candidate("const").gen, pv, eps, t_prime, h=1.0
    )
    assert abs(got - quotient_oracle(pv, eps, t_prime)) <= 1e-10


def test_first_variation_and_halving_ratio():
    # A(eps) - FV = eps * sum p_sigma^2: halving eps halves the gap
    neg = ex_neg()
    gen = neg.candidate("const").gen
    pv = pulse_var()
    t_prime = 6.0
    fv = first_variation(neg.problem, gen, pv, t_prime, h=1.0)
    assert abs(fv - float(pv(t_prime)[0])) <= 1e-12
    gaps = [
        variation_quotient(neg.problem, gen, pv, eps, t_prime, h=1.0) - fv
        for eps in (0.1, 0.05, 0.025)
    ]
    assert abs(gaps[0] / gaps[1] - 2.0) <= 1e-6
    assert abs(gaps[1] / gaps[2] - 2.0) <= 1e-6


def test_variation_quotient_rejects_bad_input():
    neg = ex_neg()
    gen = neg.candidate("const").gen
    with pytest.raises(ZeroEpsilon):
        variation_quotient(neg.problem, gen, pulse_var(), 0.0, 4.0, h=1.0)
    offset = scalar_traj(lambda t: t + 1.0)  # p(0) = 1
    with pytest.raises(InadmissibleVariation):
        variation_quotient(neg.problem, gen, offset, 0.1, 4.0, h=1.0)
    drifted = scalar_traj(lambda t: t + 7.0)  # x(0) != x_a
    with pytest.raises(InadmissiblePath):
        variation_quotient(neg.problem, drifted, pulse_var(), 0.1, 4.0, h=1.0)


@given(st.integers(0, 10_000))
def test_parts_decomposition_residual_is_zero_on_lattice(seed):
    rng = np.random.default_rng(seed)
    _, lag = quadratic_lagrangian(rng)
    cx = random_poly(rng)
    cp = random_poly(rng, degree=1)
    x_of = lambda t: cx[0] + cx[1] * t + cx[2] * t * t
    p_of = lambda t: t * (cp[0] + cp[1] * t)  # vanishes at a = 0
    prob = Problem(ts=NAT, a=0.0, x_a=np.array([x_of(0.0)]), lagrangian=lag)
    r = parts_decomposition_residual(
        prob, scalar_traj(x_of), scalar_traj(p_of), 6.0, h=1.0
    )
    assert r <= 1e-10


def test_gateaux_report_layout():
    neg = ex_neg()
    plan = make_horizon_plan(neg.problem.ts, 0.0, 20.0, h=1.0)
    gen = neg.candidate("const").gen
    pv = pulse_var()
    eps = (1e-1, 1e-2)
    report = gateaux_report(neg.problem, gen, pv, eps, (5.0, 10.0, 15.0), plan)
    assert report.quotients.shape == (2, 3)
    assert report.a_values.shape == (2, 3)
    assert np.all(report.spread_by_t >= 0)
    # the quotient uses a tail infimum, so it can never exceed A at that T'
    assert np.all(report.quotients <= report.a_values + 1e-12)
    for i, e in enumerate(eps):
        for j, tp in enumerate(report.t_values):
            direct = variation_quotient(neg.problem, gen, pv, e, tp, h=1.0)
            assert abs(report.a_values[i, j] - direct) <= 1e-9
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["eps"] == [0.1, 0.01]
    with pytest.raises(ZeroEpsilon):
        gateaux_report(neg.problem, gen, pv, (0.1, 0.0), (5.0,), plan)


def plane_problem():
    """L = -|u|^2 + v_1 + v_2 on the integers from x(0) = (1, 2)."""
    lag = Lagrangian(
        n=2, eval=lambda t, u, v: -np.sum(u * u, axis=1) + v[:, 0] + v[:, 1],
        vectorized=True,
    )
    return Problem(ts=NAT, a=0.0, x_a=np.array([1.0, 2.0]), lagrangian=lag)


def test_variations_must_match_the_problem_dimension():
    prob = plane_problem()
    star = lambda t: np.outer(np.ones_like(np.asarray(t, dtype=float)), [1.0, 2.0])
    plan = make_horizon_plan(NAT, 0.0, 20.0, h=1.0)
    scalar = lambda t: 0.3 * np.asarray(t, dtype=float)
    wide = lambda t: np.outer(np.asarray(t, dtype=float), [0.1, 0.2, 0.3])
    plane = lambda t: np.outer(np.asarray(t, dtype=float), [0.1, 0.2])
    for pvar in (scalar, wide):
        with pytest.raises(DimensionMismatch):
            gateaux_report(prob, star, pvar, (0.1,), (5.0,), plan)
        with pytest.raises(DimensionMismatch):
            first_variation(prob, star, pvar, 5.0, h=1.0)
    report = gateaux_report(prob, star, plane, (0.1,), (5.0,), plan)
    direct = variation_quotient(prob, star, plane, 0.1, report.t_values[0], h=1.0)
    assert abs(report.a_values[0, 0] - direct) <= 1e-9


def test_sampling_refuses_a_transposed_generator():
    # two nodes and n = 2: the (n, m) result of vstack has the shape of an
    # (m, n) one, and was once taken as the samples [[0, 1], [10, 11]]
    grid = real_ray(0).build_grid(0.0, 1.0, 1.0)
    assert len(grid) == 2
    transposed = lambda t: np.vstack((t, 10.0 + t))
    with pytest.raises(DimensionMismatch, match="transposed"):
        GridFunction.from_callable(grid, transposed, dim=2)
    lag = Lagrangian(n=2, eval=lambda t, u, v: u[:, 0] * v[:, 1], vectorized=True)
    prob = Problem(ts=real_ray(0), a=0.0, x_a=np.array([0.0, 10.0]), lagrangian=lag)
    with pytest.raises(DimensionMismatch, match="transposed"):
        SampledPath.of(prob, transposed, grid)
    with pytest.raises(DimensionMismatch, match="3 components"):
        SampledPath.of(prob, lambda t: np.column_stack((t, t, t)), grid)
    path = SampledPath.of(prob, lambda t: np.column_stack((t, 10.0 + t)), grid)
    assert path.x.values.tolist() == [[0.0, 10.0], [1.0, 11.0]]


def test_verify_on_a_plane():
    # the probe variations run along (1, 1); a scalar one used to fail the
    # Gateaux table's dimension check for every state of dimension n > 1
    lag = Lagrangian(n=2, vectorized=True,
                     eval=lambda t, u, v: -np.sum(u * u, axis=1) - np.sum(v * v, axis=1))
    prob = Problem(ts=NAT, a=0.0, x_a=np.zeros(2), lagrangian=lag)
    report = verify_candidate(prob, lambda t: np.zeros((len(t), 2)),
                              VerifyConfig(t_max=25.0, h=1.0))
    assert report.verdict is Verdict.CONSISTENT and report.flags == ()
    assert len(report.weak_max_probes) == 6


# ---------------------------------------------------------------------------
# fundamental-lemma probe


def test_lemma_probe_point_mass():
    g = lambda t: np.where(np.abs(np.asarray(t, float) - 3.0) < 0.5, 2.0, 0.0)
    w = fundamental_lemma_probe(NAT, g, 0.0, 8.0, h=1.0)
    assert w.kind == "point_mass"
    assert w.support == (4.0, 4.0)
    assert w.integral == 4.0  # mu * g(3)^2
    assert float(np.asarray(w.eta(4.0))) == 2.0
    assert float(np.asarray(w.eta(3.0))) == 0.0
    assert json.loads(json.dumps(w.to_dict())) == {
        "t0": 3.0, "kind": "point_mass", "support": [4.0, 4.0], "integral": 4.0}


def test_lemma_probe_bump_on_dense_run():
    g = lambda t: np.clip(1.0 - np.abs(np.asarray(t, float) - 5.0), 0.0, None)
    w = fundamental_lemma_probe(real_ray(0), g, 0.0, 10.0, h=0.01)
    assert w.kind == "bump"
    assert w.integral > 0
    t0, t1 = w.support
    xs = np.linspace(t0, t1, 40001)
    fine = np.trapezoid(g(xs) * np.asarray(w.eta(xs)), xs)
    assert abs(w.integral - fine) <= 5e-3 * abs(fine)


def test_lemma_probe_point_mass_ramp():
    ts = union(DiscretePoints((0.0,)), ClosedInterval(1.0, 3.0), UnboundedRay(4.0))
    g = lambda t: np.where(np.abs(np.asarray(t, float)) < 0.5, 1.0, 0.0)
    w = fundamental_lemma_probe(ts, g, 0.0, 3.0, h=0.1)
    assert w.kind == "point_mass_ramp"
    assert w.support == (1.0, 2.0)
    assert w.integral == 1.0  # the ramp runs over a stretch where g = 0
    assert float(np.asarray(w.eta(1.0))) == 1.0
    assert float(np.asarray(w.eta(2.5))) == 0.0


def test_lemma_probe_ramp_retries_as_a_bump_where_g_comes_back():
    """g vanishes at the jump target sigma(0) = 1 but not just right of it:
    the ramp's first sample past 1 exceeds tol_zero, so the probe moves t0
    there and builds a bump on the dense run."""
    ts = union(DiscretePoints((0.0,)), UnboundedRay(1.0))
    g = lambda t: np.where(np.asarray(t, float) < 0.5, 1.0, np.asarray(t, float) - 1.0)
    w = fundamental_lemma_probe(ts, g, 0.0, 3.0, h=0.01)
    assert w.kind == "bump"
    assert w.t0 == 1.0 + 1.0 / 200.0 and w.support == (w.t0, 3.0)
    assert w.integral > 0


def test_lemma_probe_null_function():
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    assert fundamental_lemma_probe(NAT, zero, 0.0, 10.0, h=1.0) is None
    tiny = lambda t: np.full_like(np.asarray(t, float), 5e-10)
    assert fundamental_lemma_probe(NAT, tiny, 0.0, 10.0, h=1.0) is None


# ---------------------------------------------------------------------------
# truncated-horizon solver


def test_solve_lqr_lattice_matches_linear_system():
    lqr = lqr_grid()
    res = solve_truncated(lqr.problem, 6.0, h=1.0)
    assert res.converged and res.grad_inf_norm <= 1e-8
    oracle = lqr_grid_truncation_oracle(6.0)
    assert np.max(np.abs(res.trajectory.x.values[:, 0] - oracle)) <= 1e-6
    disc = _Discretization(lqr.problem, res.trajectory.grid)
    x = res.trajectory.x.values
    assert abs(res.objective - disc.objective(x)) <= 1e-12
    # local maximality against random admissible wiggles
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = 1e-3 * rng.standard_normal(x.shape)
        d[0] = 0.0
        assert disc.objective(x + d) <= res.objective + 1e-12


@pytest.mark.parametrize("t_end", [1.0, 2.0])
def test_solve_with_fewer_free_nodes_than_colours(t_end):
    """One or two free nodes leave _hessian_blocks' third (and second)
    colour of every-third-node perturbations empty; the quadratic lqr-z
    truncation still converges in one Newton iteration to its exact
    maximizer."""
    res = solve_truncated(lqr_grid().problem, t_end, h=1.0)
    assert res.converged and res.iterations == 1
    want = lqr_grid_truncation_oracle(t_end)
    assert np.max(np.abs(res.trajectory.x.values[:, 0] - want)) <= 1e-9


def test_newton_takes_a_full_step_the_objective_cannot_resolve():
    """Near the optimum the predicted gain drops below the objective's
    rounding, so the Armijo test can refuse the exact Newton step.  With L
    rounded to multiples of 2**-10 (its partials exact), lqr-z started 1e-6
    off its maximizer takes the full step though the objective does not
    rise, because the gradient there meets g_tol."""
    q = 2.0 ** -10
    lag = Lagrangian(n=1, eval=lambda t, u, v: q * np.round(-(v[:, 0] ** 2 + u[:, 0] ** 2) / q),
                     d2=lambda t, u, v: -2.0 * u, d3=lambda t, u, v: -2.0 * v,
                     vectorized=True, validate=False)
    prob = Problem(ts=integer_scale(0), a=0.0, x_a=np.array([1.0]), lagrangian=lag)
    disc = _Discretization(prob, prob.ts.build_grid(0.0, 6.0, 1.0))
    want = lqr_grid_truncation_oracle(6.0)[:, None]
    x0 = want + 1e-6 * np.arange(7.0)[:, None]
    x0[0] = 1.0
    f0 = disc.objective(x0)
    x, converged, iterations, gnorm, f, history = _newton(disc, x0, 1, 7, SolveParams())
    assert converged and iterations == 1 and gnorm <= 1e-8
    assert history == [(f0, history[0][1], 1.0, 0.0)] and history[0][1] >= 1e-5
    assert f == f0  # no rise: the Armijo test alone would have refused the step
    assert np.max(np.abs(x - want)) <= 1e-12


def test_solve_respects_pinned_terminal():
    pos = ex_pos()
    res = solve_truncated(pos.problem, 2.0, terminal=[1.0], h=1.0)
    assert res.converged
    assert res.trajectory.x.values[-1, 0] == 1.0  # pinned exactly, never moved
    assert abs(res.objective - (-2.0)) <= 1e-9
    assert np.max(np.abs(res.trajectory.x.values[:, 0] - 1.0)) <= 1e-6

    res2 = solve_truncated(pos.problem, 2.0, terminal=[2.0], h=1.0)
    assert abs(res2.objective - (-2.0 * np.sqrt(1.25))) <= 1e-6
    assert abs(res2.trajectory.x.values[1, 0] - 1.5) <= 1e-4


def test_solve_keeps_a_pinned_end_exactly():
    # the start's last row is the target itself, not x_a + 1.0 (target - x_a)
    res = solve_truncated(lqr_grid().problem, 6.0, [0.1], h=1.0)
    assert res.converged and res.trajectory.x.values[-1, 0] == 0.1
    res = solve_truncated(lqr_ray().problem, 3.0, [0.3], h=0.02)
    assert res.converged and res.trajectory.x.values[-1, 0] == 0.3


def quartic_problem():
    """-(v^2 + u^4) on the integers from x(0) = 1: concave but not quadratic,
    so Newton needs several iterations (8 at T = 8)."""
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: -(v[:, 0] ** 2 + u[:, 0] ** 4),
        d2=lambda t, u, v: (-4.0 * u[:, 0] ** 3)[:, None],
        d3=lambda t, u, v: (-2.0 * v[:, 0])[:, None],
        vectorized=True,
    )
    return Problem(ts=NAT, a=0.0, x_a=np.array([1.0]), lagrangian=lag)


def test_solve_iteration_budget():
    res = solve_truncated(quartic_problem(), 8.0, h=1.0, params=SolveParams(max_iter=2))
    assert not res.converged
    assert res.iterations == 2


def test_solve_history_has_one_entry_per_iteration():
    res = solve_truncated(quartic_problem(), 8.0, h=1.0)
    assert res.converged and res.iterations == len(res.history) > 1
    objectives = [f for f, _, _, _ in res.history] + [res.objective]
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))
    assert res.history[0][1] > res.history[-1][1] > res.grad_inf_norm
    assert all(step > 0.0 and shift == 0.0 for _, _, step, shift in res.history)
    doc = json.loads(json.dumps(res.to_dict()))
    assert len(doc["history"]) == res.iterations
    assert set(doc["history"][0]) == {"objective", "grad_inf_norm", "step", "shift"}


def test_solve_is_not_stalled_by_a_large_constant_objective():
    """On 1e10 - (v^2 + u^4) the gain of a Newton step near the optimum is
    below the objective's rounding, so Armijo fails; a full step that
    shrinks the gradient is taken, and the solve is the one without the
    constant (it once ran out of iterations at a gradient of 2.57e-5)."""
    def solve(L):
        doc = {"timescale": "ray(0)", "a": 0, "x_a": [1.0],
               "lagrangian": {"L": L, "d2": ["-4*u1^3"], "d3": ["-2*v1"]}}
        return solve_truncated(problem_from_dict(doc).problem, 5.0, h=0.05,
                               params=SolveParams(max_iter=60))

    big, plain = solve("1e10 - (v1^2 + u1^4)"), solve("-(v1^2 + u1^4)")
    assert big.converged and big.iterations == plain.iterations == 7
    assert np.array_equal(big.trajectory.x.values, plain.trajectory.x.values)


def test_solve_refuses_a_full_step_that_grows_the_gradient():
    """-sqrt(1 + u^2) flattens away from 0, so the first full Newton step
    from x = 2 overshoots: it fails Armijo and grows the gradient, and the
    line search halves it."""
    lag = Lagrangian(
        n=1,
        eval=lambda t, u, v: -(v[:, 0] ** 2) - np.sqrt(1.0 + u[:, 0] ** 2),
        d2=lambda t, u, v: (-u[:, 0] / np.sqrt(1.0 + u[:, 0] ** 2))[:, None],
        d3=lambda t, u, v: (-2.0 * v[:, 0])[:, None],
        vectorized=True,
    )
    res = solve_truncated(Problem(ts=NAT, a=0.0, x_a=np.array([2.0]), lagrangian=lag),
                          6.0, h=1.0)
    assert res.converged
    assert [(step, shift) for _, _, step, shift in res.history][:2] == [(0.5, 0.0),
                                                                       (1.0, 0.0)]


def test_solve_quadratic_problems_take_one_newton_step():
    res = solve_truncated(lqr_grid().problem, 6.0, h=1.0)
    assert res.converged and res.iterations == 1
    res = solve_truncated(lqr_ray().problem, 3.0, h=0.01)
    assert res.converged and res.iterations == 1
    for x_a in (0.5, 1.0, 2.0):
        res = solve_truncated(lqr_ray(x_a).problem, 3.0, h=0.02)
        assert res.converged and res.iterations == len(res.history) == 1


def test_solve_params_are_the_two_stopping_rules():
    assert [f.name for f in dataclasses.fields(SolveParams)] == ["g_tol", "max_iter"]


def test_solve_fine_ray_grid_reaches_second_order_accuracy():
    # the discrete optimum is 1e-7 from the oracle; stopping early shows up
    # as a larger error
    h = 0.0025
    res = solve_truncated(lqr_ray().problem, 3.0, h=h)
    assert res.converged
    nodes = res.trajectory.grid.nodes
    err = np.max(np.abs(res.trajectory.x.values[:, 0] - lqr_ray_truncation_oracle(3.0)(nodes)))
    assert err <= 0.05 * h * h


def test_solve_stops_where_the_hessian_vanishes():
    """L = u1 + v1 is linear, so with its analytic partials (both 1) the
    Hessian blocks are exactly 0: Newton has no direction, and the solve
    stops after one iteration, not converged, with step 0.0."""
    lag = Lagrangian(n=1, eval=lambda t, u, v: u[:, 0] + v[:, 0],
                     d2=lambda t, u, v: np.ones(1), d3=lambda t, u, v: np.ones(1),
                     vectorized=True)
    problem = Problem(real_ray(0.0), 0.0, [1.0], lag)
    res = solve_truncated(problem, 3.0, h=0.1)
    assert not res.converged and res.iterations == 1
    assert len(res.history) == 1 and res.history[0][2] == 0.0 and res.history[0][3] == 0.0


def test_solve_unbounded_truncation_does_not_converge():
    # (x_sigma - alpha)^2 + beta x_delta is convex in x: the sup is +infinity
    res = solve_truncated(ex_neg().problem, 8.0, h=1.0)
    assert not res.converged
    assert res.iterations == len(res.history)
    assert any(shift > 0.0 for _, _, _, shift in res.history)


def mixed_scale_problem():
    ts = union(ClosedInterval(0.0, 1.0), DiscretePoints((1.5, 2.25)), UnboundedRay(3.0))
    lag = Lagrangian(
        n=2,
        eval=lambda t, u, v: -(v[:, 0] ** 2 + 2.0 * v[:, 1] ** 2
                               + u[:, 0] ** 2 * u[:, 1] ** 2
                               + np.sin(t) * u[:, 0] * v[:, 1]),
        d2=lambda t, u, v: -np.stack([2.0 * u[:, 0] * u[:, 1] ** 2 + np.sin(t) * v[:, 1],
                                      2.0 * u[:, 0] ** 2 * u[:, 1]], axis=1),
        d3=lambda t, u, v: -np.stack([2.0 * v[:, 0],
                                      4.0 * v[:, 1] + np.sin(t) * u[:, 0]], axis=1),
        vectorized=True,
    )
    return Problem(ts=ts, a=0.0, x_a=np.array([1.0, -0.5]), lagrangian=lag)


def test_coloured_hessian_matches_dense_finite_differences():
    prob = mixed_scale_problem()
    grid = prob.ts.build_grid(0.0, 4.0, 0.25)
    disc = _Discretization(prob, grid)
    assert grid.scattered[:-1].any() and (~grid.scattered[:-1]).any()
    m, n = len(grid), prob.n
    x = np.random.default_rng(3).standard_normal((m, n))
    g = disc.gradient(x)
    lo, hi = 1, m - 1  # pinned terminal
    D, S = _hessian_blocks(disc, x, g, lo, hi)

    k = hi - lo
    H = np.empty((k * n, k * n))
    for i in range(lo, hi):
        for j in range(n):
            xp = x.copy()
            delta = disc.lag.fd_step * (1.0 + abs(x[i, j]))
            xp[i, j] += delta
            H[:, (i - lo) * n + j] = ((disc.gradient(xp) - g)[lo:hi] / delta).ravel()
    H = 0.5 * (H + H.T)
    for i in range(k):
        blk = slice(i * n, (i + 1) * n)
        assert np.allclose(D[i], H[blk, blk], rtol=1e-12, atol=1e-12)
        if i + 1 < k:
            nxt = slice((i + 1) * n, (i + 2) * n)
            assert np.allclose(S[i], H[nxt, blk], rtol=1e-12, atol=1e-12)
    far = np.abs(np.subtract.outer(np.arange(k * n) // n, np.arange(k * n) // n)) > 1
    assert np.all(H[far] == 0.0)


def block_tridiagonal_spd(rng, k, n):
    """Random SPD block-tridiagonal matrix: B B^T of a lower block-bidiagonal
    B with a dominant diagonal, returned dense and as (D, S) blocks."""
    B = np.zeros((k * n, k * n))
    for i in range(k):
        blk = slice(i * n, (i + 1) * n)
        B[blk, blk] = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        if i:
            B[blk, (i - 1) * n:i * n] = rng.standard_normal((n, n))
    A = B @ B.T
    D = np.stack([A[i * n:(i + 1) * n, i * n:(i + 1) * n] for i in range(k)])
    S = np.stack([A[(i + 1) * n:(i + 2) * n, i * n:(i + 1) * n] for i in range(k - 1)]
                 ) if k > 1 else np.empty((0, n, n))
    return A, D, S


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 33])
def test_block_tridiagonal_solve_matches_dense(k, n):
    rng = np.random.default_rng(100 * k + n)
    A, D, S = block_tridiagonal_spd(rng, k, n)
    b = rng.standard_normal((k, n))
    z = _block_tridiagonal_solve(D, S, b)
    want = np.linalg.solve(A, b.ravel()).reshape(k, n)
    assert np.allclose(z, want, rtol=1e-10, atol=1e-12)


def test_block_tridiagonal_solve_rejects_indefinite():
    A, D, S = block_tridiagonal_spd(np.random.default_rng(0), 9, 2)
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiagonal_solve(-D, -S, np.ones((9, 2)))
    D[4] -= 100.0 * np.eye(2)  # one pivot deep inside the reduction
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiagonal_solve(D, S, np.ones((9, 2)))


def test_solve_nonfinite_objective():
    def log_slope(t, u, v):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(v[:, 0])

    lag = Lagrangian(n=1, eval=log_slope, vectorized=True, validate=False)
    prob = Problem(ts=NAT, a=0.0, x_a=np.array([1.0]), lagrangian=lag)
    with pytest.raises(NonFiniteObjective):
        solve_truncated(prob, 4.0, h=1.0)


# ---------------------------------------------------------------------------
# full verification reports


def test_verify_consistent_candidate():
    pos = ex_pos()
    report = verify_candidate(
        pos.problem, pos.candidate("const").gen, VerifyConfig(t_max=25.0, h=1.0)
    )
    assert report.verdict is Verdict.CONSISTENT
    assert report.flags == ()
    assert report.el_sup_norm <= 1e-10
    assert report.transversality.kind is LimitKind.CONVERGED
    assert abs(report.transversality.value) <= 1e-10
    assert len(report.el_window_sups) == 4
    assert len(report.weak_max_probes) == 6
    json.dumps(report.to_dict())


def test_verify_on_a_decimal_lattice_far_out():
    pos = ex_pos(1.0, ts=integer_scale(0, 0.1))
    report = verify_candidate(
        pos.problem, pos.candidate("const").gen, VerifyConfig(t_max=20000.0, h=0.1)
    )
    assert report.verdict is Verdict.CONSISTENT


def test_translated_ray_keeps_its_residual():
    """lqr-r moved to start at t0 = 1e5 (its scale, start, candidate
    x = e^{-(t - t0)} and t_max = t0 + 40 all shifted) keeps the residual
    of t0 = 0 within a factor 1.5.  Node spacing there is good to about
    1.5e-11, 1.5e-9 of h = 1e-2: judged against 1e-9 h, the run start
    passed for non-uniform, took the Lagrange cubic in place of the uniform
    stencil and read 2.15 times the residual."""
    lag = lqr_ray().problem.lagrangian
    sups = []
    for t0 in (0.0, 1e5):
        prob = Problem(ts=real_ray(t0), a=t0, x_a=np.array([1.0]), lagrangian=lag)
        gen = scalar_traj(lambda t, t0=t0: np.exp(-(t - t0)))
        report = verify_candidate(prob, gen, VerifyConfig(t_max=t0 + 40.0, h=1e-2))
        assert report.verdict is Verdict.CONSISTENT and report.nodes == 4004
        sups.append(report.el_sup_norm)
    assert 1.0 / 1.5 <= sups[1] / sups[0] <= 1.5


def test_lattice_horizon_plan_reaches_t_max():
    plan = make_horizon_plan(integer_scale(), 0.0, 20000.0, h=1.0)
    assert plan.horizons[-1] == 20000.0


@pytest.mark.parametrize("t_max, tails", [(5.0, 3), (6.0, 4)])
def test_short_window_is_refused_by_the_plan(t_max, tails):
    # 5 or 6 horizons pass the window check, but the tail starts come from
    # all but the last two of them
    with pytest.raises(InsufficientHorizons, match=f"only {tails} tail starts, need 5"):
        make_horizon_plan(NAT, 0.0, t_max, h=1.0)
    neg = ex_neg()
    with pytest.raises(InsufficientHorizons, match=f"only {tails} tail starts"):
        verify_candidate(neg.problem, neg.candidate("const").gen,
                         VerifyConfig(t_max=t_max, h=1.0))


@given(st.lists(st.booleans(), min_size=2, max_size=300), st.integers(1, 80),
       st.integers(1, 12))
def test_horizon_indices_match_the_sorted_union(scattered, horizon_count, min_window):
    scattered = np.array(scattered)
    got = variational._horizon_idx(mask_grid(scattered), len(scattered) - 1, horizon_count,
                                   min_window)
    assert np.array_equal(got, reference_horizon_idx(scattered, horizon_count, min_window))


@pytest.mark.parametrize("ts, t_max, h", [
    (integer_scale(), 20000.0, 1.0), (COMB, 40.0, 0.01), (real_ray(0), 40.0, 2e-4),
], ids=["Z", "comb", "ray"])
def test_plan_horizons_match_the_sorted_union(ts, t_max, h):
    plan = make_horizon_plan(ts, ts.a, t_max, h=h)
    scattered = plan.grid.scattered[: plan.horizon_idx[-1] + 1]
    assert np.array_equal(plan.horizon_idx, reference_horizon_idx(scattered, 60, 5))


def test_horizon_indices_fall_back_to_every_node():
    # one stride-th dense node plus the last one are fewer than the window
    dense = mask_grid(np.zeros(9, dtype=bool))
    assert list(variational._horizon_idx(dense, 8, 1, 3)) == list(range(1, 9))
    assert list(variational._horizon_idx(dense, 8, 1, 2)) == [1, 8]


def test_window_mismatch_is_refused_before_sampling():
    calls = collections.Counter()
    neg = ex_neg()
    const = counted(calls, "x*", neg.candidate("const").gen)
    plan = make_horizon_plan(integer_scale(0), 0.0, 7.0, h=1.0)
    for compare in (lambda cfg: transversality_liminf(neg.problem, const, plan, cfg),
                    lambda cfg: weak_max_compare(neg.problem, const, const, plan, cfg)):
        with pytest.raises(InsufficientHorizons, match="5 tail starts.* needs 6"):
            compare(LimitConfig(window=6))
        assert calls["x*"] == 0
    # the sweep samples the generator on its one block
    transversality_liminf(neg.problem, const, plan, LimitConfig(window=5))
    assert calls["x*"] == 1


@pytest.mark.parametrize("named, label, h", [
    (lqr_ray(), "decaying-exp", 0.01), (ex_neg(), "const", 1.0),
], ids=["ray", "Z"])
def test_variation_quotient_vanishes_at_the_start(named, label, h):
    gen = named.candidate(label).gen
    pulse = decaying_pulse(0.5, 0.0, 1.0)
    assert variation_quotient(named.problem, gen, pulse, 0.1, 0.0, h=h) == 0.0


def test_shortest_window_still_verifies():
    plan = make_horizon_plan(NAT, 0.0, 7.0, h=1.0)
    assert list(plan.horizons) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert list(plan.tail_values) == [1.0, 2.0, 3.0, 4.0, 5.0]
    neg = ex_neg()
    report = verify_candidate(neg.problem, neg.candidate("const").gen,
                              VerifyConfig(t_max=7.0, h=1.0))
    assert report.verdict is Verdict.EL_FAILS_TRANSVERSALITY


def test_verify_finds_dense_runs_once_per_grid(monkeypatch):
    scans = []
    scan = vars(SampleGrid)["dense_runs"].func

    def counted(grid):
        scans.append(len(grid))
        return scan(grid)

    prop = functools.cached_property(counted)
    prop.__set_name__(SampleGrid, "dense_runs")
    monkeypatch.setattr(SampleGrid, "dense_runs", prop)
    ray = lqr_ray()
    cfg = VerifyConfig(t_max=10.0, h=0.01)
    report = verify_candidate(ray.problem, ray.candidate("decaying-exp").gen, cfg)
    assert report.verdict is Verdict.CONSISTENT
    # the plan grid; its horizons and every derivative of the verify reuse
    # its runs
    assert scans == [report.nodes]


def test_verify_samples_each_path_once(monkeypatch):
    calls = count_calls(monkeypatch, ("delta_derivative_all", "sigma_shift_all",
                                      "_shifts", "_slopes", "_cell_weights"))
    sample = vars(GridFunction)["from_callable"].__func__
    monkeypatch.setattr(GridFunction, "from_callable",
                        classmethod(counted(calls, "from_callable", sample)))
    formed = []  # the ranges of nodes formed from the grid's stretches
    nodes_at = SampleGrid.nodes_at
    monkeypatch.setattr(SampleGrid, "nodes_at", lambda grid, key: (
        isinstance(key, slice) and formed.append(key)) or nodes_at(grid, key))
    ray = lqr_ray()
    report = verify_candidate(ray.problem, ray.candidate("decaying-exp").gen,
                              VerifyConfig(t_max=10.0, h=0.01))
    assert report.verdict is Verdict.CONSISTENT and report.nodes < calculus._BLOCK
    # one sweep of two blocks: the horizons' one and the residual's trailing
    # one, up to the end of x*'s prefix (the grid's last node but one).  Per
    # block, its nodes (and the _HALO each side) are formed once, x* and the
    # 3 probe variations (the Gateaux rows read the tail-constant one) are
    # sampled on them side by side, their shifts and slopes taken in one
    # call each, and its cell weights formed once; x* is never sampled whole
    idx = make_horizon_plan(ray.problem.ts, 0.0, 10.0, h=0.01).horizon_idx
    blocks = calculus._blocks(idx, report.nodes - 2)
    assert [(lo, hi) for _, _, lo, hi in blocks] == [(0, idx[-1]), (idx[-1], report.nodes - 2)]
    assert calls == {"_shifts": 2, "_slopes": 2, "_cell_weights": 2}
    assert formed == [slice(0, idx[-1] + calculus._HALO + 1),
                      slice(idx[-1] - calculus._HALO, report.nodes)]


def test_variation_diagnostics_sample_block_by_block(monkeypatch):
    """first_variation, variation_quotient and parts_decomposition_residual
    each make one sweep of x* and p: one reduction (_cumulative_at), no
    whole-grid sampling (GridFunction.from_callable) and no whole-grid
    shift or slope.  transversality_term on a held path takes the shift
    and slope of its one node from that node and its _HALO each side."""
    calls = count_calls(monkeypatch, ("delta_derivative_all", "sigma_shift_all",
                                      "_cumulative_at"))
    sample = vars(GridFunction)["from_callable"].__func__
    monkeypatch.setattr(GridFunction, "from_callable",
                        classmethod(counted(calls, "from_callable", sample)))
    ray = lqr_ray(1.268)
    problem, gen, p = ray.problem, ray.candidate("decaying-exp").gen, smoothstep_tail(1.0, 0.0, 1.0)
    for run in (lambda: first_variation(problem, gen, p, 7.3, h=1e-3),
                lambda: variation_quotient(problem, gen, p, 0.1, 7.3, h=1e-3),
                lambda: parts_decomposition_residual(problem, gen, p, 7.3, h=1e-3)):
        calls.clear()
        assert math.isfinite(run())
        assert calls == {"_cumulative_at": 1}
    path = sample_trajectory(problem, gen, 10.0, 1e-3)
    rows = collections.defaultdict(list)
    for name in ("_shifts", "_slopes"):
        kernel = getattr(calculus, name)
        monkeypatch.setattr(variational, name, lambda grid, v, *args, kernel=kernel, name=name: (
            rows[name].append(len(v)) or kernel(grid, v, *args)))
    calls.clear()
    # d3 . x = -2 x' x = 2 x_a^2 e^{-2 T'} along x = x_a e^{-t}
    assert transversality_term(problem, path, 5.0) == pytest.approx(
        2.0 * (1.268 * math.exp(-5.0)) ** 2, rel=1e-5)
    assert calls == {} and len(rows["_shifts"]) == len(rows["_slopes"]) == 1
    assert max(rows["_shifts"] + rows["_slopes"]) <= 2 * calculus._HALO + 1


def test_transversality_term_is_refused_where_the_slope_is_not_defined():
    """At the last node of a grid that ends dense the slope is undefined."""
    ray = lqr_ray()
    path = sample_trajectory(ray.problem, ray.candidate("decaying-exp").gen, 1.0, 0.25)
    assert path.K == len(path.grid) - 1
    with pytest.raises(BoundaryUndefined, match="slope undefined"):
        transversality_term(ray.problem, path, 1.0)


def test_problems_and_lagrangians_are_checked_at_construction():
    """A state dimension below 1, a supplied partial of the wrong shape,
    x_a of the wrong shape and a start that is not the scale's smallest
    element are each refused with their error type."""
    with pytest.raises(DimensionMismatch, match="state dimension"):
        Lagrangian(n=0, eval=lambda t, u, v: 0.0)
    with pytest.raises(DimensionMismatch, match="partial shape"):
        Lagrangian(n=2, eval=lambda t, u, v: u[0] * v[1], d2=lambda t, u, v: 1.0)
    lag = Lagrangian(n=1, eval=lambda t, u, v: -(v[:, 0] ** 2), vectorized=True)
    with pytest.raises(DimensionMismatch, match="x_a has shape"):
        Problem(ts=real_ray(0), a=0.0, x_a=np.array([1.0, 2.0]), lagrangian=lag)
    with pytest.raises(InvalidWindow, match="smallest element"):
        Problem(ts=real_ray(0), a=1.0, x_a=np.array([1.0]), lagrangian=lag)


def test_verify_reads_competitor_integrals_at_the_horizons_only(monkeypatch):
    ray = lqr_ray()
    calls = count_calls(monkeypatch, ("_cumulative_at", "_cell_values"))
    spans = []
    values = Lagrangian.values
    monkeypatch.setattr(Lagrangian, "values",
                        lambda self, t, u, v: spans.append(len(t)) or values(self, t, u, v))
    report = verify_candidate(ray.problem, ray.candidate("decaying-exp").gen,
                              VerifyConfig(t_max=10.0, h=2.5e-4))
    assert report.verdict is Verdict.CONSISTENT
    assert 1.2 * calculus._BLOCK < report.nodes < 2 * calculus._BLOCK
    # one reduction for the one sweep: the E-L residual's rows at every
    # node and x*'s row, the 6 probes and the 3 Gateaux rows, formed block
    # by block and reduced straight to their horizon values, share its
    # blocks; no integrand call and no cell array of full length
    assert calls == collections.Counter({"_cumulative_at": 1, "_cell_values": 0})
    assert max(spans) <= calculus._BLOCK + 1
    # per block, x*'s row, then the 9 rows of the first block and the 7 of
    # the second: the bump (support [1.5, 3.5] of [0, 10]) is 0 there, so
    # its 2 rows are not evaluated; the residual's trailing block forms none
    assert len(spans) == 2 + 9 + 7


BLOCK_CASES = pytest.mark.parametrize("named, label, t_max, h, blocks", [
    (lqr_ray(1.3), "decaying-exp", 10.0, 1e-3, (50, 500, 1 << 20)),
    (ex_pos(1.7, ts=COMB), "line", 40.0, 1e-2, (20, 300, 1 << 20)),
    (lqr_grid(1.2), "decaying-mode", 400.0, 1.0, (1, 7, 1 << 20)),
], ids=["lqr-r", "comb-seams", "lqr-z-carry"])


@BLOCK_CASES
def test_competitor_integrals_do_not_depend_on_the_block_size(monkeypatch, named, label,
                                                              t_max, h, blocks):
    """The block size sets only the working memory: the nine probe and
    Gateaux rows of verify's one sweep, and the report (with the residual's
    window sups, folded block by block), are the same for blocks shorter
    than one horizon segment (lqr-r's segments hold up to 166 cells, the
    comb's up to 48, lqr-z's one, so that there each block is one
    segment), of a few segments, and of the whole grid."""
    gen = named.candidate(label).gen
    sweeps = []
    blocked = variational._sweep
    monkeypatch.setattr(variational, "_sweep", lambda *args: blocked(*args) or sweeps.append(
        args[-1][-1].out))  # the statistics of the competitor consumer's nine rows
    runs = []
    for block in blocks:
        monkeypatch.setattr(calculus, "_BLOCK", block)
        sweeps.clear()
        report = verify_candidate(named.problem, gen, VerifyConfig(t_max=t_max, h=h))
        runs.append((report.to_dict(), list(sweeps)))
    assert len(runs[0][1]) == 1 and len(runs[0][1][0]) == 9
    for report, F in runs[1:]:
        assert report == runs[0][0]
        assert np.array_equal(F[0], runs[0][1][0])


@BLOCK_CASES
def test_held_path_verify_equals_the_generator_verify(monkeypatch, named, label, t_max, h,
                                                      blocks):
    """At every block size, a verify given x* as a Trajectory sampled on the
    plan grid, whose samples the sweep reads by slices, reports bit for bit
    what a verify given the generator, which the sweep samples block by
    block, reports."""
    problem, gen = named.problem, named.candidate(label).gen
    cfg = VerifyConfig(t_max=t_max, h=h)
    plan = make_horizon_plan(problem.ts, problem.a, t_max, h=h)
    held = Trajectory(problem, GridFunction.from_callable(plan.grid, gen))
    reports = []
    for block in blocks:
        monkeypatch.setattr(calculus, "_BLOCK", block)
        # a held path must be on the plan's grid, which each verify builds anew
        monkeypatch.setattr(variational, "make_horizon_plan", lambda *a, **kw: plan)
        reports.append(verify_candidate(problem, held, cfg).to_dict())
        monkeypatch.undo()
        monkeypatch.setattr(calculus, "_BLOCK", block)
        assert verify_candidate(problem, gen, cfg).to_dict() == reports[-1]
    assert reports[1:] == reports[:1] * 2


@BLOCK_CASES
def test_residual_does_not_depend_on_the_block_size(monkeypatch, tmp_path, capsys, named,
                                                    label, t_max, h, blocks):
    """The residual is formed block by block (variational._residual_blocks),
    and el_residual's r, el_sup_norm (its max |r|) and tsvar residual's
    stdout and CSV bytes, on a window that starts and ends inside a block,
    are the same for the three block sizes; verify's report is compared by
    test_competitor_integrals_do_not_depend_on_the_block_size."""
    problem = named.problem
    path = sample_trajectory(problem, named.candidate(label).gen, t_max, h)
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(named.file_form()))
    lo, hi = problem.a + 0.13 * t_max, problem.a + 0.7921 * t_max
    inside = np.searchsorted(path.grid.nodes, (lo, hi))
    assert np.all(inside % blocks[1] > 1)  # neither end is at a block's edge
    out = tmp_path / "r.csv"
    runs = []
    for block in blocks:
        monkeypatch.setattr(calculus, "_BLOCK", block)
        r = el_residual(problem, path).values
        assert cli.main(["residual", str(f), "--candidate", label, "--window", repr(lo),
                         repr(hi), "--h", repr(h), "--csv", str(out)]) == 0
        runs.append((r.tobytes(), el_sup_norm(problem, path), capsys.readouterr().out,
                     out.read_bytes()))
    assert runs[1:] == runs[:1] * 2
    assert runs[0][1] == float(np.max(np.abs(r)))
    assert json.loads(runs[0][2])["nodes"] == len(out.read_text().splitlines()) - 1 > blocks[1]


def full_row_integrals(problem, star, idx, shift, slope):
    """int_a^{T'} [L(x) - L(x*)] at the nodes of idx for the competitor of
    ``shift`` and ``slope``, its whole row formed at once and handed to
    calculus._cumulative_at as one block."""
    n = idx[-1] + 1
    row = problem.lagrangian.values(star.grid.nodes[:n], shift[:n], slope[:n]) \
        - whole_lagrangian_row(problem, star)[:n]
    with mock.patch.object(calculus, "_BLOCK", n):
        return calculus._cumulative_at(star.grid, idx, 1,
                                       lambda lo, hi, t: (row[None, lo : hi + 1], np.empty(hi - lo)))[0]


@BLOCK_CASES
def test_competitor_integrals_equal_the_full_row_reduced_at_the_horizons(
        monkeypatch, named, label, t_max, h, blocks):
    """Formed block by block in one sweep, the horizon values are those of
    each whole row L(x) - L(x*), formed at once and reduced as one block,
    exactly: for a competitor path, and for x* + eps p with the variation p
    read from a SampledPath and sampled block by block from its generator."""
    problem, a = named.problem, named.problem.a
    plan = make_horizon_plan(problem.ts, a, t_max, h=h)
    gen = named.candidate(label).gen
    star = SampledPath.of(problem, gen, plan.grid)
    idx, span = plan.horizon_idx, plan.horizons[-1] - a
    monkeypatch.setattr(calculus, "_BLOCK", blocks[1])
    eps_list = (1.0, -1.0, 1e-3)
    for q in (smoothstep_tail(0.5, a, span / 5.0), compact_bump(0.5, a + span / 4.0, span / 10.0)):
        var = SampledPath.of(problem, q, plan.grid, variation=True)
        competitor = SampledPath.of(problem, perturbed_generator(gen, q), plan.grid)
        (xs, xd), (ps, pd) = whole_shift_slope(star), whole_shift_slope(var)
        want = [full_row_integrals(problem, star, idx, *whole_shift_slope(competitor))]
        want += [full_row_integrals(problem, star, idx, xs + eps * ps, xd + eps * pd)
                 for eps in eps_list] * 2
        got = difference_integral(problem, star, idx, [
            (competitor, None), (var, eps_list), (q, eps_list)])
        assert np.array_equal(got, want)


def test_bump_rows_call_the_integrand_only_where_the_bump_is(monkeypatch):
    """With blocks of 500 cells, the rows x* +- p of a compact bump call the
    integrand only on the blocks where p's shift or slope is not all 0 --
    those that meet its support [1.5, 3.5], a fifth of the span -- once for
    x*'s row and once for each row, and equal the rows formed at full
    length without skipping any, exactly."""
    ray = lqr_ray(1.3)
    problem = ray.problem
    plan = make_horizon_plan(problem.ts, 0.0, 10.0, h=1e-3)
    star = SampledPath.of(problem, ray.candidate("decaying-exp").gen, plan.grid)
    idx, nodes = plan.horizon_idx, plan.grid.nodes
    bump = compact_bump(0.5, 2.5, 1.0)
    var = SampledPath.of(problem, bump, plan.grid, variation=True)
    monkeypatch.setattr(calculus, "_BLOCK", 500)
    spans = []
    values = Lagrangian.values
    monkeypatch.setattr(Lagrangian, "values",
                        lambda self, t, u, v: spans.append((t[0], t[-1])) or values(self, t, u, v))
    got = difference_integral(problem, star, idx, [(bump, (1.0, -1.0))])
    blocks = calculus._blocks(idx)
    (xs, xd), (ps, pd) = whole_shift_slope(star), whole_shift_slope(var)
    live = [(nodes[lo], nodes[hi]) for _, _, lo, hi in blocks
            if ps[lo : hi + 1].any() or pd[lo : hi + 1].any()]
    assert spans == [span for span in live for _ in ("x*", 1.0, -1.0)]
    assert 0 < len(live) <= len(blocks) // 3
    assert all(lo <= 3.5 and hi >= 1.5 for lo, hi in live)
    monkeypatch.setattr(Lagrangian, "values", values)
    want = [full_row_integrals(problem, star, idx, xs + eps * ps, xd + eps * pd)
            for eps in (1.0, -1.0)]
    assert np.array_equal(got, want)


def test_paths_read_by_the_sweep_are_checked_as_whole_paths():
    """x* given as a generator is sampled by the sweep a block at a time
    and refused as sampling it whole refused it: its value at sigma of a
    right-scattered last node must be finite, and its grid must start at
    a.  Paths, held or generators, are extended past that node, so a
    horizon there is read; a variation generator is not, and is refused
    there."""
    lqr = lqr_grid(1.2)
    problem, gen = lqr.problem, lqr.candidate("decaying-mode").gen
    plan = make_horizon_plan(problem.ts, 0.0, 20.0, h=1.0)  # the integers 0..23
    assert plan.grid.window == (0.0, 23.0) and plan.horizon_idx[-1] == 20

    def past_the_end(t):
        return np.where(np.asarray(t)[:, None] > 23.5, np.nan, gen(t))

    assert verify_candidate(problem, past_the_end, VerifyConfig(t_max=19.0, h=1.0)).nodes == 23
    with pytest.raises(DimensionMismatch, match="sigma_last must be a finite"):
        verify_candidate(problem, past_the_end, VerifyConfig(t_max=20.0, h=1.0))
    late = make_horizon_plan(problem.ts, 1.0, 20.0, h=1.0)
    with pytest.raises(InadmissiblePath, match="must start at a"):
        transversality_liminf(problem, gen, late)
    held = SampledPath.of(problem, gen, plan.grid)
    assert held.K == 24  # x* is extended past the last node, 23
    to_the_end = variational.HorizonPlan(plan.grid, np.arange(1, 24), plan.tail_values)
    to_the_end_but_one = variational.HorizonPlan(plan.grid, np.arange(1, 23),
                                                 plan.tail_values)
    with pytest.raises(BoundaryUndefined, match="horizon nodes exceed"):
        gateaux_report(problem, held, smoothstep_tail(0.5, 0.0, 4.0), (0.1,), (5.0,),
                       to_the_end)
    assert len(transversality_sweep(problem, held, to_the_end)) == 23
    for plan_ in (to_the_end, to_the_end_but_one):
        assert weak_max_compare(problem, held, held, plan_).value == 0.0
        assert weak_max_compare(problem, gen, held, plan_).value == 0.0
    with pytest.raises(BoundaryUndefined, match="horizon nodes exceed"):
        variational._sweep(problem, plan.grid, held, np.arange(1, 24), [
            variational._Competitors(problem, [(smoothstep_tail(0.5, 0.0, 4.0), (0.1,))])])


def test_variations_sampled_block_by_block_are_checked(monkeypatch):
    """A variation generator sampled block by block is refused as sampling
    it on the whole grid refuses it: non-finite samples in a later block,
    p(a) != 0, or the wrong number of components."""
    pos = ex_pos()
    plan = make_horizon_plan(pos.problem.ts, 0.0, 30.0, h=1.0)
    gen = pos.candidate("line").gen
    monkeypatch.setattr(calculus, "_BLOCK", 8)
    bad = {
        EvaluationError: lambda t: np.where(t > 20.0, np.nan, 0.1 * t),
        InadmissibleVariation: lambda t: 1.0 + 0.1 * t,
        DimensionMismatch: lambda t: np.ones((len(t), 2)),
    }
    for error, pvar in bad.items():
        with pytest.raises(error):
            gateaux_report(pos.problem, gen, pvar, (0.1,), (5.0,), plan)
        with pytest.raises(error):
            SampledPath.of(pos.problem, pvar, plan.grid, variation=True)


@pytest.mark.parametrize("named, label, t_prime, h", [
    (lqr_ray(1.3), "decaying-exp", 7.3, 1e-3),
    (ex_pos(1.7, ts=COMB), "line", 23.5, 1e-2),
    (lqr_grid(1.2), "decaying-mode", 300.0, 1.0),
], ids=["lqr-r", "comb-seams", "lqr-z"])
def test_variation_quotient_does_not_depend_on_the_block_size(monkeypatch, named, label,
                                                              t_prime, h):
    """variation_quotient, first_variation and parts_decomposition_residual
    read their one T' from a sweep whose blocks cut the one horizon
    segment where numpy's pairwise sum cuts it: the same bits for blocks of
    16 cells (parts of 128), of 1000 and of the whole segment."""
    gen, pulse = named.candidate(label).gen, decaying_pulse(0.5, named.problem.a, 0.2)
    got = set()
    for block in (16, 1000, 1 << 20):
        monkeypatch.setattr(calculus, "_BLOCK", block)
        got.add((variation_quotient(named.problem, gen, pulse, 0.1, t_prime, h=h),
                 first_variation(named.problem, gen, pulse, t_prime, h=h),
                 parts_decomposition_residual(named.problem, gen, pulse, t_prime, h=h)))
    assert len(got) == 1


def traced_verify(named, label, t_max, h):
    """The report and tracemalloc peak of one verify, after an untraced
    verify of the same candidate on a short window, which takes the
    process's one-time costs (numpy.ma, which np.unique imports on first
    use, about 1 MB) out of the traced one."""
    gen = named.candidate(label).gen
    verify_candidate(named.problem, gen, VerifyConfig(t_max=t_max / 100.0, h=h))
    tracemalloc.start()
    try:
        report = verify_candidate(named.problem, gen, VerifyConfig(t_max=t_max, h=h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_verify_memory_stays_within_its_budget():
    """tracemalloc peak of one lqr-r verify over 160004 nodes: at most 75
    bytes per node (65.2 measured; 86.3 when the residual stage held r, its
    d2 and d3 rows and the prefix integral at full length and the sweep
    held x*'s L row).  Full length are the grid's nodes, mu and flags and
    x*'s samples and slope (on the ray x*'s shift is its samples), 33
    bytes per node, and, from the residual stage on, the grid's cell
    weights (2 float64 rows).  The residual stage reads 57 at its peak: its
    d2 and d3 rows, r and the reducer's spare are held one block at a time
    and its window maxima folded block by block.  The competitor sweep sets
    the peak, with one block of x*'s L row, of the row being formed and of
    one variation's samples, shift and slope: buffers of calculus._BLOCK
    floats whose 2.6 MB weigh 16 bytes per node here (the block's 9 rows
    held together read 91 bytes per node, each variation sampled at full
    length 108, and the competitor rows formed at full length 136)."""
    report, peak = traced_verify(lqr_ray(1.268), "decaying-exp", 40.0, 2.5e-4)
    assert report.verdict is Verdict.CONSISTENT and report.nodes == 160004
    assert peak / report.nodes <= 75.0


def test_lattice_verify_memory_stays_within_its_budget():
    """tracemalloc peak of one lqr-z verify to t = 20000, where every node
    is a horizon and the plan is one block: at most 175 bytes per node,
    3.50 MB (3.26 MB, 163 per node, measured).  The competitor sweep sets
    it, with the grid, x*'s rows, one block row and its spare, x*'s L row
    on the block, the u and v buffers and one variation's samples, shift
    and slope.  Holding the sweep's (9, 20000) horizon values for the
    lim-inf and Gateaux scans, with the block's 9 rows together, read
    5.18 MB."""
    report, peak = traced_verify(lqr_grid(1.2), "decaying-mode", 20000.0, 1.0)
    assert report.verdict is Verdict.CONSISTENT and report.nodes == 20004
    assert peak / report.nodes <= 175.0


def test_classify_report_flags_an_oscillating_transversality_last():
    """With the E-L residual within tolerance, no transversality limit and
    no positive probe, the last rule fires: an oscillating transversality
    term fails the candidate, flagged by its kind."""
    trans = LimitEstimate(LimitKind.OSCILLATES, lo=-1.0, hi=1.0)
    probes = [("tail_const(+0.5)", LimitEstimate(LimitKind.CONVERGED, value=-0.25)),
              ("decay(-0.5)", LimitEstimate(LimitKind.DIVERGES_MINUS))]
    verdict, flags = classify_report(1e-9, trans, probes, el_tol=1e-8, trans_tol=1e-6,
                                     probe_tol=1e-8)
    assert verdict is Verdict.EL_FAILS_TRANSVERSALITY
    assert flags == ("transversality_oscillates",)


def report_from_generators(problem, gen, config):
    """verify_candidate assembled from the library's functions called with
    the plain generator, so that every diagnostic samples x* itself; each
    probe also samples its variation afresh, on the whole grid, and forms
    its row on its own."""
    a = problem.a
    plan = make_horizon_plan(problem.ts, a, config.t_max, h=config.h,
                             horizon_count=config.horizon_count,
                             n_tails=config.n_tails, min_window=config.limits.window)
    traj = Trajectory(problem, GridFunction.from_callable(plan.grid, gen))
    res = el_residual(problem, traj)
    res_abs = np.max(np.abs(res.values), axis=1)
    hz = plan.horizons
    window_sups = []
    for w in (hz[len(hz) // 4], hz[len(hz) // 2], hz[3 * len(hz) // 4], hz[-1]):
        sel = res.grid.nodes <= w + 1e-12
        window_sups.append((float(w), float(res_abs[sel].max()) if sel.any() else 0.0))
    trans = transversality_liminf(problem, gen, plan, config.limits)
    span, amp = hz[-1] - a, config.probe_amplitude
    families = [
        ("tail_const", smoothstep_tail, dict(a=a, t_ramp=span / 5.0)),
        ("decay", decaying_pulse, dict(a=a, rate=5.0 / span)),
        ("bump", compact_bump, dict(center=a + span / 4.0, width=span / 10.0)),
    ]
    probes = []
    for name, maker, kw in families:
        for eps in (1.0, -1.0):
            star = SampledPath.of(problem, gen, plan.grid)
            var = SampledPath.of(problem, maker(amp, **kw), plan.grid, variation=True)
            F = difference_integral(problem, star, plan.horizon_idx, [(var, (eps,))])[0]
            probes.append((f"{name}({eps * amp:+g})", liminf_over_tails(
                np.column_stack((plan.horizons, F)), plan.tail_values, config.limits)))
    tail = SampledPath.of(problem, smoothstep_tail(amp, a, span / 5.0), plan.grid, variation=True)
    diag = gateaux_report(problem, gen, tail, config.gateaux_eps,
                          [hz[len(hz) // 4], hz[len(hz) // 2], hz[-1]], plan)
    el_sup = float(res_abs.max())
    el_tol = _default_el_tol(plan.grid, config.h)
    verdict, flags = classify_report(el_sup, trans, probes, el_tol=el_tol,
                                     trans_tol=config.trans_tol,
                                     probe_tol=config.probe_tol)
    return VerificationReport(
        el_sup_norm=el_sup, el_window_sups=tuple(window_sups), transversality=trans,
        weak_max_probes=tuple(probes), hypothesis_diagnostics=diag, verdict=verdict,
        flags=flags, el_tol=el_tol, trans_tol=config.trans_tol,
        probe_tol=config.probe_tol, nodes=len(plan.grid),
    )


REPORT_CASES = pytest.mark.parametrize("named, label, t_max, h", [
    (lqr_ray(1.3), "decaying-exp", 10.0, 0.01),
    (ex_pos(1.7, ts=COMB), "line", 40.0, 0.01),
    (ex_neg(0.8, 1.2), "const", 25.0, 1.0),
], ids=["lqr-r", "ex-pos-comb", "ex-neg-Z"])


@REPORT_CASES
def test_shared_path_report_equals_generator_report(named, label, t_max, h):
    gen = named.candidate(label).gen
    cfg = VerifyConfig(t_max=t_max, h=h)
    shared = verify_candidate(named.problem, gen, cfg).to_dict()
    assert shared == report_from_generators(named.problem, gen, cfg).to_dict()
    assert shared["verdict"] == named.candidate(label).expected.value


def test_perturbed_generator_at_a_scalar_time():
    """A scalar t gives gen(t) + q(t) on every component, as one row of the
    array call does."""
    gen = lambda t: np.stack([np.exp(-np.asarray(t)), np.asarray(t) ** 2], axis=-1)
    q = compact_bump(0.5, 2.0, 1.0)
    g = perturbed_generator(gen, q)
    times = np.array([0.0, 1.5, 2.0, 2.7])
    rows = g(times)
    for i, t in enumerate(times):
        assert np.array_equal(g(float(t)), rows[i])
    assert np.array_equal(g(2.0), gen(2.0) + 0.5)


@REPORT_CASES
def test_variation_probes_match_perturbed_generator_probes(named, label, t_max, h):
    """x* + eps p from the sampled rows of x* and p agrees, to rounding, with
    sampling the competitor x* + eps q as one generator and comparing it."""
    gen = named.candidate(label).gen
    cfg = VerifyConfig(t_max=t_max, h=h)
    report = verify_candidate(named.problem, gen, cfg)
    plan = make_horizon_plan(named.problem.ts, named.problem.a, t_max, h=h)
    a, span = named.problem.a, plan.horizons[-1] - named.problem.a
    amp = cfg.probe_amplitude
    qs = {
        "tail_const": lambda c: smoothstep_tail(c, a, span / 5.0),
        "decay": lambda c: decaying_pulse(c, a, 5.0 / span),
        "bump": lambda c: compact_bump(c, a + span / 4.0, span / 10.0),
    }
    probes = iter(report.weak_max_probes)
    for name, q in qs.items():
        for c in (amp, -amp):
            lbl, est = next(probes)
            assert lbl == f"{name}({c:+g})"
            ref = weak_max_compare(named.problem, perturbed_generator(gen, q(c)), gen, plan)
            assert est.kind is ref.kind, lbl
            assert len(est.evidence) == len(ref.evidence)
            for (t, v), (t_ref, v_ref) in zip(est.evidence, ref.evidence):
                assert t == t_ref
                assert abs(v - v_ref) <= 1e-11 * max(1.0, abs(v_ref)), (lbl, t, v, v_ref)


def test_verify_reports_the_tolerances_it_applied():
    ray = lqr_ray()
    cfg = VerifyConfig(t_max=5.0, h=0.01)
    doc = verify_candidate(ray.problem, ray.candidate("decaying-exp").gen, cfg).to_dict()
    assert list(doc)[-4:] == ["el_tol", "trans_tol", "probe_tol", "nodes"]
    assert doc["el_tol"] == 20.0 * 0.01 * 0.01
    assert (doc["trans_tol"], doc["probe_tol"]) == (cfg.trans_tol, cfg.probe_tol)
    assert doc["nodes"] == len(make_horizon_plan(ray.problem.ts, 0.0, 5.0, h=0.01).grid)
    neg = ex_neg()
    cfg = VerifyConfig(t_max=25.0, h=1.0, trans_tol=1e-5)
    doc = verify_candidate(neg.problem, neg.candidate("const").gen, cfg).to_dict()
    assert (doc["el_tol"], doc["trans_tol"]) == (1e-8, 1e-5)


def test_sampled_path_is_checked_where_it_is_used():
    pos = ex_pos()
    plan = make_horizon_plan(pos.problem.ts, 0.0, 30.0, h=1.0)
    gen = pos.candidate("line").gen
    path = SampledPath.of(pos.problem, gen, plan.grid)
    traj = Trajectory(pos.problem, path.x)
    assert np.array_equal(el_residual(pos.problem, path).values,
                          el_residual(pos.problem, traj).values)
    assert transversality_term(pos.problem, path, 7.0) == \
        transversality_term(pos.problem, traj, 7.0)
    assert weak_max_compare(pos.problem, path, path, plan).value == 0.0
    with pytest.raises(DimensionMismatch):  # a generator needs a grid
        el_residual(pos.problem, gen)
    assert SampledPath.of(pos.problem, path, plan.grid) is path
    other = ex_pos()  # same path, another Lagrangian object: sampled anew
    assert SampledPath.of(other.problem, path).problem is other.problem
    short = make_horizon_plan(pos.problem.ts, 0.0, 20.0, h=1.0)
    with pytest.raises(DimensionMismatch):  # sampled on another grid
        weak_max_compare(pos.problem, gen, path, short)
    with pytest.raises(InadmissibleVariation):  # x(a) = A, not 0
        gateaux_report(pos.problem, path, path, (0.1,), (5.0,), plan)


def test_trajectory_is_the_sampled_path():
    assert Trajectory is SampledPath
    lqr = lqr_grid()
    one = lqr.problem.ts.build_grid(0.0, 4.0, 1.0).prefix(1)  # a single node
    path = Trajectory(lqr.problem, GridFunction(one, lqr.problem.x_a))
    assert path.grid is one and not path.variation
    with pytest.raises(GridTooSmall):  # checked where the slope is read
        path.K
    with pytest.raises(InadmissiblePath):
        Trajectory(lqr.problem, GridFunction(one, [0.5]))
    with pytest.raises(DimensionMismatch):
        Trajectory(lqr.problem, GridFunction(one, [[1.0, 1.0]]))
    pvar = SampledPath(lqr.problem, GridFunction(one, [0.0]), variation=True)
    assert SampledPath.of(lqr.problem, pvar, variation=True) is pvar
    with pytest.raises(InadmissiblePath):  # the same samples as a path
        SampledPath.of(lqr.problem, pvar)


def test_verify_transversality_failure():
    neg = ex_neg()
    report = verify_candidate(
        neg.problem, neg.candidate("const").gen, VerifyConfig(t_max=25.0, h=1.0)
    )
    assert report.verdict is Verdict.EL_FAILS_TRANSVERSALITY
    assert report.el_sup_norm <= 1e-10
    assert report.transversality.kind is LimitKind.CONVERGED
    assert abs(report.transversality.value - 1.0) <= 1e-9
    assert any(f.startswith("transversality_nonzero_limit") for f in report.flags)
