"""Delta derivatives/integrals, limit classification, and the identity pack."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsvar import (
    ClosedInterval,
    DimensionMismatch,
    DiscretePoints,
    GridFunction,
    InsufficientHorizons,
    LimitConfig,
    LimitKind,
    NodeNotInGrid,
    NotInTimeScale,
    UnboundedRay,
    classify_limit,
    cumulative_delta_integral,
    delta_derivative_all,
    delta_integral,
    identity_pack,
    improper_integral,
    integer_scale,
    real_ray,
    sigma_shift_all,
    union,
)
from tsvar import calculus
from tsvar.calculus import SampleGrid, _cumulative_at, _prefix_integrals

from helpers import (
    COMB,
    mask_grid,
    poly_fn,
    random_poly,
    random_scattered_scale,
    reference_cell_values,
    reference_cell_weights,
    reference_dense_runs,
    reference_slopes,
    same_bits,
)

NAT = integer_scale(0)


def nat_fn(fn, hi):
    return GridFunction.from_callable(NAT.build_grid(0, hi, 1.0), fn)


# ---------------------------------------------------------------------------
# sampling generators


def counting(fn):
    """fn, counting its calls in ``.calls``."""
    def gen(t):
        gen.calls += 1
        return fn(t)
    gen.calls = 0
    return gen


def test_generator_results_of_each_accepted_shape():
    grid = real_ray(0).build_grid(0, 1, 0.25)  # 5 dense nodes
    t = grid.nodes
    column = GridFunction.from_callable(grid, lambda s: 2.0 * s)
    assert np.array_equal(column.values, 2.0 * t[:, None])
    pair = GridFunction.from_callable(grid, lambda s: np.column_stack((s, -s)))
    assert np.array_equal(pair.values, np.column_stack((t, -t)))
    const = GridFunction.from_callable(grid, lambda s: 3.0)
    assert np.array_equal(const.values, np.full((5, 1), 3.0))


def test_a_fresh_generator_result_is_not_copied():
    """An (m, n) result that owns its data becomes the values as a view:
    no copy, and the read-only flag lands on the view, not on the
    generator's array.  A view of other data (np.broadcast_to) is copied."""
    grid = real_ray(0).build_grid(0, 1, 0.25)
    made = []
    fresh = GridFunction.from_callable(
        grid, lambda t: made.append(np.stack((t, -t), axis=1)) or made[-1])
    assert np.shares_memory(fresh.values, made[0])
    assert made[0].flags.writeable and not fresh.values.flags.writeable
    row = np.array([[1.0, 2.0]])
    broadcast = GridFunction.from_callable(grid, lambda t: np.broadcast_to(row, (len(t), 2)))
    assert not np.shares_memory(broadcast.values, row)
    assert np.array_equal(broadcast.values, np.repeat(row, 5, axis=0))


def test_generator_of_another_shape_raises():
    grid = real_ray(0).build_grid(0, 1, 0.25)
    transposed = counting(lambda s: np.vstack((s, -s)))  # (2, m), not (m, 2)
    with pytest.raises(DimensionMismatch):
        GridFunction.from_callable(grid, transposed)
    assert transposed.calls == 1


def test_generator_errors_propagate_after_one_call():
    def fail(t):
        raise ValueError("no samples here")
    gen = counting(fail)
    with pytest.raises(ValueError, match="no samples here"):
        GridFunction.from_callable(NAT.build_grid(0, 4, 1.0), gen)
    assert gen.calls == 1


def test_scalar_only_generator_is_not_looped_per_node():
    gen = counting(math.exp)
    with pytest.raises(TypeError):
        GridFunction.from_callable(real_ray(0).build_grid(0, 1, 0.25), gen)
    assert gen.calls == 1


# ---------------------------------------------------------------------------
# dense runs


@pytest.mark.parametrize(
    "scattered, runs",
    [
        ([False], []),
        ([False] * 6, [(0, 5)]),  # all dense
        ([True] * 6, []),  # all scattered
        ([False, False], [(0, 1)]),
        ([False, True], [(0, 1)]),  # the last node's own jump opens no cell
        ([True, False], []),
        ([True, True], []),
        ([True, False, True, True], [(1, 2)]),  # single-cell run
        ([False, True, False, False], [(0, 1), (2, 3)]),  # run ends at the last node
    ],
)
def test_dense_runs_cases(scattered, runs):
    grid = mask_grid(scattered)
    assert list(grid.dense_runs) == runs == reference_dense_runs(grid)


def test_dense_runs_of_prefix_cutting_a_run():
    grid = mask_grid([True, False, False, False, False, True, False])
    assert grid.dense_runs == ((1, 5),)
    sub = grid.prefix(4)
    assert sub.dense_runs == ((1, 3),)
    assert grid.prefix(2).dense_runs == ()
    assert grid.dense_runs == ((1, 5),)  # each grid keeps its own runs


def test_dense_runs_of_a_built_grid():
    grid = union(ClosedInterval(0, 1), UnboundedRay(2)).build_grid(0, 3, 0.25)
    assert grid.dense_runs == ((0, 4), (5, 9))


@given(st.lists(st.booleans(), min_size=1, max_size=60), st.data())
def test_dense_runs_match_reference_loop(scattered, data):
    grid = mask_grid(scattered)
    assert list(grid.dense_runs) == reference_dense_runs(grid)
    sub = grid.prefix(data.draw(st.integers(1, len(grid))))
    assert list(sub.dense_runs) == reference_dense_runs(sub)


# ---------------------------------------------------------------------------
# delta derivative


def test_derivative_integers_square():
    f = nat_fn(lambda t: t**2, 8)
    deriv, defined = delta_derivative_all(f)
    assert defined.all()  # sigma_last extension covers the final node
    expect = 2.0 * np.arange(9) + 1.0
    assert np.array_equal(deriv[:, 0], expect)
    assert deriv[3, 0] == 7.0


def test_derivative_scattered_jump():
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    grid = ts.build_grid(0, 3, 0.25)
    f = GridFunction.from_callable(grid, lambda t: t)
    i = grid.index_of(1.0)
    deriv, defined = delta_derivative_all(f)
    assert defined[i]
    assert deriv[i, 0] == 1.0  # (2 - 1) / mu with mu = 1


def test_derivative_dense_matches_classical():
    grid = real_ray(0).build_grid(0, 2, 1e-3)
    f = GridFunction.from_callable(grid, lambda t: t**2)
    i = grid.index_of(1.0)
    deriv, defined = delta_derivative_all(f)
    assert defined[i]
    assert abs(deriv[i, 0] - 2.0) <= 1e-6


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), min_size=3, max_size=60),
    st.integers(1, 2),
    st.data(),
)
def test_derivative_interior_stencil_matches_sliced_expression(cells, n, data):
    # about one node in four is right-scattered, so runs of every length occur
    scat = np.array([c[0] == 0 for c in cells])
    gaps = np.array([c[1] for c in cells], dtype=float) / 8.0
    nodes = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    grid = SampleGrid(nodes, np.where(scat, gaps, 0.0), scat, 0.125)
    v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(len(grid), n))
    deriv, _ = delta_derivative_all(GridFunction(grid, v))
    t = grid.nodes
    for s, e in grid.dense_runs:
        if e - s < 2:
            continue
        want = (v[s + 2 : e + 1] - v[s : e - 1]) / (t[s + 2 : e + 1] - t[s : e - 1])[:, None]
        stop = e - 1 if scat[e] else e  # a branch end stencil rewrites node e-1
        assert np.array_equal(deriv[s + 1 : stop], want[: stop - s - 1])


@given(
    # about one node in four is right-scattered, so that dense branches of
    # 1-4 nodes and interval-to-jump seams occur; one gap in three is off
    # the step h, so that some runs start non-uniformly and others not
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([8, 8, 5, 11, 8, 8])),
             min_size=1, max_size=80),
    st.integers(1, 2),
    st.booleans(),
    st.data(),
)
def test_slopes_and_shifts_over_block_splits_equal_the_whole_grid(cells, n, extend, data):
    """The range kernels _slopes and _shifts, given only the samples of a
    block and of the _HALO nodes each side, give every node of the block the
    value delta_derivative_all and sigma_shift_all give it on the whole
    grid, bit for bit; and the whole-grid slopes equal the per-run loop of
    the reference.  The last node is right-scattered in about one grid in
    four, with or without a sigma_last extension."""
    scat = np.array([c[0] == 0 for c in cells])
    gaps = np.array([c[1] for c in cells], dtype=float) / 64.0
    nodes = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    grid = SampleGrid(nodes, np.where(scat, gaps, 0.0), scat, 0.125)
    m = len(grid)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(m, n))
    values[rng.random((m, n)) < 0.1] = -0.0
    f = GridFunction(grid, values, sigma_last=rng.normal(size=n) if extend and scat[-1] else None)
    deriv, defined = delta_derivative_all(f)
    shift, shift_defined = sigma_shift_all(f)
    want, want_defined = reference_slopes(f)
    assert same_bits(deriv, want) and np.array_equal(defined, want_defined)
    # random blocks, and every node a block of its own: then each stencil
    # reaches its farthest into the halo
    cuts = data.draw(st.sets(st.integers(1, m - 1), max_size=8)) if m > 1 else set()
    blocks = [(lo, end - 1) for lo, end in zip([0, *sorted(cuts)], [*sorted(cuts), m])]
    for lo, hi in blocks + [(i, i) for i in range(m)]:
        i0, i1 = max(lo - calculus._HALO, 0), min(hi + calculus._HALO, m - 1)
        part = f.values[i0 : i1 + 1].copy()
        got, got_defined = calculus._slopes(grid, part, i0, lo, hi, f.sigma_last)
        assert same_bits(got, deriv[lo : hi + 1])
        assert np.array_equal(got_defined, defined[lo : hi + 1])
        got, got_defined = calculus._shifts(grid, part, i0, lo, hi, f.sigma_last)
        assert same_bits(got, shift[lo : hi + 1])
        assert np.array_equal(got_defined, shift_defined[lo : hi + 1])


#: a scale whose grid has the jump runs 10..40 (the first DiscretePoints
#: segment, after the jump off [0, 1]) and 46..48
POINTS = union(ClosedInterval(0, 1), DiscretePoints(tuple(1.25 + 0.125 * np.arange(30))),
               ClosedInterval(5, 5.5), DiscretePoints((6.0, 6.5)), UnboundedRay(7.0))


@pytest.mark.parametrize("grid, blocks", [
    (integer_scale(0).build_grid(0.0, 203.0, 1.0),
     [(0, 40, True), (41, 41, True), (42, 199, True), (200, 203, True)]),
    (POINTS.build_grid(0.0, 8.0, 0.1),
     [(12, 30, True), (11, 40, True), (0, 15, True), (35, 50, False), (44, 59, True),
      (41, 45, True)]),
], ids=["lattice", "points"])
@pytest.mark.parametrize("extend", [False, True])
def test_range_kernels_read_a_run_of_jumps_by_slices(grid, blocks, extend):
    """Where the right-scattered nodes of a block form one run (or none) --
    every block of a lattice, a block inside a DiscretePoints segment or
    reaching into a dense run -- _slopes and _shifts read them as a slice,
    and a block holding two runs by a gather; either way every block gets
    the values the whole-grid call gives, bit for bit, with and without a
    sigma_last extension (the lattice grid ends in a jump)."""
    m = len(grid)
    rng = np.random.default_rng(m)
    values = rng.normal(size=(m, 2))
    values[rng.random((m, 2)) < 0.1] = -0.0
    f = GridFunction(grid, values, sigma_last=rng.normal(size=2) if extend else None)
    deriv, defined = delta_derivative_all(f)
    shift, shift_defined = sigma_shift_all(f)
    for lo, hi, sliced in blocks:
        assert isinstance(grid.jumps(lo, min(hi, m - 2) + 1)[0], slice) == sliced
        i0, i1 = max(lo - calculus._HALO, 0), min(hi + calculus._HALO, m - 1)
        part = f.values[i0 : i1 + 1].copy()
        got, got_defined = calculus._slopes(grid, part, i0, lo, hi, f.sigma_last)
        assert same_bits(got, deriv[lo : hi + 1])
        assert np.array_equal(got_defined, defined[lo : hi + 1])
        got, got_defined = calculus._shifts(grid, part, i0, lo, hi, f.sigma_last)
        assert same_bits(got, shift[lo : hi + 1])
        assert np.array_equal(got_defined, shift_defined[lo : hi + 1])


@pytest.mark.parametrize("grid", [
    COMB.build_grid(0.0, 25.0, 0.05),
    union(ClosedInterval(0, 1), DiscretePoints((1.5,)), UnboundedRay(2.0)).build_grid(0, 4, 0.1),
], ids=["comb", "mixed"])
def test_slopes_equal_the_reference_on_built_grids(grid):
    f = GridFunction.from_callable(grid, lambda t: np.column_stack((np.sin(t), t**3)))
    deriv, defined = delta_derivative_all(f)
    want, want_defined = reference_slopes(f)
    assert same_bits(deriv, want) and np.array_equal(defined, want_defined)
    assert grid.edge_stencils is grid.edge_stencils  # found once per grid


def test_derivative_quadratic_exact_on_dense_run():
    grid = real_ray(0).build_grid(0, 2, 0.05)
    c = random_poly(np.random.default_rng(3), degree=2)
    f = GridFunction.from_callable(grid, poly_fn(c))
    deriv, defined = delta_derivative_all(f)
    expect = c[1] + 2 * c[2] * grid.nodes
    err = np.abs(deriv[:, 0] - expect)[defined]
    assert err.max() <= 1e-10
    assert not defined[-1]  # dense final node has no forward neighbour


def test_derivative_boundary_cases():
    # raw values on a scattered grid: no sigma_last, so the last node is out
    grid = NAT.build_grid(0, 4, 1.0)
    f = GridFunction(grid, np.arange(5.0))
    deriv, defined = delta_derivative_all(f)
    assert defined[:-1].all() and not defined[-1]
    tiny = GridFunction(SampleGrid(np.array([0.0]), np.array([1.0]),
                                   np.array([True]), 1.0), np.array([5.0]))
    assert not delta_derivative_all(tiny)[1].any()  # no forward neighbour


@pytest.mark.parametrize("h", [1e-1, 1e-2, 1e-3])
def test_derivative_sin_second_order(h):
    grid = real_ray(0).build_grid(0, 10, h)
    f = GridFunction.from_callable(grid, np.sin)
    deriv, defined = delta_derivative_all(f)
    err = np.abs(deriv[:, 0] - np.cos(grid.nodes))[defined]
    assert err.max() <= 5 * h * h


def test_derivative_convergence_rate():
    errs = []
    for h in (1e-1, 1e-2):
        grid = real_ray(0).build_grid(0, 10, h)
        f = GridFunction.from_callable(grid, np.sin)
        deriv, defined = delta_derivative_all(f)
        errs.append(np.abs(deriv[:, 0] - np.cos(grid.nodes))[defined].max())
    assert 50 <= errs[0] / errs[1] <= 200  # ~h^2


# ---------------------------------------------------------------------------
# sigma shift


def test_sigma_shift_integers():
    f = GridFunction(NAT.build_grid(0, 3, 1.0), np.array([0.0, 1.0, 4.0, 9.0]))
    shifted, defined = sigma_shift_all(f)
    # without a sigma_last extension the final node is undefined
    assert defined.tolist() == [True, True, True, False]
    assert np.array_equal(shifted[:3, 0], [1.0, 4.0, 9.0])
    full, defined = sigma_shift_all(nat_fn(lambda t: t**2, 3))
    assert defined.all()
    assert np.array_equal(full[:, 0], [1.0, 4.0, 9.0, 16.0])


def test_sigma_shift_dense_is_identity():
    grid = real_ray(0).build_grid(0, 1, 0.1)
    f = GridFunction.from_callable(grid, np.exp)
    shifted, defined = sigma_shift_all(f)
    assert defined.all()
    assert np.array_equal(shifted, f.values)
    # nothing shifts, so the samples themselves are returned, read-only
    assert np.shares_memory(shifted, f.values) and not shifted.flags.writeable


def test_shift_rule_on_mixed_scale():
    ts = union(ClosedInterval(0, 1), DiscretePoints((2,)), UnboundedRay(3))
    grid = ts.build_grid(0, 4, 0.05)
    f = GridFunction.from_callable(grid, lambda t: t**2 - 0.5 * t)
    shifted, shift_defined = sigma_shift_all(f)
    assert shift_defined.all()
    deriv, defined = delta_derivative_all(f)
    rule = f.values + grid.mu[:, None] * deriv
    # exact everywhere: mu = 0 kills the dense nodes, scattered nodes use
    # the same jump quotient on both sides
    err = np.abs(shifted - rule)[defined]
    assert err.max() <= 1e-12


# ---------------------------------------------------------------------------
# delta integral


def test_integral_integers_finite_sum():
    f = nat_fn(lambda t: t, 3)
    assert delta_integral(f, 0, 3)[0] == 3.0
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(11)
    g = GridFunction(NAT.build_grid(0, 10, 1.0), vals)
    for lo, hi in [(0, 10), (2, 7), (4, 5)]:
        assert abs(delta_integral(g, lo, hi)[0] - vals[lo:hi].sum()) <= 1e-12


def test_integral_dense_ray():
    grid = real_ray(0).build_grid(0, 1, 1e-3)
    f = GridFunction.from_callable(grid, lambda t: t)
    assert abs(delta_integral(f, 0, 1)[0] - 0.5) <= 1e-6


def test_integral_point_rules():
    f = nat_fn(lambda t: t**2 + 1, 6)
    assert delta_integral(f, 3, 3)[0] == 0.0
    assert delta_integral(f, 5, 2)[0] == -delta_integral(f, 2, 5)[0]
    # int_t^sigma(t) f = mu(t) f(t), exactly
    assert delta_integral(f, 4, 5)[0] == 1.0 * (4.0**2 + 1)
    with pytest.raises(NodeNotInGrid):
        delta_integral(f, 0.5, 3)


def test_integral_mixed_scale_by_hand():
    ts = union(ClosedInterval(0, 1), DiscretePoints((2,)), UnboundedRay(3))
    grid = ts.build_grid(0, 3, 0.125)
    one = GridFunction.from_callable(grid, lambda t: np.ones_like(t))
    ident = GridFunction.from_callable(grid, lambda t: t)
    # dense [0,1] contributes 1, jumps 1->2 and 2->3 contribute mu*f
    assert abs(delta_integral(one, 0, 3)[0] - 3.0) <= 1e-12
    assert abs(delta_integral(ident, 0, 3)[0] - 3.5) <= 1e-12


def test_integral_additivity_and_linearity():
    ts = union(DiscretePoints((0, 0.5)), ClosedInterval(1, 2), UnboundedRay(3))
    grid = ts.build_grid(0, 4, 0.1)
    rng = np.random.default_rng(11)
    f = GridFunction(grid, rng.standard_normal(len(grid)))
    g = GridFunction(grid, rng.standard_normal(len(grid)))
    whole = delta_integral(f, 0, 4)[0]
    split = delta_integral(f, 0, 1.5)[0] + delta_integral(f, 1.5, 4)[0]
    assert abs(whole - split) <= 1e-12
    combo = GridFunction(grid, 2.5 * f.values + g.values)
    lhs = delta_integral(combo, 0, 4)[0]
    rhs = 2.5 * delta_integral(f, 0, 4)[0] + delta_integral(g, 0, 4)[0]
    assert abs(lhs - rhs) <= 1e-12


def test_integral_positivity():
    rng = np.random.default_rng(13)
    ts = random_scattered_scale(rng)
    hi = ts.floor_member(ts.a + 4.0)
    grid = ts.build_grid(ts.a, hi, 0.1)
    f = GridFunction(grid, rng.uniform(0.1, 1.0, size=len(grid)))
    assert delta_integral(f, ts.a, hi)[0] > 0


def test_integral_trapezoid_error_is_second_order():
    h = 1e-2
    grid = real_ray(0).build_grid(0, 1, h)
    f = GridFunction.from_callable(grid, lambda t: t**2)
    err = abs(delta_integral(f, 0, 1)[0] - 1.0 / 3.0)
    assert 0 < err <= 2 * h * h / 12 * 1.2  # (b-a) h^2 f''/12 with slack


def test_cumulative_matches_windows():
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    grid = ts.build_grid(0, 3, 0.2)
    f = GridFunction.from_callable(grid, lambda t: np.cos(t) + 2)
    cum = cumulative_delta_integral(f)
    for i in range(len(grid)):
        direct = delta_integral(f, grid.nodes[0], grid.nodes[i])
        assert abs(cum[i, 0] - direct[0]) <= 1e-12


def reference_prefix_integrals(grid, v, i1):
    """The running sums of the seam loop's cells of the (m, n) array v at
    the nodes 0..i1."""
    want = np.zeros((i1 + 1, v.shape[1]))
    np.cumsum(reference_cell_values(grid, v, 0, i1), axis=0, out=want[1:])
    return want


def assert_integrals_match_reference(grid, v, windows):
    """The prefix integrals at every node up to i1 of each (i0, i1) window
    in ``windows`` (_prefix_integrals, with v's columns as rows, as
    el_residual takes them) and delta_integral over the window equal the
    seam loop's element by element."""
    for i0, i1 in windows:
        got = _prefix_integrals(grid, v.T, np.arange(i1 + 1)).T
        assert np.array_equal(got, reference_prefix_integrals(grid, v, i1))
        f = GridFunction(grid, v)
        lo, hi = grid.nodes[i0], grid.nodes[i1]
        want = reference_cell_values(grid, v, min(i0, i1), max(i0, i1)).sum(axis=0)
        assert np.array_equal(delta_integral(f, lo, hi), want if i0 <= i1 else -want)


@given(
    st.lists(st.tuples(st.booleans(), st.integers(1, 8)), min_size=2, max_size=60),
    st.integers(1, 2),
    st.data(),
)
def test_integrals_match_reference_seam_loop(cells, n, data):
    scat = np.array([c[0] for c in cells])
    gaps = np.array([c[1] for c in cells], dtype=float) / 8.0
    nodes = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    grid = SampleGrid(nodes, np.where(scat, gaps, 0.0), scat, 0.125)
    m = len(grid)
    v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(m, n))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    assert_integrals_match_reference(grid, v, data.draw(st.lists(pair, min_size=1)))


@pytest.mark.parametrize("grid, n_seams", [
    (COMB.build_grid(0.0, 25.0, 0.05), 20),
    # seams at the first possible cell and at the last cell
    (SampleGrid(np.array([0.0, 0.25, 0.625, 1.5, 2.0, 2.125]),
                np.array([0.0, 0.0, 0.875, 0.0, 0.0, 1.0]),
                np.array([False, False, True, False, False, True]), 0.5), 2),
], ids=["comb", "edges"])
def test_integrals_match_reference_seam_loop_on_fixed_grids(grid, n_seams):
    seams = calculus._cell_weights(grid, 0, len(grid) - 1)[2]
    assert len(seams) == n_seams
    v = np.column_stack((np.cos(grid.nodes), grid.nodes**2))
    m = len(grid)
    windows = [(0, m - 1), (m - 1, 0), (int(seams[0]), int(seams[-1]) + 1),
               (int(seams[-1]) + 1, int(seams[-1])), (0, 1)]
    assert_integrals_match_reference(grid, v, windows)


def test_cell_weights_are_formed_per_block(monkeypatch):
    """calculus._cell_weights of the cells lo..hi-1 are the seam loop's
    weights of those cells, for blocks that start and end at, before and
    after seams, on the comb and on a grid with seams at the first possible
    cell and at the last.  The weights are read-only, as are the seams and
    their weights that every block shares with the grid.  Each delta
    integral asks for the weights of the range it sums, so identity_pack's
    four integrals over one prefix grid ask four times for the same cells."""
    comb = COMB.build_grid(0.0, 25.0, 0.05)
    edges = SampleGrid(np.array([0.0, 0.25, 0.625, 1.5, 2.0, 2.125]),
                       np.array([0.0, 0.0, 0.875, 0.0, 0.0, 1.0]),
                       np.array([False, False, True, False, False, True]), 0.5)
    for grid in (comb, edges):
        w_prev, ref_left, ref_right = reference_cell_weights(grid)
        seams = np.flatnonzero(w_prev)
        cuts = sorted({0, len(grid) - 1, *seams.tolist(), *(seams - 1).tolist(),
                       *(seams + 1).tolist()})
        for k, lo in enumerate(cuts):
            for hi in cuts[k + 1 : k + 4] + cuts[-1:]:
                w_left, w_right, got_seams, w_seam = calculus._cell_weights(grid, lo, hi)
                assert np.array_equal(w_left, ref_left[lo:hi])
                assert np.array_equal(w_right, ref_right[lo:hi])
                assert np.array_equal(got_seams, seams[(seams >= lo) & (seams < hi)])
                assert np.array_equal(w_seam, w_prev[got_seams])
                assert not any(w.flags.writeable for w in (w_left, w_right, got_seams, w_seam))
    calls = []
    weights = calculus._cell_weights
    monkeypatch.setattr(calculus, "_cell_weights",
                        lambda g, lo, hi: calls.append((lo, hi)) or weights(g, lo, hi))
    f = GridFunction.from_callable(comb, np.sin)
    g = GridFunction.from_callable(comb, lambda t: np.cos(t) + 2.0)
    assert identity_pack(f, g).parts_plain_f <= 1e-3
    assert len(calls) == 4 and len(set(calls)) == 1


def assert_cumulative_at_matches(grid, rows, idx, block):
    """_cumulative_at, handed the k scalar rows ``rows`` (a (k, m) array)
    together, block by block with _BLOCK = ``block``, equals the running
    sums of the seam loop's cells of each row at ``idx``: exactly in its
    running-sum mode (few nodes per horizon, or no cell that reads its
    right node), to a few ulps in its horizon mode; and each row equals its
    reduction on its own exactly.  The blocks it asks for run from node 0
    to the last index, each starting where the one before ended."""
    end = idx[-1]
    rows = rows[:, : end + 1]
    want = reference_prefix_integrals(grid, rows.T, end)[idx].T

    def reduce(block_rows, asked):
        return _cumulative_at(grid, idx, len(block_rows), lambda lo, hi, t: asked.append(
            (lo, hi)) or (block_rows[:, lo : hi + 1].copy(), np.full(hi - lo, np.nan)))

    asked = []
    with mock.patch.object(calculus, "_BLOCK", block):
        got = reduce(rows, asked)
        alone = [reduce(row[None], [])[0] for row in rows]
    assert np.shape(got) == want.shape
    assert all(np.array_equal(a, b) for a, b in zip(got, alone))
    if 8 * len(idx) >= end or not calculus._cell_weights(grid, 0, end)[1].any():
        assert np.array_equal(got, want)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    ends = [0] + [hi for _, hi in asked]
    assert [lo for lo, _ in asked] == ends[:-1] and ends[-1] == idx[-1]


def node_subsets(m):
    """Strictly increasing node-index arrays on m nodes: a single node, the
    last node, every node, or a random subset."""
    single = st.integers(0, m - 1).map(lambda i: [i])
    subset = st.sets(st.integers(0, m - 1), min_size=1).map(sorted)
    return st.one_of(single, st.just([m - 1]), st.just(list(range(m))), subset).map(
        lambda ix: np.array(ix, dtype=np.intp))


#: _BLOCK values: blocks of one horizon segment each, of a few segments,
#: and one block for the whole grid
BLOCK_SIZES = st.one_of(st.integers(1, 3), st.integers(4, 40), st.just(calculus._BLOCK))


@given(
    st.lists(st.tuples(st.booleans(), st.integers(1, 8)), min_size=2, max_size=120),
    BLOCK_SIZES,
    st.data(),
)
def test_cumulative_at_matches_cumulative(cells, block, data):
    scat = np.array([c[0] for c in cells])
    gaps = np.array([c[1] for c in cells], dtype=float) / 8.0
    nodes = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    grid = SampleGrid(nodes, np.where(scat, gaps, 0.0), scat, 0.125)
    m = len(grid)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(data.draw(st.integers(1, 3)), m))
    assert_cumulative_at_matches(grid, rows, data.draw(node_subsets(m)), block)


@given(st.lists(st.integers(1, 8), min_size=2, max_size=120), BLOCK_SIZES, st.data())
def test_cumulative_at_is_exact_on_scattered_grids(gaps, block, data):
    gaps = np.array(gaps, dtype=float) / 8.0
    nodes = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    grid = SampleGrid(nodes, gaps, np.ones(len(gaps), dtype=bool), 0.125)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(data.draw(st.integers(1, 3)), len(grid)))
    assert_cumulative_at_matches(grid, rows, data.draw(node_subsets(len(grid))), block)


@pytest.mark.parametrize("grid", [
    COMB.build_grid(0.0, 25.0, 0.05),
    SampleGrid(np.array([0.0, 0.25, 0.625, 1.5, 2.0, 2.125]),
               np.array([0.0, 0.0, 0.875, 0.0, 0.0, 1.0]),
               np.array([False, False, True, False, False, True]), 0.5),
], ids=["comb", "edges"])
@given(block=BLOCK_SIZES, data=st.data())
def test_cumulative_at_matches_cumulative_on_fixed_grids(grid, block, data):
    idx = data.draw(node_subsets(len(grid)))
    assert_cumulative_at_matches(grid, np.vstack((np.cos(grid.nodes), grid.nodes**2)), idx, block)


def test_pairwise_parts_join_to_numpys_sum():
    """calculus._pairwise cuts n summands where numpy's pairwise sum cuts
    them, so that its parts, each summed on its own and joined, give
    np.add.reduce's bits: the rule that lets _blocks cut a horizon segment
    longer than a block, for blocks of 16 cells (parts of 128), 1000 and
    the default."""
    rng = np.random.default_rng(7)
    for block in (16, 1000, calculus._BLOCK):
        with mock.patch.object(calculus, "_BLOCK", block):
            for n in (1, 127, 129, 1000, 33001, 200003):
                x = rng.standard_normal(n) * np.exp(3.0 * rng.standard_normal(n))
                cuts = np.cumsum([0] + calculus._pairwise(n))
                sums = iter([np.add.reduce(x[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])
                assert same_bits(calculus._pairwise(n, sums), np.add.reduce(x))


def test_cumulative_at_reads_seam_cells_and_few_horizons():
    grid = COMB.build_grid(0.0, 25.0, 0.05)
    seams = calculus._cell_weights(grid, 0, len(grid) - 1)[2]
    v = np.exp(-grid.nodes) + np.sin(3.0 * grid.nodes)
    # horizons at, just before and just after each seam cell, and a sparse set
    around = np.unique(np.concatenate((seams - 1, seams, seams + 1)))
    for idx in (around, around[::7], seams[[0, -1]], np.arange(0, len(grid), 97)):
        for block in (2, 50, calculus._BLOCK):
            assert_cumulative_at_matches(grid, v[None], idx, block)


def test_antiderivative_recovers_integrand():
    # scattered part: exact; dense part: O(h^2)
    ts = union(DiscretePoints((0, 1, 1.5)), UnboundedRay(2.5))
    h = 0.01
    grid = ts.build_grid(0, 4, h)
    f = GridFunction.from_callable(grid, lambda t: np.sin(t) + 1.5)
    F = GridFunction(grid, cumulative_delta_integral(f))
    deriv, defined = delta_derivative_all(F)
    err = np.abs(deriv[:, 0] - f.values[:, 0])[defined]
    assert err.max() <= h * h
    scat = grid.scattered.copy()
    scat[-1] = False
    assert np.abs(deriv[scat, 0] - f.values[scat, 0]).max() <= 1e-13


# ---------------------------------------------------------------------------
# limit classification


def mk(seq):
    return [(float(k + 1), float(v)) for k, v in enumerate(seq)]


def test_classify_converged():
    est = classify_limit(mk(2.0 - 2.0 ** -np.arange(1, 31)))
    assert est.kind is LimitKind.CONVERGED
    assert abs(est.value - 2.0) <= 1e-8
    assert len(est.evidence) == 30


def test_classify_diverges():
    up = classify_limit(mk(3.0 * np.arange(1, 21)))
    assert up.kind is LimitKind.DIVERGES_PLUS
    down = classify_limit(mk(5.0 - 2.0 * np.arange(1, 21)))
    assert down.kind is LimitKind.DIVERGES_MINUS


def test_classify_threshold_divergence():
    # decaying rate, but the magnitude has already left any plausible limit
    vals = 2e6 - 1e6 / np.arange(1, 41)
    est = classify_limit(mk(vals))
    assert est.kind is LimitKind.DIVERGES_PLUS


def test_classify_slow_monotone_is_not_divergent():
    # partial sums of 1/t^2: monotone, but the growth rate collapses
    vals = np.cumsum(1.0 / np.arange(1, 61) ** 2)
    est = classify_limit(mk(vals))
    assert est.kind is LimitKind.UNDETERMINED


def test_classify_oscillates():
    est = classify_limit(mk([(-1.0) ** k for k in range(20)]))
    assert est.kind is LimitKind.OSCILLATES
    assert est.lo == -1.0 and est.hi == 1.0
    doc = est.to_dict()
    assert list(doc) == ["kind", "lo", "hi", "evidence"]
    assert (doc["kind"], doc["lo"], doc["hi"]) == ("oscillates", -1.0, 1.0)
    assert doc["evidence"] == [[float(t), float(v)] for t, v in est.evidence]


@pytest.mark.parametrize("window", [2, 0])
def test_limit_window_below_three_is_refused_when_configured(window):
    """Refused at construction, whatever the samples: a classifier fed a
    falling sequence used to return DIVERGES_MINUS before reading the
    window, and verify sampled x* before the refusal."""
    with pytest.raises(InsufficientHorizons, match="classifier window must be >= 3"):
        LimitConfig(window=window)
    assert LimitConfig(window=3).window == 3


def test_classify_errors():
    with pytest.raises(InsufficientHorizons):
        classify_limit(mk([1, 2, 3]))  # fewer than window samples
    with pytest.raises(InsufficientHorizons):
        classify_limit([(1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
    with pytest.raises(InsufficientHorizons):
        classify_limit(mk(range(10)), LimitConfig(window=2))


# ---------------------------------------------------------------------------
# improper integrals


def test_improper_geometric_series():
    horizons = list(range(10, 101, 10))
    est = improper_integral(NAT, lambda t: 2.0 ** (-t), 0, horizons, h=1.0)
    assert est.kind is LimitKind.CONVERGED
    assert abs(est.value - 2.0) <= 1e-6
    for b, partial in est.evidence:
        assert abs(partial - (2.0 - 2.0 ** (1 - b))) <= 1e-12


def test_improper_constant_diverges():
    est = improper_integral(real_ray(0), lambda t: np.ones_like(t), 0,
                            [5, 10, 15, 20, 25, 30], h=0.1)
    assert est.kind is LimitKind.DIVERGES_PLUS


def test_improper_alternating_oscillates():
    est = improper_integral(NAT, lambda t: (-1.0) ** t, 0,
                            list(range(10, 20)), h=1.0)
    assert est.kind is LimitKind.OSCILLATES
    assert (est.lo, est.hi) == (0.0, 1.0)


def test_improper_errors():
    with pytest.raises(InsufficientHorizons):
        improper_integral(NAT, lambda t: t, 0, [5, 10], h=1.0)
    with pytest.raises(InsufficientHorizons):
        improper_integral(NAT, lambda t: t, 0, [5, 5, 6, 7, 8], h=1.0)
    with pytest.raises(InsufficientHorizons):
        improper_integral(NAT, lambda t: t, 0, [0, 1, 2, 3, 4], h=1.0)
    with pytest.raises(NotInTimeScale):
        improper_integral(NAT, lambda t: t, 0, [1, 2, 3.5, 4, 5], h=1.0)
    with pytest.raises(DimensionMismatch):
        improper_integral(NAT, lambda t: np.stack([t, t], axis=-1), 0,
                          [1, 2, 3, 4, 5], h=1.0)


def test_improper_partials_are_additive():
    # chunked accumulation equals one-shot integrals over the same nodes
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    horizons = [3, 4, 5, 6, 7]
    est = improper_integral(ts, lambda t: np.exp(-t), 0, horizons, h=0.1)
    for b, partial in est.evidence:
        grid = ts.build_grid(0, b, 0.1)
        f = GridFunction.from_callable(grid, lambda t: np.exp(-t), extend=False)
        assert abs(partial - delta_integral(f, 0, b)[0]) <= 1e-12


# ---------------------------------------------------------------------------
# identity pack


def test_identity_pack_integers_exact():
    f = nat_fn(lambda t: t, 9)
    g = nat_fn(lambda t: t, 9)
    report = identity_pack(f, g)
    assert report.max_residual() == 0.0
    assert report.to_dict() == {"shift_rule": 0.0, "product_left": 0.0, "product_right": 0.0,
                                "parts_sigma_f": 0.0, "parts_plain_f": 0.0}


def test_identity_pack_constant_shift_rule():
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    grid = ts.build_grid(0, 3, 0.1)
    f = GridFunction.from_callable(grid, lambda t: 3.0 * np.ones_like(t))
    g = GridFunction.from_callable(grid, lambda t: np.sin(t))
    report = identity_pack(f, g)
    assert report.shift_rule == 0.0


def test_identity_pack_dense_sin_cos():
    grid = real_ray(0).build_grid(0, 1, 1e-3)
    f = GridFunction.from_callable(grid, np.sin)
    g = GridFunction.from_callable(grid, np.cos)
    report = identity_pack(f, g)
    assert report.max_residual() <= 1e-5


def test_identity_pack_rejects_mismatches():
    f = nat_fn(lambda t: t, 5)
    g = nat_fn(lambda t: t, 6)
    with pytest.raises(DimensionMismatch):
        identity_pack(f, g)
    vec = GridFunction(NAT.build_grid(0, 5, 1.0), np.ones((6, 2)))
    with pytest.raises(DimensionMismatch):
        identity_pack(vec, vec)


@given(st.integers(0, 10_000))
def test_identity_pack_scattered_scales(seed):
    rng = np.random.default_rng(seed)
    ts = random_scattered_scale(rng)
    hi = ts.a
    for _ in range(int(rng.integers(3, 7))):
        hi = ts.advance(hi, 1.0)
    grid = ts.build_grid(ts.a, hi, 0.5)
    f = GridFunction.from_callable(grid, poly_fn(random_poly(rng)))
    g = GridFunction.from_callable(grid, poly_fn(random_poly(rng)))
    report = identity_pack(f, g)
    assert report.max_residual() <= 1e-9


@given(st.integers(0, 10_000))
def test_integral_linearity_on_mixed_scales(seed):
    rng = np.random.default_rng(seed)
    ts = random_scattered_scale(rng)
    hi = ts.a
    for _ in range(5):
        hi = ts.advance(hi, 1.0)
    grid = ts.build_grid(ts.a, hi, 0.25)
    f = GridFunction.from_callable(grid, poly_fn(random_poly(rng)))
    g = GridFunction.from_callable(grid, poly_fn(random_poly(rng)))
    alpha = float(rng.uniform(-2, 2))
    combo = GridFunction(grid, alpha * f.values + g.values)
    lhs = delta_integral(combo, ts.a, hi)[0]
    rhs = alpha * delta_integral(f, ts.a, hi)[0] + delta_integral(g, ts.a, hi)[0]
    assert abs(lhs - rhs) <= 1e-10
