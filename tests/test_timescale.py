"""Structural operators (sigma, rho, mu), sampled grids, and the DSL."""

import math
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsvar import (
    ArithmeticTail,
    ClosedInterval,
    DiscretePoints,
    DSLParseError,
    InvalidTimeScale,
    InvalidWindow,
    Lagrangian,
    NodeNotInGrid,
    NotInTimeScale,
    Problem,
    StepNotPositive,
    TimeScaleSpec,
    UnboundedRay,
    format_timescale,
    integer_scale,
    parse_timescale,
    real_ray,
    timescale_from_structured,
    timescale_to_structured,
    union,
)
from tsvar import calculus
from tsvar.timescale import SEGMENT_KINDS, NodeKind, PointClass, Segment, Side

from helpers import (
    ReferenceScale,
    random_member,
    random_mixed_scale,
    reference_build_grid,
    reference_cell_weights,
    reference_dense_runs,
    structural_members,
    translated,
)

MIXED = union(ClosedInterval(0, 1), DiscretePoints((2, 3)), UnboundedRay(5))


# ---------------------------------------------------------------------------
# membership and the jump operators


def test_membership():
    assert MIXED.contains(0.5)
    assert MIXED.contains(1.0)
    assert MIXED.contains(2.0) and MIXED.contains(3.0)
    assert MIXED.contains(5.0) and MIXED.contains(7.25)
    assert not MIXED.contains(4.0)
    assert not MIXED.contains(1.5)
    assert not MIXED.contains(-1.0)
    assert integer_scale(0).contains(7.0)
    assert not integer_scale(0).contains(7.5)
    assert 0.5 in MIXED and 4.0 not in MIXED


def test_sigma():
    assert integer_scale(0).sigma(5.0) == 6.0
    assert real_ray(0).sigma(3.7) == 3.7
    gap = union(ClosedInterval(0, 1), UnboundedRay(2))
    assert gap.sigma(1.0) == 2.0
    with pytest.raises(NotInTimeScale):
        gap.sigma(1.5)


def test_rho():
    assert integer_scale(0).rho(5.0) == 4.0
    assert real_ray(0).rho(3.7) == 3.7
    # rho at the smallest element stays put
    assert integer_scale(0).rho(0.0) == 0.0
    assert MIXED.rho(0.0) == 0.0
    assert MIXED.rho(2.0) == 1.0
    assert MIXED.rho(5.0) == 3.0


def test_mu():
    assert integer_scale(0).mu(4.0) == 1.0
    assert real_ray(0).mu(2.5) == 0.0
    assert union(ClosedInterval(0, 1), UnboundedRay(3)).mu(1.0) == 2.0
    assert MIXED.mu(2.0) == 1.0
    assert MIXED.mu(3.0) == 2.0
    assert MIXED.mu(0.25) == 0.0


@pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.1])
def test_arithmetic_tail_exactness(step):
    # sigma(t) is the next member computed from its index, and mu(t) = step,
    # with no tolerance at all
    ts = integer_scale(2.0, step)
    for k in [0, 1, 7, 40]:
        t = ts.snap(2.0 + k * step)
        assert ts.sigma(t) == 2.0 + (k + 1) * step
        assert ts.mu(t) == step


def test_classify():
    iso = union(ClosedInterval(0, 1), DiscretePoints((2,)), UnboundedRay(3))
    assert iso.classify(2.0).isolated
    assert real_ray(0).classify(1.0).dense
    edge = union(ClosedInterval(0, 1), UnboundedRay(3)).classify(1.0)
    assert edge.left is Side.DENSE and edge.right is Side.SCATTERED
    # the smallest element is left-dense by the rho(a) = a convention
    start = integer_scale(0).classify(0.0)
    assert start.left is Side.DENSE and start.right is Side.SCATTERED
    assert real_ray(0).classify(0.0).dense


def test_classify_reads_the_member_not_the_time():
    """A time within tol_at of an interval's end names that end: 1.0 is
    left-dense and right-scattered, 2.0 left-scattered and right-dense,
    also 1e-13 off them on the side that is not in the scale."""
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    for t in (1.0, 1.0 + 1e-13):
        assert ts.classify(t) == PointClass(right=Side.SCATTERED, left=Side.DENSE), t
    for t in (2.0, 2.0 - 1e-13):
        assert ts.classify(t) == PointClass(right=Side.DENSE, left=Side.SCATTERED), t


def test_spec_validation():
    with pytest.raises(InvalidTimeScale):
        TimeScaleSpec(())
    with pytest.raises(InvalidTimeScale):
        union(ClosedInterval(0, 1))  # bounded: no tail
    with pytest.raises(InvalidTimeScale):
        union(UnboundedRay(0), DiscretePoints((5,)))  # tail not last
    with pytest.raises(InvalidTimeScale):
        union(ClosedInterval(0, 2), UnboundedRay(1))  # overlap
    with pytest.raises(InvalidTimeScale):
        union(ClosedInterval(2, 1), UnboundedRay(3))  # reversed interval
    with pytest.raises(InvalidTimeScale):
        union(DiscretePoints((0, 0)), UnboundedRay(1))
    with pytest.raises(InvalidTimeScale):
        TimeScaleSpec((ArithmeticTail(0, 0.0),))


# ---------------------------------------------------------------------------
# member navigation


def test_floor_ceil_member():
    assert MIXED.floor_member(4.5) == 3.0
    assert MIXED.ceil_member(4.5) == 5.0
    assert MIXED.floor_member(0.75) == 0.75
    assert MIXED.ceil_member(1.2) == 2.0
    assert MIXED.ceil_member(-10.0) == 0.0
    with pytest.raises(NotInTimeScale):
        MIXED.floor_member(-0.5)


@pytest.mark.parametrize("ts", [MIXED, integer_scale(0), real_ray(0)],
                         ids=["mixed", "Z", "ray"])
@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_times_are_refused(ts, x):
    """No member lies at +-inf and none is nearest to nan: floor_member and
    ceil_member raise NotInTimeScale and build_grid InvalidWindow.  The
    integers' member indices and the ray's dense cell count once ended in
    an OverflowError, and the ray's floor and ceil of inf were inf."""
    with pytest.raises(NotInTimeScale, match="not a finite time"):
        ts.floor_member(x)
    with pytest.raises(NotInTimeScale, match="not a finite time"):
        ts.ceil_member(x)
    for window in ((0.0, x), (x, 5.0)):
        with pytest.raises(InvalidWindow, match="not finite"):
            ts.build_grid(*window, 0.1)


@pytest.mark.parametrize("ts", [real_ray(0), union(ClosedInterval(0, 1), UnboundedRay(2)),
                                integer_scale(0)], ids=["ray", "interval-ray", "Z"])
@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_times_are_never_members(ts, x):
    """The ray once held -inf (its tol_at is inf) and snapped it to 0.0,
    advance(inf, 0.3) on interval-ray returned 2.0, and the integers raised
    OverflowError or ValueError."""
    assert not ts.contains(x) and x not in ts
    for query in (ts.snap, ts.sigma, ts.rho, ts.mu, ts.classify,
                  lambda t: ts.advance(t, 0.3)):
        with pytest.raises(NotInTimeScale):
            query(x)


def test_a_problem_cannot_start_at_minus_infinity():
    lag = Lagrangian(n=1, eval=lambda t, u, v: -(v[:, 0] ** 2), vectorized=True)
    with pytest.raises(NotInTimeScale):
        Problem(ts=real_ray(0), a=float("-inf"), x_a=np.array([1.0]), lagrangian=lag)


def outcome(query, *args):
    """What a query gives: its value, or the type of error it raises."""
    try:
        return query(*args)
    except NotInTimeScale as exc:
        return type(exc)


@given(st.integers(0, 10_000), st.sampled_from([-3.0, 0.0, 1.0, 1e3, 1e6, 1e9]))
def test_one_membership_rule_matches_each_kinds_own(seed, t0):
    """Every query decided from the floor member agrees with the per-kind
    membership tests it replaced (helpers.ReferenceScale), on scales whose
    members lie far more than 2 tol_at apart: at members, 1e-13 and 5e-12
    either side of them, and between them."""
    rng = np.random.default_rng(seed)
    ts = translated(random_mixed_scale(rng), t0)
    ref = ReferenceScale(ts)
    members = structural_members(ts, ts.a, ts.a + 6.0)
    members += [random_member(rng, ts) for _ in range(4)]
    times = [ts.a - 1.0, *(m + d for m in members
                           for d in (0.0, -1e-13, 1e-13, -5e-12, 5e-12))]
    times += [(x + y) / 2 for x, y in zip(members, members[1:])]
    h = float(rng.choice([0.1, 0.37]))
    for t in times:
        for name in ("contains", "snap", "sigma", "rho", "mu", "classify",
                     "floor_member", "ceil_member"):
            assert outcome(getattr(ts, name), t) == outcome(getattr(ref, name), t), (name, t)
        assert outcome(ts.advance, t, h) == outcome(ref.advance, t, h), ("advance", t)
    lo, hi = ts.a + 1e-13, ts.floor_member(ts.a + 6.0) - 1e-13
    grid = ts.build_grid(lo, hi, h)
    assert np.array_equal(grid.nodes, ts.build_grid(ref.snap(lo), ref.snap(hi), h).nodes)
    assert grid.mu.tolist() == [ref.mu(t) for t in grid.nodes]


def test_advance():
    assert integer_scale(0).advance(3.0, 0.1) == 4.0
    assert real_ray(0).advance(0.0, 0.25) == 0.25
    ts = union(ClosedInterval(0, 1), UnboundedRay(2))
    assert ts.advance(0.9, 0.25) == 1.0  # clamped at the segment end
    assert ts.advance(1.0, 0.25) == 2.0  # scattered hop


# ---------------------------------------------------------------------------
# grids


def test_build_grid_integer_window():
    grid = integer_scale(0).build_grid(0, 5, 0.1)
    assert np.array_equal(grid.nodes, [0, 1, 2, 3, 4, 5])
    assert np.array_equal(grid.mu, np.ones(6))
    assert grid.scattered.all()
    assert all(grid.kind(i) is NodeKind.SCATTERED_EXACT for i in range(6))


def test_build_grid_dense_window():
    grid = real_ray(0).build_grid(0, 1, 0.25)
    assert np.array_equal(grid.nodes, [0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(grid.mu, np.zeros(5))
    assert not grid.scattered.any()
    assert grid.kind(2) is NodeKind.DENSE_SAMPLE


def test_build_grid_mixed_window():
    ts = union(ClosedInterval(0, 1), DiscretePoints((2,)), UnboundedRay(3))
    grid = ts.build_grid(0, 3, 0.5)
    assert np.array_equal(grid.nodes, [0, 0.5, 1, 2, 3])
    assert np.array_equal(grid.mu, [0, 0, 1, 1, 0])
    assert np.array_equal(grid.scattered, [False, False, True, True, False])
    assert grid.window == (0.0, 3.0)


def test_build_grid_spacing_uses_ceil():
    grid = real_ray(0).build_grid(0, 1, 0.3)
    assert len(grid) == 5  # ceil(1/0.3) = 4 subintervals
    assert np.max(np.diff(grid.nodes)) <= 0.3


def test_build_grid_errors():
    ts = integer_scale(0)
    with pytest.raises(InvalidWindow):
        ts.build_grid(3, 3, 0.1)
    with pytest.raises(InvalidWindow):
        ts.build_grid(4, 2, 0.1)
    with pytest.raises(StepNotPositive):
        ts.build_grid(0, 3, 0.0)
    with pytest.raises(NotInTimeScale):
        ts.build_grid(0.5, 3, 0.1)


def node_index(grid, t):
    """grid.index_of(t), or None where t names no node."""
    try:
        return grid.index_of(t)
    except NodeNotInGrid:
        return None


@given(st.integers(0, 10_000), st.sampled_from([0.0, 1e5, 1e6]), st.data())
def test_grid_of_stretches_matches_the_whole_arrays(seed, t0, data):
    """The grid of stretches gives the bits of the grid built as whole
    arrays (helpers.reference_build_grid: np.linspace and concatenation),
    on mixed scales moved to t0: its nodes, mu, scattered flags, dense runs,
    prefixes, the ranges and index arrays the kernels ask for, the jumps of
    a range and each block's cell weights."""
    rng = np.random.default_rng(seed)
    ts = translated(random_mixed_scale(rng), t0)
    h = data.draw(st.sampled_from([0.1, 0.21, 0.05]))
    lo = random_member(rng, ts, max_hops=4)
    hi = ts.floor_member(lo + float(rng.uniform(0.5, 4.0)))
    if not hi > lo:
        return
    grid, ref = ts.build_grid(lo, hi, h), reference_build_grid(ts, lo, hi, h)
    m = len(ref)
    assert len(grid) == m and grid.window == ref.window
    for name in ("nodes", "mu", "scattered"):
        assert np.array_equal(getattr(grid, name), getattr(ref, name)), name
    assert list(grid.dense_runs) == reference_dense_runs(ref)
    k = data.draw(st.integers(1, m))
    sub = grid.prefix(k)
    for name in ("nodes", "mu", "scattered"):
        assert np.array_equal(getattr(sub, name), getattr(ref, name)[:k]), name
    assert list(sub.dense_runs) == reference_dense_runs(ref.prefix(k))
    w_prev, w_left, w_right = reference_cell_weights(ref)
    seams = np.flatnonzero(w_prev)
    for _ in range(3):
        i0 = data.draw(st.integers(0, m - 1))
        i1 = data.draw(st.integers(i0, m - 1))
        block = slice(i0, i1 + 1)
        assert np.array_equal(grid.nodes_at(block), ref.nodes[block])
        assert np.array_equal(grid.mu_at(block), ref.mu[block])
        assert np.array_equal(grid.scattered_at(block), ref.scattered[block])
        idx = np.array(data.draw(st.lists(st.integers(0, m - 1), max_size=12)), dtype=np.intp)
        for name in ("nodes", "mu", "scattered"):
            assert np.array_equal(getattr(grid, f"{name}_at")(idx), getattr(ref, name)[idx]), name
        where, mu = grid.jumps(i0, i1 + 1)
        jumps = np.flatnonzero(ref.scattered[block]) + i0
        assert np.array_equal(np.arange(m)[where], jumps) and np.array_equal(mu, ref.mu[jumps])
        got_left, got_right, got_seams, w_seam = calculus._cell_weights(grid, i0, i1)
        assert np.array_equal(got_left, w_left[i0:i1])
        assert np.array_equal(got_right, w_right[i0:i1])
        assert np.array_equal(got_seams, seams[(seams >= i0) & (seams < i1)])
        assert np.array_equal(w_seam, w_prev[got_seams])
    # times at, just below and just above nodes, where a dense stretch's
    # arithmetic guess of the index can be one off
    t = ref.nodes[data.draw(st.integers(0, m - 1))]
    for x in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), t - 0.4 * h, t + 0.4 * h):
        assert grid.searchsorted(x) == np.searchsorted(ref.nodes, x), x
        assert node_index(grid, x) == node_index(ref, x), x


def test_a_run_finer_than_its_rounding_is_checked_node_by_node():
    """A dense step of a few ulps of t is checked node by node: at 4 ulps
    the nodes still increase and are linspace's, at half an ulp two of them
    coincide and the grid is refused, as the whole-array check refused it."""
    ts, t0 = real_ray(0), 2.0**30
    u = math.ulp(t0)
    grid = ts.build_grid(t0, t0 + 64 * u, 4 * u)
    assert np.array_equal(grid.nodes, reference_build_grid(ts, t0, t0 + 64 * u, 4 * u).nodes)
    with pytest.raises(InvalidWindow, match="strictly increasing"):
        ts.build_grid(t0, t0 + 8 * u, u / 2)


def test_grid_search_corrects_its_arithmetic_guess():
    """Just above node 9 of [0, 1] at h = 0.1, (x - start) / step rounds to
    exactly 9, so the guess names node 9 itself, which lies below x; the
    search moves on to node 10."""
    grid = real_ray(0).build_grid(0, 1, 0.1)
    x = float(np.nextafter(0.9, 1.0))
    assert grid.nodes_at(9) == 0.9
    assert grid.searchsorted(x) == np.searchsorted(grid.nodes, x) == 10


def test_grid_ranges_have_step_one_and_indices_in_range():
    grid = MIXED.build_grid(0, 6, 0.25)
    with pytest.raises(IndexError):
        grid.nodes_at(slice(0, 8, 2))
    for bad in (len(grid), -len(grid) - 1):
        with pytest.raises(IndexError):
            grid.mu_at(np.array([bad]))
        with pytest.raises(IndexError):
            grid.nodes_at(bad)
    assert grid.nodes_at(-1) == 6.0 and grid.mu_at(-1) == 0.0


def test_a_dense_grid_holds_no_array_as_long_as_itself():
    """Building a grid of a million dense nodes forms none of them, and
    after its whole node array, blocks of nodes and a block's cell weights
    were asked for, the grid holds none of them."""
    tracemalloc.start()
    try:
        grid = real_ray(0).build_grid(0, 1, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
        assert len(grid) == 1000001
        assert len(grid.nodes) == 1000001
        for lo in (0, 500000, 998000):
            grid.nodes_at(slice(lo, lo + 2000))
        calculus._cell_weights(grid, 0, 2000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert held < 1e5


def test_grid_index_and_prefix():
    grid = integer_scale(0).build_grid(0, 4, 0.1)
    assert grid.index_of(3.0) == 3
    with pytest.raises(NodeNotInGrid):
        grid.index_of(2.5)
    sub = grid.prefix(3)
    assert np.array_equal(sub.nodes, [0, 1, 2])
    with pytest.raises(InvalidWindow):
        grid.prefix(0)
    with pytest.raises(InvalidWindow):
        grid.prefix(99)


def test_refinement_keeps_scattered_nodes():
    ts = union(ClosedInterval(0, 1), DiscretePoints((2, 3)), UnboundedRay(5))
    coarse = ts.build_grid(0, 5, 0.5)
    fine = ts.build_grid(0, 5, 0.125)
    coarse_scattered = coarse.nodes[coarse.scattered]
    fine_scattered = fine.nodes[fine.scattered]
    assert set(coarse_scattered) <= set(fine_scattered)


# ---------------------------------------------------------------------------
# large |t|: the rounding slack scales with |t|, tail members come from their
# index


def test_sigma_steps_stay_in_a_decimal_lattice():
    ts, t = integer_scale(0, 0.1), 0.0
    for _ in range(200_000):
        t = ts.sigma(t)
    assert t == 0.1 * 200_000


def test_decimal_lattice_contains_far_members():
    assert integer_scale(0, 0.1).contains(20000.1)
    assert not integer_scale(0, 0.1).contains(20000.15)


FAR_STARTS = st.floats(0.0, 1e9)
TAIL_STEPS = st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0])


@given(FAR_STARTS, TAIL_STEPS, st.integers(0, 10**9))
def test_far_tail_jump_operators_invert_exactly(start, step, k):
    ts = integer_scale(start, step)
    t = start + step * k
    assert ts.contains(t) and ts.snap(t) == t
    assert ts.rho(ts.sigma(t)) == t
    if k >= 1:
        assert ts.sigma(ts.rho(t)) == t


@given(FAR_STARTS, TAIL_STEPS, st.integers(0, 10**9), st.floats(-4.0, 4.0))
def test_far_tail_snap_is_idempotent(start, step, k, ulps):
    ts = integer_scale(start, step)
    t = start + step * k
    near = t + ulps * np.spacing(t)  # t off by a few roundings
    s = ts.snap(near)
    assert s == t and ts.snap(s) == s


@given(FAR_STARTS, TAIL_STEPS, st.integers(0, 10**9), st.integers(1, 50))
def test_far_tail_grid_is_the_index_lattice(start, step, k0, n):
    ts = integer_scale(start, step)
    k1 = k0 + n
    grid = ts.build_grid(start + step * k0, start + step * k1, 0.1)
    assert np.array_equal(grid.nodes, start + step * np.arange(k0, k1 + 1))
    assert np.all(grid.mu == step)


@given(FAR_STARTS, TAIL_STEPS)
def test_far_scale_descriptions_round_trip(start, step):
    ts = union(ClosedInterval(start - 2.0, start - 1.0),
               DiscretePoints((start - 0.5,)), ArithmeticTail(start, step))
    assert parse_timescale(format_timescale(ts)) == ts
    assert timescale_from_structured(timescale_to_structured(ts)) == ts


# ---------------------------------------------------------------------------
# textual and structured descriptions


def test_parse_examples():
    ts = parse_timescale("union(interval(0,1), points(2,3), ray(5))")
    assert ts.segments == (ClosedInterval(0, 1), DiscretePoints((2, 3)),
                           UnboundedRay(5))
    ts2 = parse_timescale("union(points(0), arith(1, 0.5))")
    assert ts2.segments == (DiscretePoints((0,)), ArithmeticTail(1, 0.5))
    ts3 = parse_timescale("arith(0, 1)")
    assert ts3.segments == (ArithmeticTail(0, 1),)
    assert parse_timescale(" ray( -2.5 ) ").a == -2.5
    assert parse_timescale("ray(+1.e1)").a == 10.0
    assert parse_timescale("ray(-01)").a == -1.0  # leading zeros, as float() reads them
    assert parse_timescale("ray(-\uff11.5)").a == -1.5  # a decimal digit outside ASCII
    ts4 = parse_timescale("union(interval(0,\n 1),\tpoints( .5e1 ), arith(6, 1))")
    assert ts4.segments == (ClosedInterval(0, 1), DiscretePoints((5,)), ArithmeticTail(6, 1))


def test_segment_kinds_cover_every_segment_class():
    assert {cls for cls, _ in SEGMENT_KINDS.values()} == set(typing.get_args(Segment))


def test_segments_leave_membership_to_the_scale():
    """TimeScaleSpec decides contains and snap from the floor member, for
    every segment kind alike."""
    for cls in typing.get_args(Segment):
        assert {"contains", "snap", "_index"}.isdisjoint(vars(cls)), cls


@pytest.mark.parametrize(
    "text",
    [
        "",
        "interval(0, 1)",  # valid syntax, bounded scale
        "union(ray(0), points(5))",
        "blob(1)",
        "ray(0) ray(1)",
        "ray(0, 1)",
        "interval(1)",
        "points()",
        "arith(0)",
        "union(interval(0,2), ray(1))",
        "ray(0);",
        "ray(- 1)",  # a sign stands next to its number
        "ray(--1)",
        "ray(-(1))",
        "ray((1))",  # no parentheses beyond the calls'
        "(ray(1))",
        "union((ray(1)))",
        "ray(1,)",  # no trailing comma
        "union(ray(1),)",
        "union(union(ray(1)))",
        "union(ray(start=1))",
        "union(ray(1), tail=2)",
        "ray(1)(2)",
        "ray",
        "union()",
        "ray(2^3)",
        "ray(0x1)",
        "ray(1_0)",
        "ray(1j)",
        "ray(True)",
        "ray('1')",
        "ray(pi)",
        "ray(1) # a comment",
        "ray(\x00)",
        "ray(\uff54)",  # fullwidth t
        "ray(" + "-" * 3000 + "1)",  # nested too deeply for the parser
        "union(" * 300 + ")" * 300,
    ],
)
def test_parse_rejects(text):
    with pytest.raises(DSLParseError):
        parse_timescale(text)


def test_nesting_that_overflows_the_parser_stack_is_refused():
    """Without parentheses, nesting this deep makes Python's parser raise
    MemoryError, not RecursionError; the DSL refuses it all the same."""
    with pytest.raises(DSLParseError, match="nested too deeply"):
        parse_timescale("ray(" + "-" * 10000 + "1)")


@given(st.integers(0, 10_000))
def test_dsl_round_trip(seed):
    ts = random_mixed_scale(np.random.default_rng(seed))
    assert parse_timescale(format_timescale(ts)) == ts
    assert timescale_from_structured(timescale_to_structured(ts)) == ts


def test_structured_rejects_unknown_kind():
    with pytest.raises(DSLParseError):
        timescale_from_structured([{"kind": "spiral", "start": 0}])


@pytest.mark.parametrize(
    "obj",
    [
        [{"kind": "interval", "lo": 0}],  # missing key
        [{"kind": "ray", "start": "zero"}],  # non-numeric value
        [{"kind": "points", "values": 3}, {"kind": "ray", "start": 4}],
        {"kind": "ray", "start": 0},  # a lone mapping, not a list of them
        ["ray(0)"],
        [{"kind": "interval", "lo": 0, "hi": 2}, {"kind": "ray", "start": 1}],  # overlap
    ],
    ids=["missing-key", "non-numeric", "non-list-values", "lone-mapping", "string-item",
         "overlap"],
)
def test_structured_rejects_malformed_segments(obj):
    with pytest.raises(DSLParseError):
        timescale_from_structured(obj)


# ---------------------------------------------------------------------------
# randomized structural invariants


@given(st.integers(0, 10_000))
def test_jump_operator_invariants(seed):
    rng = np.random.default_rng(seed)
    ts = random_mixed_scale(rng)
    for _ in range(5):
        t = random_member(rng, ts)
        s, r, m = ts.sigma(t), ts.rho(t), ts.mu(t)
        assert s >= t and r <= t
        assert ts.contains(s) and ts.contains(r)
        assert abs(m - (s - t)) <= 1e-12
        assert (m > 0) == (s > t)
        assert (ts.mu(t) > 0) == (ts.classify(t).right is Side.SCATTERED)
        assert (r < t) == (ts.classify(t).left is Side.SCATTERED)
        # the jump operators invert each other across actual jumps
        if r < t:
            assert ts.sigma(r) == t
        if s > t:
            assert ts.rho(s) == t


@given(st.integers(0, 10_000))
def test_sigma_rho_compose(seed):
    rng = np.random.default_rng(seed)
    ts = random_mixed_scale(rng)
    t = random_member(rng, ts)
    if ts.mu(t) > 0:
        assert ts.rho(ts.sigma(t)) == t
    else:
        assert ts.sigma(t) == t


@given(st.integers(0, 10_000))
def test_grid_invariants(seed):
    rng = np.random.default_rng(seed)
    ts = random_mixed_scale(rng)
    h = float(rng.choice([0.1, 0.21, 0.05]))
    hi = ts.floor_member(ts.a + float(rng.uniform(1.5, 4.0)))
    grid = ts.build_grid(ts.a, hi, h)

    assert grid.nodes[0] == ts.a and grid.nodes[-1] == hi
    assert np.all(np.diff(grid.nodes) > 0)
    for i, t in enumerate(grid.nodes):
        assert ts.contains(t)
        assert abs(grid.mu[i] - ts.mu(t)) <= 1e-12
        assert grid.scattered[i] == (grid.mu[i] > 0)
    # scattered cells step exactly to sigma; dense cells respect h
    for i in range(len(grid) - 1):
        if grid.scattered[i]:
            assert abs(grid.nodes[i + 1] - ts.sigma(grid.nodes[i])) <= 1e-12
        else:
            assert grid.nodes[i + 1] - grid.nodes[i] <= h * (1 + 1e-9)


def test_empty_point_set_is_refused():
    with pytest.raises(InvalidTimeScale, match="empty point set"):
        TimeScaleSpec((DiscretePoints(()), UnboundedRay(5.0)))
