"""Infinite-horizon variational problems on time scales.

The problem class is

    maximize  int_a^{+inf} L(t, x(sigma(t)), x_delta(t)) dt   over C^1_rd paths
    subject to x(a) = x_a,

with optimality understood in the weak (overtaking-style) sense: x* is
weakly maximal when

    lim_{T -> inf} inf_{T' >= T} int_a^{T'} [L(x) - L(x*)] dt <= 0

for every admissible x.  This module provides the numerical counterparts of
the first-order machinery: Euler-Lagrange residuals, the transversality
lim-inf, difference-quotient diagnostics for the Gateaux derivative, a probe
realizing the bump/point-mass constructions behind the fundamental lemma,
a truncated-horizon direct solver, and a verdict-producing verifier.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .calculus import (
    _HALO,
    GridFunction,
    LimitConfig,
    LimitEstimate,
    LimitKind,
    _block_nodes,
    _call_on_times,
    _cumulative_at,
    _require_finite,
    _shifts,
    _slopes,
    classify_limit,
)
from .errors import (
    BoundaryUndefined,
    DimensionMismatch,
    GridTooSmall,
    InadmissiblePath,
    InadmissibleVariation,
    InsufficientHorizons,
    InvalidWindow,
    NonFiniteObjective,
    NotInTimeScale,
    PartialsMismatch,
    ProbeFailed,
    ZeroEpsilon,
)
from .timescale import SampleGrid, TimeScaleSpec, tol_at

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# Lagrangians, problems, sampled paths


def _row_loop(fn):
    """A scalar (t, u, v) callable as one on all rows: a call per row, each
    result squeezed of its unit axes."""
    return lambda t, u, v: np.array(
        [np.squeeze(fn(float(t[i]), u[i], v[i])) for i in range(len(t))], dtype=float)


def _probe_points(n):
    """Three generic rows (t, u, v) for the construction-time probes."""
    rng = np.random.default_rng(20240901)
    return np.array([0.0, 0.7, 1.3]), rng.standard_normal((3, n)), rng.standard_normal((3, n))


def _vectorized_partial(fn, n):
    """A vectorized partial as one with a result per row, decided once from
    its result shapes on two and on three probe rows.  The same shape on
    both is a constant gradient, broadcast to every row.  A per-row result
    that is not (m, n) (nor, for n = 1, m entries) is refused on every
    call: (n, m), say, has the shape of (m, n) where m = n."""
    t, u, v = _probe_points(n)
    with np.errstate(all="ignore"):
        shapes = [np.shape(fn(t[:k], u[:k], v[:k])) for k in (2, 3)]
    if shapes[0] == shapes[1]:
        return _constant_rows(fn, n)
    if all(s == (k, n) or n == 1 and np.prod(s) == k for k, s in zip((2, 3), shapes)):
        return fn
    return _misshapen(fn, n)


def _constant_rows(fn, n):
    """A vectorized partial that returns one (n,) gradient as one on all
    rows."""
    def rows(t, u, v):
        out = np.asarray(fn(t, u, v), dtype=float)
        if out.shape != (n,):
            raise DimensionMismatch(f"constant partial shape {out.shape}, expected {(n,)}")
        return np.tile(out, (len(t), 1))
    return rows


def _misshapen(fn, n):
    """A vectorized partial whose per-row results are not (m, n), refused."""
    def refuse(t, u, v):
        raise DimensionMismatch(f"partial shape {np.shape(fn(t, u, v))}, expected "
                                f"{(len(t), n)}; on the probe rows it was not (rows, {n})")
    return refuse


@dataclass
class Lagrangian:
    """Integrand L(t, u, v) with u = x(sigma(t)) and v = x_delta(t) in R^n.

    With ``vectorized`` set, ``eval`` and the partial gradients ``d2`` (in
    u) and ``d3`` (in v) take all rows at once, t: (m,), u, v: (m, n).
    ``eval`` returns (m,) or a constant (); ``d2``/``d3`` return (m, n) or,
    for n = 1, any array of m entries, or a constant (n,).  Which of these
    a partial returns is decided once, at construction, from its result
    shapes on two and on three probe rows (also with ``validate`` off),
    never from the shape of one call: with m = n, (n,) and (m,) share a
    shape, and so do (m, n) and (n, m).  Any other shape raises
    DimensionMismatch.  Without ``vectorized`` they take one row, t
    a float and u, v of length n, and are wrapped once, at construction,
    into a loop over the rows; a row's result may carry extra unit axes.
    Omitted partials fall back to central finite differences with step
    fd_step * (1 + |argument|).  Supplied partials are cross-checked against
    finite differences on a few probe points at construction time.
    """

    n: int
    eval: Callable
    d2: Optional[Callable] = None
    d3: Optional[Callable] = None
    fd_step: float = 1e-6
    vectorized: bool = False
    validate: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("state dimension must be >= 1")
        self._eval = self.eval if self.vectorized else _row_loop(self.eval)
        self._d2, self._d3 = (
            fn if fn is None else _vectorized_partial(fn, self.n) if self.vectorized
            else _row_loop(fn) for fn in (self.d2, self.d3))
        if self.validate and (self.d2 is not None or self.d3 is not None):
            self._validate_partials()

    # -- evaluation ----------------------------------------------------------

    def values(self, t, u, v):
        """L at each row; t: (m,), u, v: (m, n) -> (m,).  The result may be
        the integrand's own array (it is copied only to broadcast a constant
        or to convert to float): a caller that keeps it copies it, and one
        that writes writes into its own buffer."""
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._eval(t, u, v), dtype=float)
        if out.shape == ():
            return np.full(t.shape, out)
        if out.shape != t.shape:
            raise DimensionMismatch(f"integrand shape {out.shape}, expected {t.shape} or ()")
        return out

    def _grad(self, fn, t, u, v):
        t = np.asarray(t, dtype=float)
        m, n = len(t), self.n
        out = np.asarray(fn(t, u, v), dtype=float)
        if n == 1 and out.size == m:
            out = out.reshape(m, 1)
        if out.shape != (m, n):
            raise DimensionMismatch(f"partial shape {out.shape}, expected {(m, n)}")
        return out

    def _fd_grad(self, t, u, v, wrt):
        base = u if wrt == 2 else v
        out = np.empty((len(np.atleast_1d(t)), self.n))
        moved = base.copy()  # base with its column j moved by +-delta

        def at_moved():
            return self.values(t, moved, v) if wrt == 2 else self.values(t, u, moved)

        # nonfinite quotients (e.g. from an integrand that blows up) are
        # propagated as-is; callers check finiteness where it matters.  L
        # at the upper point is copied into ``out`` before L at the lower
        # one is formed: the integrand may hand back one array for both
        with np.errstate(all="ignore"):
            for j in range(self.n):
                delta = self.fd_step * (1.0 + np.abs(base[:, j]))
                quotient = out[:, j]
                np.add(base[:, j], delta, out=moved[:, j])
                quotient[...] = at_moved()
                np.subtract(base[:, j], delta, out=moved[:, j])
                quotient -= at_moved()
                delta *= 2.0
                quotient /= delta
                moved[:, j] = base[:, j]
        return out

    def partial2(self, t, u, v):
        """Gradient of L in its second argument, rowwise; (m, n)."""
        if self._d2 is not None:
            return self._grad(self._d2, t, u, v)
        return self._fd_grad(t, u, v, wrt=2)

    def partial3(self, t, u, v):
        """Gradient of L in its third argument, rowwise; (m, n)."""
        if self._d3 is not None:
            return self._grad(self._d3, t, u, v)
        return self._fd_grad(t, u, v, wrt=3)

    # -- construction-time check ---------------------------------------------

    def _validate_partials(self):
        """Refuse a supplied d2 or d3 that differs from central differences
        on the probe points by more than 1e-4 * (1 + |analytic|) plus the
        differences' rounding, 2 eps |L| / delta (eps = 2**-52, delta the
        step of the argument moved): with each value of L off by up to
        2 eps |L|, the quotient (L(+delta) - L(-delta)) / (2 delta) is off
        by up to that much.  Without it a large constant in L, 1e7 say,
        gets exact partials refused."""
        t, u, v = _probe_points(self.n)
        try:
            base = self.values(t, u, v)
        except Exception:
            return  # integrand not evaluable on generic probes; skip the check
        if not np.all(np.isfinite(base)):
            return
        for name, fn, wrt in (("d2", self._d2, 2), ("d3", self._d3, 3)):
            if fn is None:
                continue
            analytic = self._grad(fn, t, u, v)
            fd = self._fd_grad(t, u, v, wrt)
            err = np.abs(analytic - fd)
            delta = self.fd_step * (1.0 + np.abs(u if wrt == 2 else v))
            rounding = 2.0 * np.finfo(float).eps * np.abs(base)[:, None] / delta
            bound = 1e-4 * (1.0 + np.abs(analytic)) + rounding
            if not np.all(err <= bound):
                worst = float(np.max(err - bound))
                raise PartialsMismatch(
                    f"{name} disagrees with finite differences on probe points "
                    f"(worst excess {worst:.3e})"
                )


@dataclass(frozen=True)
class Problem:
    """An infinite-horizon problem: scale, start, initial state, integrand."""

    ts: TimeScaleSpec
    a: float
    x_a: np.ndarray
    lagrangian: Lagrangian

    def __post_init__(self):
        xa = np.atleast_1d(np.asarray(self.x_a, dtype=float))
        xa.setflags(write=False)
        object.__setattr__(self, "x_a", xa)
        if xa.shape != (self.lagrangian.n,):
            raise DimensionMismatch(
                f"x_a has shape {xa.shape}, expected ({self.lagrangian.n},)"
            )
        if not self.ts.contains(self.a):
            raise NotInTimeScale(f"start {self.a!r} is not in the time scale")
        if abs(self.ts.snap(self.a) - self.ts.a) > 0:
            raise InvalidWindow("the problem must start at the smallest element")

    @property
    def n(self):
        return self.lagrangian.n


class SampledPath:
    """A path, or with ``variation`` a variation, of ``problem`` sampled on
    one grid: the samples ``x`` (a GridFunction on ``grid``) and the length
    ``K`` of the prefix where its sigma-shift and slope are defined.  A
    path must start at a with x(a) = x_a, a variation must have p(a) = 0.
    The first-order operations take one in place of a generator and read
    these samples instead of sampling again: the sweep (_sweep) reads them
    a block at a time, by slices, and takes their shifts and slopes there,
    and transversality_term at one node and its _HALO.  ``Trajectory``
    names the same class."""

    def __init__(self, problem, x, *, variation=False):
        if x.dim != problem.n:
            raise DimensionMismatch("path dimension does not match the problem")
        if variation:
            _check_vanishes_at_start(x.values[0])
        else:
            _check_starts_at_a(problem, x.grid)
            _check_x_a(problem, x.values[0])
        self.problem, self.x, self.grid, self.variation = problem, x, x.grid, variation

    @classmethod
    def of(cls, problem, x, grid=None, *, variation=False):
        """``x`` as a path (or variation) of ``problem`` on ``grid``: a
        SampledPath of the same problem, grid and ``variation`` flag is
        reused, another keeps its samples, a GridFunction is wrapped and a
        generator is sampled on ``grid``."""
        if isinstance(x, cls):
            same = x.problem is problem and x.variation == variation
            if same and (grid is None or grid is x.grid):
                return x
            x = x.x
        elif callable(x) and grid is not None:
            x = GridFunction.from_callable(grid, x, dim=problem.n)
        if not isinstance(x, GridFunction):
            raise DimensionMismatch("expected a GridFunction or SampledPath")
        if grid is not None and x.grid is not grid:
            raise DimensionMismatch("the path is sampled on another grid")
        return cls(problem, x, variation=variation)

    @cached_property
    def K(self):
        return _defined_prefix(self.grid, self.x.sigma_last is not None)


def _defined_prefix(grid, extended):
    """The number K of nodes at the start of ``grid`` where a path sampled
    on it has its sigma-shift and slope: every node but the last, which
    has them too when it is right-scattered and the path is ``extended``
    by its value at sigma of that node; GridTooSmall when K = 0."""
    m = len(grid)
    K = m if extended and grid.scattered_at(m - 1) else m - 1
    if K < 1:
        raise GridTooSmall("no prefix of the grid has sigma-shift and slope defined")
    return K


def _check_starts_at_a(problem, grid):
    """Refuse a path's grid that does not start at a (InadmissiblePath)."""
    if abs(grid.window[0] - problem.a) > tol_at(problem.a):
        raise InadmissiblePath("trajectory grid must start at a")


def _check_x_a(problem, x_a):
    """Refuse a path whose value x(a) is not x_a (InadmissiblePath)."""
    if np.any(np.abs(x_a - problem.x_a) > tol_at(problem.x_a)):
        raise InadmissiblePath(f"x(a) = {x_a} but x_a = {problem.x_a}")


Trajectory = SampledPath


def _check_vanishes_at_start(p_a):
    """Refuse a variation whose value p(a) is not 0 (InadmissibleVariation)."""
    if np.max(np.abs(p_a)) > tol_at(0.0):
        raise InadmissibleVariation("variations must vanish at the left endpoint")


def sample_trajectory(problem, gen, t_end, h):
    """Sample a generator t -> x(t) into a path on [a, t_end]."""
    grid = problem.ts.build_grid(problem.a, t_end, h)
    return SampledPath(problem, GridFunction.from_callable(grid, gen, dim=problem.n))


# ---------------------------------------------------------------------------
# Euler-Lagrange residual and transversality


def el_residual(problem, x):
    """Residual of delta[dL/dv] = dL/du along a sampled path in integral
    (du Bois-Reymond) form, r(t) = d3(t) - d3(a) - int_a^t d2, with the
    partial rows at (t, x_sigma(t), x_delta(t)).  ``x`` is a SampledPath or
    GridFunction; r lives on the prefix of its grid where the sigma-shift
    and slope are defined.  It reads the slope of x once: differencing the
    d3 row again would divide its rounding by h twice.

    r is formed block by block (_Residual) and collected: beside the
    path's samples, only r is held at full length.
    """
    path = SampledPath.of(problem, x)
    r = np.empty((path.K, problem.n))

    def collect(i, block):
        r[i : i + len(block)] = block

    _residual_blocks(problem, path.grid, path, collect)
    return GridFunction(path.grid.prefix(path.K), r)


def _residual_blocks(problem, grid, x, consume):
    """el_residual's r along the path ``x`` on ``grid`` (a SampledPath, or
    a generator, sampled block by block), handed on block by block as
    consume(i, r) (_Residual): the sweep (_sweep) with that one consumer."""
    _sweep(problem, grid, _source(problem, x, grid), (), [_Residual(problem, consume)])


def el_sup_norm(problem, x):
    """max |r| of el_residual's r along ``x``, kept block by block."""
    path = SampledPath.of(problem, x)
    sups = []
    _residual_blocks(problem, path.grid, path,
                     lambda i, block: sups.append(float(np.max(np.abs(block)))))
    return max(sups)


def transversality_term(problem, x, t_prime):
    """dL/dv (T', x_sigma(T'), x_delta(T')) . x(T') at a grid node T' of a
    SampledPath or GridFunction ``x``, from its shift and slope at that
    node alone, read from the samples there and _HALO each side."""
    path = SampledPath.of(problem, x)
    grid, i = path.grid, path.grid.index_of(t_prime)
    if i >= path.K:
        raise BoundaryUndefined(f"slope undefined at T'={t_prime!r}")
    i0 = max(i - _HALO, 0)
    v, last = path.x.values[i0 : i + _HALO + 1], path.x.sigma_last
    xs, xd = _shifts(grid, v, i0, i, i, last)[0], _slopes(grid, v, i0, i, i, last)[0]
    p3 = problem.lagrangian.partial3(grid.nodes_at(slice(i, i + 1)), xs, xd)[0]
    return float(np.dot(p3, path.x.values[i]))


# ---------------------------------------------------------------------------
# horizon plans


@dataclass(frozen=True)
class HorizonPlan:
    """A shared fine grid plus the horizon nodes T' and tail starts used by
    the lim-inf style estimates.  Horizons are actual grid nodes; scattered
    points are all kept, continuous stretches are subsampled."""

    grid: SampleGrid
    horizon_idx: np.ndarray
    tail_values: np.ndarray

    @cached_property
    def horizons(self):
        """The horizon nodes T', gathered once and read-only."""
        return self.grid.nodes_at(self.horizon_idx)

    @cached_property
    def tail_pos(self):
        """The positions of the tail starts among the horizons, found once."""
        return _tail_positions(self.horizons, self.tail_values)


def _slope_margin_grid(ts, a, t, h):
    """Grid from a to the last member at or below t plus three sampling
    steps, so that every node up to that member keeps a defined slope."""
    t_hi = ts.floor_member(t)
    for _ in range(3):
        t_hi = ts.advance(t_hi, h)
    return ts.build_grid(a, t_hi, h)


def _horizon_idx(grid, i_end, horizon_count, min_window):
    """Horizon node indices among the nodes 1..i_end of ``grid``: every
    scattered node, every stride-th dense one and i_end; all of 1..i_end
    when that leaves fewer than ``min_window``.  The dense nodes are read
    from the grid's dense runs (the nodes s..e-1 of a run (s, e), and the
    last node, which opens no cell, when it is dense), so that no array as
    long as the grid is formed."""
    dense = [(max(s, 1), min(e, i_end + 1)) for s, e in grid.dense_runs]
    if i_end == len(grid) - 1 and not grid.scattered_at(i_end):
        dense.append((i_end, i_end + 1))
    dense = [(s, e) for s, e in dense if s < e]
    stride = max(1, sum(e - s for s, e in dense) // max(1, horizon_count))
    # in order: the scattered nodes before each run, the run's picks, the
    # scattered nodes after the last run, and i_end unless it is there
    parts, rank, gap = [], 0, 1
    for s, e in dense:
        parts += [np.arange(gap, s), np.arange(s + (-rank % stride), e, stride)]
        rank, gap = rank + e - s, e
    parts.append(np.arange(gap, i_end + 1))
    idx = np.concatenate(parts) if len(parts) > 1 else parts[0]
    if not len(idx) or idx[-1] != i_end:
        idx = np.append(idx, i_end)
    return idx if len(idx) >= min_window else np.arange(1, i_end + 1)


def make_horizon_plan(ts, a, t_max, *, h, horizon_count=60, n_tails=10,
                      min_window=5):
    """Build the grid/horizon/tail layout for sweeps up to t_max."""
    t_end = ts.floor_member(t_max)
    if not t_end > a:
        raise InvalidWindow("t_max must leave room beyond the start")
    grid = _slope_margin_grid(ts, a, t_max, h)
    i_end = grid.searchsorted(t_end + tol_at(t_end)) - 1
    idx = _horizon_idx(grid, i_end, horizon_count, min_window)
    n_tails = max(n_tails, min_window)
    pos = np.unique(np.linspace(0, max(len(idx) - 3, 0), n_tails).round().astype(int))
    if len(pos) < min_window:
        raise InsufficientHorizons(f"only {len(pos)} tail starts, need {min_window}")
    tails = grid.nodes_at(idx[pos])
    return HorizonPlan(grid=grid, horizon_idx=idx, tail_values=tails)


# ---------------------------------------------------------------------------
# lim-inf over tails


def liminf_over_tails(values, tail_starts, config=LimitConfig()):
    """Estimate lim_{T -> inf} inf_{T' >= T} v(T') from samples.

    ``values`` are (T', v) pairs, a list or a (k, 2) array, with strictly
    increasing T'; ``tail_starts`` must be among the sampled T'.  Two-stage
    classification: the running minimum over growing windows detects a drift
    to -infinity (an infimum over an unbounded tail never recovers),
    otherwise the sequence of tail infima is classified like a
    partial-integral sequence.

    Both stages read only a few statistics of v (_TailStats): its minima
    between consecutive tail starts, its values at them and its maximum.
    They are computed here from the whole array, as one block; verify and
    weak_max_compare fold the same statistics block by block from their
    sweep and classify them with the same rules.
    """
    T, V = np.asarray(values, dtype=float).reshape(len(values), 2).T
    if len(T) < config.window:
        raise InsufficientHorizons("too few sampled horizons")
    if not np.all(np.diff(T) > 0):
        raise InsufficientHorizons("horizons must be strictly increasing")
    tails = np.asarray(sorted(float(t) for t in tail_starts))
    if len(tails) < config.window:
        raise InsufficientHorizons(
            f"need at least {config.window} tail starts, got {len(tails)}"
        )
    stats = _TailStats(T, tails, _tail_positions(T, tails))
    return stats.classify(stats.of(V), config)


def _tail_positions(T, tails):
    """The positions of the sorted ``tails`` among the horizons T;
    InsufficientHorizons when one is not among them."""
    pos = np.searchsorted(T, tails - tol_at(tails))
    if np.any(pos >= len(T)) or np.any(np.abs(T[pos] - tails) > tol_at(tails)):
        raise InsufficientHorizons("tail starts must be among the sampled horizons")
    return pos


class _TailStats:
    """The statistics of sequences v at the horizons T from which their
    lim-infs over the tails from ``tails`` (at the positions ``pos`` of T)
    and their Gateaux table at the positions ``marks`` are read.  The cuts
    0, each p and p + 1 of pos and of marks split the positions into
    segments; a row of statistics holds the minimum of v on each segment,
    twice, then the maximum of v.  The running minimum up to a tail start,
    the infimum of a tail and the value at a mark are each a minimum over
    whole segments, and min and max are exact, so a row folded block by
    block (_sweep) equals one formed from the whole array at
    once (liminf_over_tails).

    The minima are kept twice because 0.0 equals -0.0, and a scan keeps
    the later of two equal values: the first copy holds the last zero of
    its segment, as the running minimum (a forward scan) reaches it, the
    second the first zero, as the tail infimum (a backward scan) does."""

    def __init__(self, T, tails, pos, marks=()):
        pos, marks = (np.asarray(p, dtype=np.intp) for p in (pos, marks))
        cuts = np.unique(np.concatenate(([0], pos, pos + 1, marks, marks + 1)))
        self.T, self.tails, self.marks = T, tails, marks
        self.cuts = cuts[cuts < len(T)]
        self.cut_list = self.cuts.tolist()  # for bisect, on every fold
        # stage 1's cutoffs: the tail starts and the last horizon
        cutoffs = pos if pos[-1] == len(T) - 1 else np.append(pos, len(T) - 1)
        self.cut_T = T[cutoffs]
        self.run_at = np.searchsorted(self.cuts, cutoffs, side="right") - 1
        self.tail_at = np.searchsorted(self.cuts, pos)
        self.mark_at = np.searchsorted(self.cuts, marks)

    @classmethod
    def of_plan(cls, plan, marks=()):
        """The statistics of sequences at the plan's horizons."""
        return cls(plan.horizons, plan.tail_values, plan.tail_pos, marks)

    def empty(self, k):
        """k rows of statistics of no values yet."""
        out = np.full((k, 2 * len(self.cuts) + 1), np.inf)
        out[:, -1] = -np.inf
        return out

    def of(self, values):
        """The statistics row of the whole sequence ``values``."""
        rows = self.empty(1)
        self.fold(rows, 0, values[None])
        return rows[0]

    def fold(self, rows, j, vals):
        """Fold the values ``vals``, a row for each of the statistics
        ``rows``, at the positions j, j + 1, ... into them; blocks are
        folded in order."""
        m, n = vals.shape[1], len(self.cuts)
        first = bisect_right(self.cut_list, j) - 1
        last = bisect_right(self.cut_list, j + m - 1) - 1
        starts = self.cuts[first : last + 1] - j
        starts[0] = 0
        later = np.minimum.reduceat(vals, starts, axis=1)
        earlier = later
        if np.count_nonzero(later) < later.size:  # a zero minimum: the reduction keeps either sign
            earlier = later.copy()
            ends = np.append(starts[1:], m)
            for r, i in zip(*np.nonzero(later == 0)):
                zeros = np.flatnonzero(vals[r, starts[i] : ends[i]] == 0) + starts[i]
                later[r, i], earlier[r, i] = vals[r, zeros[-1]], vals[r, zeros[0]]
        fwd, bwd = rows[:, first : last + 1], rows[:, n + first : n + last + 1]
        np.minimum(fwd, later, out=fwd)
        np.minimum(earlier, bwd, out=bwd)
        np.maximum(rows[:, -1], vals.max(axis=1), out=rows[:, -1])

    def scans(self, rows):
        """The running minima of the segments of ``rows`` (along the last
        axis), and their suffix minima."""
        n = len(self.cuts)
        run = np.minimum.accumulate(rows[..., :n], axis=-1)
        suffix = np.minimum.accumulate(rows[..., n : 2 * n][..., ::-1], axis=-1)[..., ::-1]
        return run, suffix

    def classify(self, row, config):
        """The lim-inf estimate of the sequence with the statistics ``row``,
        by liminf_over_tails' two stages."""
        run, suffix = self.scans(row)
        # stage 1: running minima over growing windows
        cut_T, Q = self.cut_T, run[self.run_at]
        scale = float(np.maximum(row[-1], -run[-1]))  # max |v|
        significant = max(config.abs_floor, config.rel_tol * max(1.0, scale))
        decline = float(Q[0] - Q[-1])
        if decline > significant and len(Q) >= 3:
            if Q[-1] < -config.div_threshold:
                return LimitEstimate(
                    LimitKind.DIVERGES_MINUS, evidence=tuple(zip(cut_T, Q))
                )
            mid = len(Q) // 2
            span1, span2 = cut_T[mid] - cut_T[0], cut_T[-1] - cut_T[mid]
            if span1 > 0 and span2 > 0:
                rate1 = (Q[mid] - Q[0]) / span1
                rate2 = (Q[-1] - Q[mid]) / span2
                if rate1 < 0 and rate2 <= config.rate_keep * rate1:
                    return LimitEstimate(
                        LimitKind.DIVERGES_MINUS, evidence=tuple(zip(cut_T, Q))
                    )

        # stage 2: infima over the sampled tails
        return classify_limit(list(zip(self.tails, suffix[self.tail_at])), config)


def _source(problem, x, grid, *, variation=False):
    """``x`` as the sweep reads it on ``grid``: a generator is kept, to be
    sampled block by block (_samples), anything else is SampledPath.of on
    the grid, whose samples are read by slices."""
    if not callable(x):
        return SampledPath.of(problem, x, grid, variation=variation)
    if not variation:
        _check_starts_at_a(problem, grid)
    return x


def _on_plan(problem, x, plan, *, variation=False):
    """_source on the plan's grid; every horizon needs a slope, which a
    path generator has up to the grid's right-scattered last node (it is
    extended past it) and a variation generator up to the node before."""
    x = _source(problem, x, plan.grid, variation=variation)
    K = _defined_prefix(plan.grid, not variation) if callable(x) else x.K
    if plan.horizon_idx[-1] > K - 1:
        raise BoundaryUndefined("horizon nodes exceed the defined-slope prefix")
    return x


def _samples(problem, x, t, i0, *, variation=False):
    """The samples of ``x`` (a _source) at the nodes ``t``, the nodes i0,
    i0 + 1, ... of its grid: a held path's rows, as a slice, or the values
    of a generator, checked as SampledPath.of checks a sampled path or
    variation: finite, of the problem's dimension and, at a, x_a or 0."""
    if not callable(x):
        return x.x.values[i0 : i0 + len(t)]
    vals = _call_on_times(x, t, problem.n)
    _require_finite(vals)
    if i0 == 0:
        if variation:
            _check_vanishes_at_start(vals[0])
        else:
            _check_x_a(problem, vals[0])
    return vals


def _sigma_last(problem, x, grid):
    """The value of ``x`` (a _source) at sigma of ``grid``'s last node: a
    held path's or variation's sigma_last, or a path generator's value
    there, checked as GridFunction checks it."""
    if not callable(x):
        return x.x.sigma_last
    last = len(grid) - 1
    vals = _call_on_times(x, np.array([grid.nodes_at(last) + grid.mu_at(last)]), problem.n)
    if not np.all(np.isfinite(vals)):
        raise DimensionMismatch("sigma_last must be a finite vector of length n")
    return vals[0]


class _Consumer:
    """A consumer of the sweep (_sweep).  rows(b) reads the block b (a
    _Block): x*'s rows, those of the sources ``reads``, (x, eps) pairs of
    a competitor path (eps None) or a variation, and x*'s d2/d3 rows,
    ``halo`` nodes more each side, and, with ``samples``, x*'s samples at
    the horizons.  It returns its ``count`` rows there, reduced at
    ``every`` node of x*'s prefix or at the horizons and handed on as
    put(r, j, vals), as _cumulative_at hands them on."""

    count, every, reads, halo, put, samples = 0, False, (), 0, None, False


class _Block:
    """The block lo..hi of a sweep (_sweep) as its consumers read it: its
    nodes ``t``; x*'s shift and slope ``xs``, ``xd`` and a (shift, slope)
    pair per source (``sources``) there; ``shift`` and ``slope``, all
    columns, at the nodes ``t_wide`` from w0, the block and the widest
    halo (``own``, the block's rows); its horizons ``hz`` (positions, a
    slice for a run, or None; idx[j0] the first), x*'s samples there for
    a consumer of ``samples`` (``x_hz``) and every column's at hi
    (``v_hi``); with a halo, the ``prefix`` of the grid where every column
    has its slope.  The pass's ``scratch`` holds a consumer's rows until
    they are reduced; one that forms x*'s d3 rows keeps them as ``d3`` for
    the next."""

    def __init__(self, problem, size, prefix):
        self.lag, self.n, self.prefix = problem.lagrangian, problem.n, prefix
        uv = np.empty((2, size * self.n))
        self.scratch = uv[0].reshape(size, self.n), uv[1].reshape(size, self.n), np.empty(size)

    def partial(self, k):
        """x*'s d2 (k = 2) or d3 rows at the nodes t_wide."""
        fn = self.lag.partial2 if k == 2 else self.lag.partial3
        return fn(self.t_wide, self.shift[:, : self.n], self.slope[:, : self.n])


def _sweep(problem, grid, star, idx, consumers):
    """One pass over ``grid`` that feeds every first-order diagnostic of
    the path ``star`` of x* (a _source) on it, the ``consumers``
    (_Consumer): the blocks of calculus._blocks of the strictly increasing
    horizon indices ``idx``, then, with a consumer at every node, blocks
    on to the end of x*'s defined prefix.

    Each block's nodes, with the _HALO each side that its slopes read and
    the consumers' halo, and its cell weights are formed once (by
    calculus._cumulative_at).  x* and, below the last horizon, every
    source are sampled on them side by side -- a held path read as a
    slice, a generator called on the nodes, a path generator also at sigma
    of a right-scattered last node, as sampling it whole extends it -- and
    their shifts and slopes taken in one calculus._shifts and one
    calculus._slopes call.  Each consumer then reads the block (_Block), in
    order.  _cumulative_at reduces the rows of the one consumer at every
    node by its running sum, which carries each column's sum from block to
    block exactly, so that no block size changes a bit of them, and those
    of the one other consumer of rows at the horizons, whose values are
    returned when it has no put.  Nothing is held at full length but the
    samples of held paths."""
    n, m = problem.n, len(grid)
    K = _defined_prefix(grid, True) if callable(star) else star.K
    idx = np.asarray(idx, dtype=np.intp)
    h_end = int(idx[-1]) if len(idx) else 0  # the blocks below it hold horizons
    every = next((c for c in consumers if c.every), None)
    at_hz = next((c for c in consumers if c.count and not c.every), _Consumer)
    sources = [s for c in consumers for s in c.reads]
    wide, samples = max(c.halo for c in consumers), any(c.samples for c in consumers)
    # where x* and every source have shift and slope (_on_plan)
    end = min([K] + [_defined_prefix(grid, eps is None) if callable(x) else x.K
                     for x, eps in sources])
    size = _block_nodes(idx, K - 1 if every else 0)
    b, spare = _Block(problem, size, grid.prefix(end) if wide else None), np.empty(size)
    # the block's samples: x*'s columns, then each source's, each column
    # contiguous, as the rows formed from them read it
    v_all = (np.empty((size + 2 * (_HALO + wide), n * (1 + len(sources))), order="F")
             if sources else None)

    def rows_at(lo, hi, t):
        # the last block's arrays, freed before this one's are formed
        b.t = b.shift = b.slope = b.xs = b.xd = b.sources = None
        i0, live = max(lo - _HALO - wide, 0), sources if lo < h_end else ()
        v = _samples(problem, star, t, i0)
        if live:  # side by side in the pass's buffer, each written as it is sampled
            v_all[: len(t), :n] = v
            v = v_all[: len(t)]
            for c, (x, eps) in enumerate(live, start=1):
                v[:, c * n : (c + 1) * n] = _samples(problem, x, t, i0,
                                                   variation=eps is not None)
        w0, w1 = max(lo - wide, 0), max(hi, min(hi + wide, end - 1))
        # paths are extended past a right-scattered last node, variation
        # generators are not
        last = None
        if w1 == m - 1 and grid.scattered_at(w1):
            lasts = [None if eps is not None and callable(x) else _sigma_last(problem, x, grid)
                     for x, eps in [(star, None), *live]]
            if all(sl is not None for sl in lasts):
                last = np.concatenate(lasts)
        slope, def_d = _slopes(grid, v, i0, w0, w1, last, t=t)
        b.j0 = np.searchsorted(idx, lo, side="right") if lo else 0
        hz = idx[b.j0 : np.searchsorted(idx, hi, side="right")] - lo
        if lo >= h_end or not len(hz):
            hz = None
        elif hz[-1] - hz[0] == len(hz) - 1:  # a run of nodes, read as a slice
            hz = slice(hz[0], hz[-1] + 1)
        own = v[lo - i0 : hi + 1 - i0]
        b.x_hz = own[hz, :n].copy() if samples and hz is not None else None
        b.v_hi = own[-1].copy()
        # samples in the pass's buffer are not read again: their shifts take
        # their place
        shift, def_s = _shifts(grid, v, i0, w0, w1, last, in_place=bool(live))
        if not (def_s[hi - w0] and def_d[hi - w0]):
            raise BoundaryUndefined("horizon nodes exceed the defined-slope prefix")
        b.lo, b.hi, b.hz, b.w0, b.own = lo, hi, hz, w0, slice(lo - w0, hi + 1 - w0)
        b.t, b.t_wide = t[lo - i0 : hi + 1 - i0], t[w0 - i0 : w1 + 1 - i0]
        b.shift, b.slope, b.d3 = shift, slope, None
        cols = [(shift[b.own, c : c + n], slope[b.own, c : c + n])
                for c in range(0, shift.shape[1], n)]
        (b.xs, b.xd), b.sources = cols[0], cols[1:]
        rows = [c.rows(b) for c in consumers]
        b.d3 = b.x_hz = None  # read by the consumers above only
        return itertools.chain.from_iterable(rows), spare

    if every is not None and K == 1:  # no cell: the rows at a alone
        rows_at(0, 0, grid.nodes_at(slice(0, min(_HALO + wide, m - 1) + 1)))
    return _cumulative_at(grid, idx, at_hz.count, rows_at, at_hz.put,
                          every and (every.count, K, every.put), _HALO + wide)


class _Residual(_Consumer):
    """el_residual's r = (d3 - d3(a)) - int_a d2, its d2 rows reduced at
    every node, handed on as consume(i, r): r at the nodes i, i + 1, ...,
    in a buffer overwritten once the call returns; in order, the blocks
    cover x*'s prefix once.  A block's r is checked finite, as GridFunction
    checks values (EvaluationError), before it is handed on."""

    every = True

    def __init__(self, problem, consume):
        self.count, self.consume, self.d3_a = problem.n, consume, np.empty(problem.n)

    def rows(self, b):
        out = b.scratch[0].reshape(self.count, -1)[:, : len(b.t)]
        out[...] = b.partial(2).T  # a copy: the reducer overwrites it
        b.d3 = d3 = b.partial(3)
        self.res = b.scratch[1]
        if b.lo == 0:
            self.d3_a[...] = d3[0]
        np.subtract(d3, self.d3_a, out=self.res[: len(d3)])
        if b.hi == 0:  # no cell: r(a) alone
            self.emit(0, 0)
        return out

    def put(self, c, j, vals):
        # the integral of column c at the nodes j, j + 1, ..., the rows
        # 1, 2, ... of the block's r; r(a) is 0, and final
        self.res[1 : vals.shape[1] + 1, c] -= vals[0]
        if c == self.count - 1:
            self.emit(j - 1, vals.shape[1])

    def emit(self, lo, mb):
        first = 0 if lo == 0 else 1  # a later block's node lo is the last one's hi
        block = self.res[first : mb + 1]
        _require_finite(block)
        self.consume(lo + first, block)


class _Transversality(_Consumer):
    """The transversality term d3 . x at the horizons, handed on as
    hand(j, terms): the terms at idx[j], idx[j + 1], ..., in order."""

    samples = True

    def __init__(self, hand):
        self.hand = hand

    def rows(self, b):
        if b.hz is not None:  # d3 where a consumer before formed it, else at hz alone
            d3 = b.d3[b.hz] if b.d3 is not None else b.lag.partial3(b.t[b.hz], b.xs[b.hz],
                                                                    b.xd[b.hz])
            self.hand(b.j0, np.einsum("ij,ij->i", d3, b.x_hz))
        return ()


class _Competitors(_Consumer):
    """The rows L(x) - L(x*) of the competitors ``comps``: a path x, or x =
    x* + e p for a variation p and each e of its eps.  With the _TailStats
    ``stats`` of the horizons, their values are folded into ``out``, a row
    of statistics each.  Where p's shift and slope are all 0 on a block,
    its rows are 0 and the integrand is not called (compact_bump's p
    vanishes on four fifths of the span).  The rows are formed one at a
    time; x*'s L row at the first that needs it, into a buffer of its own,
    as the integrand may hand back an array it reuses."""

    def __init__(self, problem, comps, stats=None):
        self.lag, self.reads = problem.lagrangian, tuple(comps)
        self.count = sum(1 if eps is None else len(eps) for _, eps in comps)
        if stats is not None:
            self.out = out = stats.empty(self.count)
            self.put = lambda r, j, vals: stats.fold(out[r : r + len(vals)], j, vals)

    def rows(self, b):
        lag, t, xs, xd, l_star = self.lag, b.t, b.xs, b.xd, None
        u_buf, v_buf, l_buf = b.scratch
        d = u_buf.reshape(-1)[: len(t)]  # a row is written over u once the integrand has read it
        for (_, eps), (ps, pd) in zip(self.reads, b.sources):
            unchanged = eps is not None and not (ps.any() or pd.any())  # x = x* on the block
            for e in (None,) if eps is None else eps:
                if unchanged:
                    d.fill(0.0)
                    yield d
                    continue
                u, v = ps, pd
                if e is not None:
                    u = np.multiply(ps, e, out=u_buf[: len(t)])
                    u += xs
                    v = np.multiply(pd, e, out=v_buf[: len(t)])
                    v += xd
                if l_star is None:  # before the integrand's next call
                    l_star = l_buf[: len(t)]
                    l_star[...] = lag.values(t, xs, xd)
                yield np.subtract(lag.values(t, u, v), l_star, out=d)


def _check_window(plan, config):
    """Refuse, before any sampling, a plan with fewer tail starts than the
    classifier window needs."""
    if len(plan.tail_values) < config.window:
        raise InsufficientHorizons(
            f"the plan has {len(plan.tail_values)} tail starts, "
            f"the limit window needs {config.window}"
        )


def weak_max_compare(problem, x, x_star, plan, config=LimitConfig()):
    """Lim-inf estimate of int_a^{T'} [L(x) - L(x*)] against growing tails,
    for generators or paths on the plan's grid (a SampledPath of x* is
    shared across comparisons; verify_candidate's probes are x* +- amp p).

    x* is consistent with weak maximality against x when the estimate is
    Converged with value <= tol or DivergesMinus.  The difference integral
    is formed at the plan's horizons only, in one sweep (_sweep) that
    samples generators block by block.
    """
    _check_window(plan, config)
    px = _on_plan(problem, x, plan)
    star = _on_plan(problem, x_star, plan)
    stats = _TailStats.of_plan(plan)
    rows = _Competitors(problem, [(px, None)], stats)
    _sweep(problem, plan.grid, star, plan.horizon_idx, [rows])
    return stats.classify(rows.out[0], config)


def is_weak_max_consistent(estimate, tol=1e-8):
    """The acceptance rule for a single weak-maximality probe."""
    if estimate.kind is LimitKind.DIVERGES_MINUS:
        return True
    return estimate.kind is LimitKind.CONVERGED and estimate.value <= tol


def transversality_sweep(problem, x_gen, plan):
    """(T', transversality term) at every horizon node of the plan."""
    terms = np.empty(len(plan.horizon_idx))

    def collect(j, vals):
        terms[j : j + len(vals)] = vals

    _sweep(problem, plan.grid, _on_plan(problem, x_gen, plan), plan.horizon_idx,
           [_Transversality(collect)])
    return list(zip(plan.horizons, terms))


def transversality_liminf(problem, x_gen, plan, config=LimitConfig()):
    """The lim-inf estimate of the transversality term over the plan's
    tails, its statistics folded block by block from the sweep (_sweep)."""
    _check_window(plan, config)
    stats = _TailStats.of_plan(plan)
    row = stats.empty(1)
    _sweep(problem, plan.grid, _on_plan(problem, x_gen, plan), plan.horizon_idx,
           [_Transversality(lambda j, terms: stats.fold(row, j, terms[None]))])
    return stats.classify(row[0], config)


# ---------------------------------------------------------------------------
# variation quotients and the first variation


class _FirstVariation(_Consumer):
    """The row d2 . p_sigma + d3 . p_delta of the variation ``pvar`` at the
    horizons; with ``parts`` also the row [d2 - delta(d3)] . p_sigma, with
    delta(d3) the slope on the block's ``prefix`` of x*'s d3 row on the
    block and its _HALO, and the ``boundary`` term d3 . p at the last node
    of the last block."""

    boundary = 0.0

    def __init__(self, problem, pvar, parts=False):
        self.n, self.reads, self.parts = problem.n, ((pvar, ()),), parts
        self.count, self.halo = (2, _HALO) if parts else (1, 0)

    def rows(self, b):
        ((ps, pd),), d2, d3 = b.sources, b.partial(2), b.partial(3)
        own = b.own
        fv = np.einsum("ij,ij->i", d2[own], ps) + np.einsum("ij,ij->i", d3[own], pd)
        if not self.parts:
            return (fv,)
        psi = _slopes(b.prefix, d3, b.w0, b.lo, b.hi, t=b.t_wide)[0]
        self.boundary = float(np.dot(d3[own][-1], b.v_hi[self.n :]))
        return fv, np.einsum("ij,ij->i", d2[own] - psi, ps)


def _variation_sweep(problem, x_star, pvar, t_end, h, consumer):
    """The values at T' = t_end of the rows of consumer(p), and that
    consumer, on a grid from a to T' and a slope margin
    (_slope_margin_grid): one sweep (_sweep) of x* and the variation p,
    each sampled block by block or read by slices."""
    grid = _slope_margin_grid(problem.ts, problem.a, t_end, h)
    rows = consumer(_source(problem, pvar, grid, variation=True))
    i = grid.index_of(problem.ts.snap(t_end))
    return _sweep(problem, grid, _source(problem, x_star, grid), [i], [rows])[:, 0], rows


def variation_quotient(problem, x_star, pvar, eps, t_prime, *, h):
    """A(eps, T') = (1/eps) int_a^{T'} [L(x* + eps p) - L(x*)] dt."""
    if eps == 0:
        raise ZeroEpsilon("the variation parameter must be nonzero")
    F, _ = _variation_sweep(problem, x_star, pvar, t_prime, h,
                            lambda p: _Competitors(problem, [(p, (eps,))]))
    return float(F[0] / eps)


def first_variation(problem, x_star, pvar, t_prime, *, h):
    """int_a^{T'} [d2 . p_sigma + d3 . p_delta] dt."""
    F, _ = _variation_sweep(problem, x_star, pvar, t_prime, h,
                            lambda p: _FirstVariation(problem, p))
    return float(F[0])


def parts_decomposition_residual(problem, x_star, pvar, t_prime, *, h):
    """Residual of the integration-by-parts split of the first variation:

        int [d2 . p_sigma + d3 . p_delta]
            = int [d2 - delta(d3)] . p_sigma  +  d3(T') . p(T'),

    valid whenever p(a) = 0 and the sampled d3 row is continuous at every
    seam where a continuous stretch ends in a jump -- the split
    differentiates that row, and differentiability at such a seam forces
    continuity there.  For paths or Lagrangians violating this, the two
    sides genuinely differ by the accumulated seam jumps of d3 times p,
    and the returned residual reports that gap; it is not a grid artifact.
    Returns the absolute difference of the two sides on one shared grid;
    delta(d3) is taken on the prefix where x* and p have their slopes.
    """
    (lhs, rhs), rows = _variation_sweep(problem, x_star, pvar, t_prime, h,
                                        lambda p: _FirstVariation(problem, p, parts=True))
    return abs(float(lhs - (rhs + rows.boundary)))


# ---------------------------------------------------------------------------
# Gateaux-quotient diagnostics


@dataclass(frozen=True)
class GateauxReport:
    """Samples of the variation quotients used to inspect the interchange of
    limits: quotients[i, j] = V(eps_i, T_j) / eps_i with V the infimum of the
    un-divided difference over sampled T' >= T_j, and a_values[i, j] =
    A(eps_i, T_j).  spread_by_t is the swing of the quotient across eps at
    fixed T -- purely diagnostic, no verdict attached.
    """

    eps: tuple
    t_values: tuple
    quotients: np.ndarray
    a_values: np.ndarray
    spread_by_t: np.ndarray

    def to_dict(self):
        return {
            "eps": list(self.eps),
            "t_values": list(self.t_values),
            "quotients": [[float(q) for q in row] for row in self.quotients],
            "a_values": [[float(q) for q in row] for row in self.a_values],
            "spread_by_t": [float(s) for s in self.spread_by_t],
        }


def gateaux_report(problem, x_star, pvar, eps_list, t_list, plan):
    """Tabulate A(eps, T') and V(eps, T)/eps over the plan's horizons, for
    generators or paths on the plan's grid (a SampledPath of x* is reused).
    The rows of every eps are formed in one sweep (_sweep), at the horizons
    only; a generator x* or pvar is sampled block by block."""
    eps_list = _nonzero_eps(eps_list)
    star = _on_plan(problem, x_star, plan)
    pvar = _on_plan(problem, pvar, plan, variation=True)
    hz = plan.horizons
    stats = _TailStats.of_plan(plan, [int(np.argmin(np.abs(hz - tv))) for tv in t_list])
    rows = _Competitors(problem, [(pvar, eps_list)], stats)
    _sweep(problem, plan.grid, star, plan.horizon_idx, [rows])
    return _gateaux_table(eps_list, stats, rows.out)


def _nonzero_eps(eps_list):
    """The eps of a Gateaux table as floats; ZeroEpsilon for a zero."""
    eps_list = tuple(float(e) for e in eps_list)
    if any(e == 0 for e in eps_list):
        raise ZeroEpsilon("the variation parameter must be nonzero")
    return eps_list


def _gateaux_table(eps_list, stats, rows):
    """The GateauxReport of the rows N(eps, T') = int_a^{T'} [L(x* + eps p)
    - L(x*)], one per eps of ``eps_list``, given by their _TailStats
    ``rows``, at the horizons of the marks of ``stats``."""
    eps = np.array(eps_list)[:, None]
    rows = np.asarray(rows)
    quot = stats.scans(rows)[1][:, stats.mark_at] / eps
    return GateauxReport(
        eps=eps_list,
        t_values=tuple(float(t) for t in stats.T[stats.marks]),
        quotients=quot,
        a_values=rows[:, stats.mark_at] / eps,
        spread_by_t=quot.max(axis=0) - quot.min(axis=0),
    )


# ---------------------------------------------------------------------------
# fundamental-lemma probe


@dataclass(frozen=True)
class LemmaWitness:
    """A variation eta with int g . eta_sigma > 0, witnessing that g is not
    orthogonal to all admissible variations.  ``kind`` records which of the
    constructions fired: a parabolic bump on a continuous stretch, a point
    mass at a scattered forward jump, or a point mass with a short ramp when
    the jump lands on a dense point."""

    t0: float
    kind: str
    support: tuple
    integral: float
    eta: Callable

    def to_dict(self):
        return {
            "t0": self.t0,
            "kind": self.kind,
            "support": [float(self.support[0]), float(self.support[1])],
            "integral": self.integral,
        }


def _scalar_samples(g, times):
    vals = _call_on_times(g, np.asarray(times, dtype=float))
    if vals.shape[1] != 1:
        raise DimensionMismatch("the lemma probe works on scalar functions")
    return vals[:, 0]


def _dense_run_end(ts, t, b):
    _, seg, _ = ts._locate(t)
    hi = seg.maximum()
    return min(b, hi) if hi is not None else b


def _bump_witness(ts, g, t0, b):
    g0 = float(_scalar_samples(g, [t0])[0])
    sgn = 1.0 if g0 > 0 else -1.0
    t1 = _dense_run_end(ts, t0, b)
    if not t1 > t0:
        raise ProbeFailed("no room for a bump right of a dense point")
    for _ in range(80):
        xs = np.linspace(t0, t1, 201)
        gv = _scalar_samples(g, xs)
        if np.all(sgn * gv[1:-1] > 0):
            eta_v = sgn * (xs - t0) * (t1 - xs)
            integral = float(_trapezoid(gv * eta_v, xs))
            if integral > 0:
                def eta(t, _t0=t0, _t1=t1, _s=sgn):
                    t = np.asarray(t, dtype=float)
                    return np.where((t >= _t0) & (t <= _t1),
                                    _s * (t - _t0) * (_t1 - t), 0.0)
                return LemmaWitness(
                    t0=float(t0), kind="bump", support=(float(t0), float(t1)),
                    integral=integral, eta=eta,
                )
        t1 = t0 + 0.5 * (t1 - t0)
    raise ProbeFailed(f"sign of g does not persist right of t0={t0!r}")


def fundamental_lemma_probe(ts, g, a, b, *, h, tol_zero=1e-9):
    """Search [a, b] for a point where g is provably non-orthogonal.

    Scans a grid for the first t0 with |g(t0)| > tol_zero and builds the
    matching variation: a parabolic bump on [t0, t1] when t0 is right-dense,
    the point mass eta(sigma(t0)) = g(t0) when sigma(t0) is right-scattered
    (witness integral mu(t0) g(t0)^2 exactly), and a point mass with a short
    decaying ramp when sigma(t0) is right-dense.  Returns None when |g| stays
    within tol_zero on the whole sampled window.
    """
    grid = ts.build_grid(a, b, h)
    gv = _scalar_samples(g, grid.nodes)
    over = np.nonzero(np.abs(gv) > tol_zero)[0]
    if len(over) == 0:
        return None
    t0 = float(grid.nodes_at(over[0]))

    for _ in range(64):
        mu0 = ts.mu(t0)
        if mu0 == 0.0:
            return _bump_witness(ts, g, t0, b)
        g0 = float(_scalar_samples(g, [t0])[0])
        if abs(g0) <= tol_zero:
            # the scan start can sit below threshold after a hop; move on
            t0 = ts.sigma(t0)
            continue
        s = ts.sigma(t0)
        if ts.mu(s) > 0.0:
            # point mass at sigma(t0); exact witness
            def eta(t, _s=s, _g=g0):
                t = np.asarray(t, dtype=float)
                return np.where(np.abs(t - _s) <= tol_at(_s), _g, 0.0)
            return LemmaWitness(
                t0=t0, kind="point_mass", support=(s, s),
                integral=mu0 * g0 * g0, eta=eta,
            )
        # sigma(t0) is right-dense
        gs = float(_scalar_samples(g, [s])[0])
        if abs(gs) > tol_zero:
            t0 = s  # recurse into the bump case at the dense point
            continue
        # point mass plus a ramp over a stretch where |g| stays small
        run_end = _dense_run_end(ts, s, b)
        cap = min(run_end - s, 1.0, mu0 * abs(g0) / (4.0 * tol_zero))
        if cap <= 0:
            raise ProbeFailed("no room for a ramp right of the jump target")
        xs = np.linspace(s, s + cap, 201)
        gv_local = _scalar_samples(g, xs)
        exceed = np.nonzero(np.abs(gv_local) > tol_zero)[0]
        if len(exceed) and exceed[0] <= 1:
            t0 = float(xs[exceed[0]])  # g comes back immediately; bump there
            continue
        t3 = float(xs[exceed[0] - 1]) if len(exceed) else float(xs[-1])
        sel = xs <= t3
        ramp = g0 * (1.0 - (xs[sel] - s) / (t3 - s))
        integral = mu0 * g0 * g0 + float(_trapezoid(gv_local[sel] * ramp, xs[sel]))
        def eta(t, _s=s, _t3=t3, _g=g0):
            t = np.asarray(t, dtype=float)
            w = np.where((t >= _s) & (t <= _t3), _g * (1.0 - (t - _s) / (_t3 - _s)), 0.0)
            return w
        if integral <= 0:
            raise ProbeFailed("ramp construction failed to stay positive")
        return LemmaWitness(
            t0=t0, kind="point_mass_ramp", support=(s, t3),
            integral=integral, eta=eta,
        )
    raise ProbeFailed("probe did not settle on a construction")


# ---------------------------------------------------------------------------
# truncated-horizon direct solver


@dataclass(frozen=True)
class SolveParams:
    """Solver settings: stop when the sup-norm of the gradient on the free
    nodes is at most ``g_tol`` or after ``max_iter`` Newton iterations."""

    g_tol: float = 1e-8
    max_iter: int = 10000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the direct method; ``converged`` is False when the gradient
    tolerance was not reached and the last iterate is returned instead.
    ``history`` holds one (objective, grad_inf_norm, step, shift) entry per
    Newton iteration."""

    trajectory: SampledPath
    objective: float
    converged: bool
    iterations: int
    grad_inf_norm: float
    history: tuple = ()

    def to_dict(self):
        keys = ("objective", "grad_inf_norm", "step", "shift")
        return {
            "objective": self.objective,
            "converged": self.converged,
            "iterations": self.iterations,
            "grad_inf_norm": self.grad_inf_norm,
            "history": [dict(zip(keys, entry)) for entry in self.history],
        }


class _Discretization:
    """Discretized functional on a fixed grid: exact mu-weighted cells at
    scattered nodes, trapezoid-in-t with a constant cell slope on dense
    cells.  Objective and gradient are evaluated with vectorized Lagrangian
    calls over the cells."""

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = grid
        self.t, self.mu = grid.nodes, grid.mu
        self.dt = np.diff(self.t)
        self.scat = grid.scattered[:-1]
        self.w = np.where(self.scat, self.mu[:-1], self.dt)
        self.lag = problem.lagrangian

    def objective(self, x):
        t, dt, scat, w = self.t, self.dt, self.scat, self.w
        slope = (x[1:] - x[:-1]) / w[:, None]
        total = 0.0
        if scat.any():
            i = np.nonzero(scat)[0]
            vals = self.lag.values(t[i], x[i + 1], slope[i])
            total += float(np.dot(self.mu[i], vals))
        if (~scat).any():
            i = np.nonzero(~scat)[0]
            vl = self.lag.values(t[i], x[i], slope[i])
            vr = self.lag.values(t[i + 1], x[i + 1], slope[i])
            total += float(np.dot(0.5 * dt[i], vl + vr))
        return total

    def gradient(self, x):
        t, dt, scat, w = self.t, self.dt, self.scat, self.w
        slope = (x[1:] - x[:-1]) / w[:, None]
        g = np.zeros_like(x)
        if scat.any():
            i = np.nonzero(scat)[0]
            mu = self.mu[i, None]
            p2 = self.lag.partial2(t[i], x[i + 1], slope[i])
            p3 = self.lag.partial3(t[i], x[i + 1], slope[i])
            np.add.at(g, i + 1, mu * p2 + p3)
            np.add.at(g, i, -p3)
        if (~scat).any():
            i = np.nonzero(~scat)[0]
            half = 0.5 * dt[i, None]
            p2l = self.lag.partial2(t[i], x[i], slope[i])
            p2r = self.lag.partial2(t[i + 1], x[i + 1], slope[i])
            p3l = self.lag.partial3(t[i], x[i], slope[i])
            p3r = self.lag.partial3(t[i + 1], x[i + 1], slope[i])
            p3m = 0.5 * (p3l + p3r)
            np.add.at(g, i, half * p2l - p3m)
            np.add.at(g, i + 1, half * p2r + p3m)
        return g


def _hessian_blocks(disc, x, g, lo, hi):
    """Hessian blocks of ``disc.objective`` on the free nodes lo..hi-1.

    Each cell couples two neighbouring nodes, so the Hessian is
    block-tridiagonal.  Perturbing component j at every third node at once
    (Curtis, Powell & Reid) changes each gradient row through one perturbed
    node only, so 3n forward differences of the gradient ``g`` at ``x`` give
    every block.  Returns the diagonal blocks D, (k, n, n), and the
    symmetrized sub-diagonal blocks S, (k - 1, n, n) with S[i] = H[i+1, i].
    """
    n = x.shape[1]
    k = hi - lo
    D = np.empty((k, n, n))
    S = np.empty((max(k - 1, 0), n, n))
    S_up = np.empty_like(S)  # H[i, i+1], read from the column of node i + 1
    for c in range(3):
        idx = np.arange(lo + c, hi, 3)
        if len(idx) == 0:
            continue
        r = idx - lo
        below, above = idx + 1 < hi, idx > lo
        for j in range(n):
            delta = disc.lag.fd_step * (1.0 + np.abs(x[idx, j]))
            xp = x.copy()
            xp[idx, j] += delta
            dg = disc.gradient(xp) - g
            D[r, :, j] = dg[idx] / delta[:, None]
            S[r[below], :, j] = dg[idx[below] + 1] / delta[below, None]
            S_up[r[above] - 1, :, j] = dg[idx[above] - 1] / delta[above, None]
    D = 0.5 * (D + D.transpose(0, 2, 1))
    S = 0.5 * (S + S_up.transpose(0, 2, 1))
    return D, S


def _block_tridiagonal_solve(D, S, b):
    """Solve A z = b for a symmetric positive definite block-tridiagonal A
    with diagonal blocks D (k, n, n) and sub-diagonal blocks S (k - 1, n, n),
    S[i] = A[i+1, i], by block cyclic reduction.

    Eliminating the odd blocks leaves a block-tridiagonal system on the even
    ones, so log2(k) batched steps do O(k n^3) work.  This is block Cholesky
    on an odd-even reordering of A; the odd blocks are its pivots, and
    ``np.linalg.LinAlgError`` is raised when one is not positive definite.
    """
    k, n = D.shape[:2]
    if k == 1:
        np.linalg.cholesky(D)
        return np.linalg.solve(D, b[..., None])[..., 0]
    ko = k // 2  # odd blocks 1, 3, ...; each has a left neighbour
    D_odd = D[1::2]
    np.linalg.cholesky(D_odd)
    S_left = S[0::2][:ko]  # S[o-1] = A[o, o-1]
    S_right = np.zeros((ko, n, n))  # S[o]^T = A[o, o+1], zero past the end
    S_right[: len(S[1::2])] = S[1::2].transpose(0, 2, 1)
    X = np.linalg.solve(D_odd, np.concatenate([S_left, S_right, b[1::2, :, None]], axis=2))
    P, Q, c = X[..., :n], X[..., n:2 * n], X[..., 2 * n]
    # eliminate z_o = c_o - P_o z_{o-1} - Q_o z_{o+1} from the even rows
    S_mid = S[1::2]  # A[e, e-1] for even e >= 2
    m1 = len(S_mid)
    S_lt = S_left.transpose(0, 2, 1)  # A[e, e+1] for even e
    D_even = D[0::2].copy()
    b_even = b[0::2].copy()
    D_even[1:] -= S_mid @ Q[:m1]
    D_even[:ko] -= S_lt @ P
    b_even[1:] -= (S_mid @ c[:m1, :, None])[..., 0]
    b_even[:ko] -= (S_lt @ c[..., None])[..., 0]
    z_even = _block_tridiagonal_solve(D_even, -(S_mid @ P[:m1]), b_even)
    z_next = np.zeros((ko, n))
    z_next[: len(z_even) - 1] = z_even[1:]
    z = np.empty_like(b)
    z[0::2] = z_even
    z[1::2] = c - (P @ z_even[:ko, :, None])[..., 0] - (Q @ z_next[..., None])[..., 0]
    return z


def _newton_direction(D, S, g):
    """Solve (-H + shift I) d = g with the first shift of 0, 1e-4 s, 1e-3 s,
    ... that leaves every pivot positive definite, s the largest entry of
    |H|; by Gershgorin a shift of 3 n s always does.  Returns (d, shift), or
    (None, 0.0) when H vanishes: the objective is then linear near x, and
    with a nonzero gradient it is unbounded above."""
    scale = max(float(np.max(np.abs(D))), float(np.max(np.abs(S), initial=0.0)))
    if scale == 0.0:
        return None, 0.0
    neg_D, neg_S = -D, -S
    eye = np.eye(D.shape[1])
    shift = 0.0
    while True:
        try:
            return _block_tridiagonal_solve(neg_D + shift * eye, neg_S, g), shift
        except np.linalg.LinAlgError:
            shift = 1e-4 * scale if shift == 0.0 else 10.0 * shift


def _sup_norm(a):
    return float(np.max(np.abs(a), initial=0.0))


def _newton(disc, x0, lo, hi, params):
    """Damped Newton ascent on the free nodes lo..hi-1 of ``x0``.

    Each iteration builds the block-tridiagonal Hessian, takes the Newton
    direction (with a Levenberg shift where the Hessian is not negative
    definite) and backtracks on the objective until the Armijo condition
    holds, or, for a full unshifted step, until the gradient's sup norm
    there falls below the current one; a non-finite objective counts as a
    failed trial.  Returns
    (x, converged, iterations, grad_inf_norm, objective, history) with one
    (objective, grad_inf_norm, step, shift) history entry per iteration,
    taken at the iterate the step starts from; step 0.0 marks an iteration
    whose direction or line search failed.
    """
    x = x0.copy()
    f = disc.objective(x)
    if not np.isfinite(f):
        raise NonFiniteObjective("objective not finite at the starting point")
    g = disc.gradient(x)
    history = []
    it = 0
    for it in range(1, params.max_iter + 1):
        gnorm = _sup_norm(g[lo:hi])
        if gnorm <= params.g_tol:
            return x, True, it - 1, gnorm, f, history
        with np.errstate(all="ignore"):
            D, S = _hessian_blocks(disc, x, g, lo, hi)
        d, shift = None, 0.0
        if np.all(np.isfinite(D)) and np.all(np.isfinite(S)):
            d, shift = _newton_direction(D, S, g[lo:hi])
        step, g_new = 0.0, None
        if d is not None:
            slope = float(np.vdot(g[lo:hi], d))
            trial = 1.0
            for _ in range(64):
                x_new = x.copy()
                x_new[lo:hi] += trial * d
                with np.errstate(all="ignore"):
                    f_new = disc.objective(x_new)
                if np.isfinite(f_new) and f_new >= f + 1e-4 * trial * slope:
                    step = trial
                    break
                if trial == 1.0 and shift == 0.0 and np.isfinite(f_new):
                    # near the optimum, or on an objective large against its
                    # gain, the predicted gain drops below the objective's
                    # rounding; a full Newton step that shrinks the gradient
                    # is taken without the Armijo test
                    g_new = disc.gradient(x_new)
                    if _sup_norm(g_new[lo:hi]) < gnorm:
                        step = trial
                        break
                    g_new = None
                trial *= 0.5
        history.append((f, gnorm, step, shift))
        if step == 0.0:
            return x, False, it, gnorm, f, history
        x, f = x_new, f_new
        g = g_new if g_new is not None else disc.gradient(x)
    gnorm = _sup_norm(g[lo:hi])
    return x, gnorm <= params.g_tol, it, gnorm, f, history


def solve_truncated(problem, t_end, terminal=None, *, h, params=SolveParams()):
    """Maximize the discretized functional on [a, t_end].

    ``terminal``: None leaves x(t_end) free, a vector pins it.  Runs damped
    Newton from the line joining x_a to the pinned end (constant x_a when the
    end is free); ``converged`` is False when the gradient tolerance was not
    reached (the last iterate is still returned).
    """
    grid = problem.ts.build_grid(problem.a, t_end, h)  # both ends: at least two nodes
    m, n = len(grid), problem.n
    hi, target = m, problem.x_a  # free nodes are 1..hi-1
    if terminal is not None:
        hi = m - 1
        target = np.broadcast_to(np.asarray(terminal, dtype=float), (n,))
    t = grid.nodes
    frac = (t - t[0]) / (t[-1] - t[0])
    init = problem.x_a[None, :] + frac[:, None] * (target - problem.x_a)[None, :]
    init[-1] = target  # exactly: a pinned end is never moved by Newton
    x, ok, iters, gnorm, f, history = _newton(
        _Discretization(problem, grid), init, 1, hi, params)
    return SolveResult(
        trajectory=SampledPath(problem, GridFunction(grid, x)),
        objective=f,
        converged=ok,
        iterations=iters,
        grad_inf_norm=gnorm,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# perturbation families for the verifier


def smoothstep_tail(c, a, t_ramp):
    """0 at a, smooth C^1 ramp to the constant c at a + t_ramp, flat after."""
    def q(t):
        t = np.asarray(t, dtype=float)
        theta = np.clip((t - a) / t_ramp, 0.0, 1.0)
        return c * theta * theta * (3.0 - 2.0 * theta)
    return q


def decaying_pulse(c, a, rate):
    """c (t - a) exp(-rate (t - a)): vanishes at a and at infinity."""
    def q(t):
        t = np.asarray(t, dtype=float)
        return c * (t - a) * np.exp(-rate * (t - a))
    return q


def compact_bump(c, center, width):
    """c (1 - ((t - center)/width)^2)_+^2: a C^1 bump with compact support."""
    def q(t):
        t = np.asarray(t, dtype=float)
        y = np.clip(1.0 - ((t - center) / width) ** 2, 0.0, None)
        return c * y * y
    return q


def perturbed_generator(gen, q):
    """The generator t -> gen(t) + q(t) * (1, ..., 1)."""
    def g(t):
        arr = np.asarray(t, dtype=float)
        base = np.asarray(gen(t), dtype=float)
        qv = np.broadcast_to(np.asarray(q(arr), dtype=float), arr.shape)
        if arr.ndim == 0:
            return base + float(qv)
        return base + qv[:, None]
    return g


# ---------------------------------------------------------------------------
# candidate verification


class Verdict(Enum):
    CONSISTENT = "consistent"
    EL_RESIDUAL_NONZERO = "el_residual_nonzero"
    EL_FAILS_TRANSVERSALITY = "el_fails_transversality"
    NOT_WEAKLY_MAXIMAL = "not_weakly_maximal"


@dataclass(frozen=True)
class VerifyConfig:
    """Controls for verify_candidate.

    ``el_tol`` bounds el_residual's r: 1e-8 on purely scattered grids, where
    r is exact to rounding, else max(1e-9, 20 h^2), the floor reached for
    h below about 7e-6.  For a smooth extremal x, r holds
    the slope error h^2/6 x''' of the d3 row at t and at a, and the
    trapezoid error of int_a^t d2, which telescopes to h^2/12 [d2'] over
    each continuous stretch (Euler-Maclaurin): end terms, so the tolerance
    does not grow with t - a (on lqr-r, r(t) = h^2/6 x_a (e^{-t} - 1)).  A
    Lagrangian coupling u and v adds h^2/6 int_a^t L_uv x''', which grows
    where x''' does not decay; set ``el_tol`` for such a problem.
    """

    t_max: float = 40.0
    h: float = 1e-2
    horizon_count: int = 60
    n_tails: int = 10
    limits: LimitConfig = field(default_factory=LimitConfig)
    el_tol: Optional[float] = None
    trans_tol: float = 1e-6
    probe_tol: float = 1e-8
    probe_amplitude: float = 0.5
    gateaux_eps: tuple = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class VerificationReport:
    """verify_candidate's diagnostics and verdict, the tolerances it applied
    and the plan grid's node count."""

    el_sup_norm: float
    el_window_sups: tuple
    transversality: LimitEstimate
    weak_max_probes: tuple
    hypothesis_diagnostics: GateauxReport
    verdict: Verdict
    flags: tuple
    el_tol: float
    trans_tol: float
    probe_tol: float
    nodes: int

    def to_dict(self):
        return {
            "el_sup_norm": self.el_sup_norm,
            "el_window_sups": [[float(t), float(s)] for t, s in self.el_window_sups],
            "transversality": self.transversality.to_dict(),
            "weak_max_probes": [
                {"label": lbl, "estimate": est.to_dict()}
                for lbl, est in self.weak_max_probes
            ],
            "hypothesis_diagnostics": self.hypothesis_diagnostics.to_dict(),
            "verdict": self.verdict.value,
            "flags": list(self.flags),
            "el_tol": self.el_tol,
            "trans_tol": self.trans_tol,
            "probe_tol": self.probe_tol,
            "nodes": self.nodes,
        }


def _default_el_tol(grid, h):
    where = grid.jumps(0, len(grid))[0]
    if isinstance(where, slice) and where.stop - where.start == len(grid):  # all scattered
        return 1e-8
    return max(1e-9, 20.0 * h * h)


def classify_report(el_sup, trans, probes, *, el_tol, trans_tol, probe_tol):
    """Fold the measured diagnostics into a single verdict plus flags.

    Precedence: a nonzero E-L residual dominates; then a transversality
    limit that exists but is nonzero (the hallmark of a candidate whose
    necessary conditions cannot all hold); then a positive weak-maximality
    probe; then any other transversality failure (divergence/oscillation).
    """
    flags = []
    if el_sup > el_tol:
        flags.append(f"el_residual_above_tol({el_sup:.3e}>{el_tol:.1e})")
    trans_zero = trans.kind is LimitKind.CONVERGED and abs(trans.value) <= trans_tol
    trans_nonzero_limit = (
        trans.kind is LimitKind.CONVERGED and abs(trans.value) > trans_tol
    )
    if trans_nonzero_limit:
        flags.append(f"transversality_nonzero_limit({trans.value:.6g})")
    elif not trans_zero:
        flags.append(f"transversality_{trans.kind.value}")
    positive = [
        lbl
        for lbl, est in probes
        if est.kind is LimitKind.DIVERGES_PLUS
        or (est.kind is LimitKind.CONVERGED and est.value > probe_tol)
    ]
    flags.extend(f"weak_max_violated_by({lbl})" for lbl in positive)
    inconclusive = [
        lbl for lbl, est in probes
        if est.kind in (LimitKind.OSCILLATES, LimitKind.UNDETERMINED)
    ]
    flags.extend(f"weak_max_probe_inconclusive({lbl})" for lbl in inconclusive)

    if el_sup > el_tol:
        return Verdict.EL_RESIDUAL_NONZERO, tuple(flags)
    if trans_nonzero_limit:
        return Verdict.EL_FAILS_TRANSVERSALITY, tuple(flags)
    if positive:
        return Verdict.NOT_WEAKLY_MAXIMAL, tuple(flags)
    if not trans_zero:
        return Verdict.EL_FAILS_TRANSVERSALITY, tuple(flags)
    return Verdict.CONSISTENT, tuple(flags)


def _horizon_sups(idx):
    """The maxima of |r|, el_residual's r, between the horizons of the node
    indices ``idx``, as (sups, fold): fold(i, r) is a residual consumer of
    the sweep (_sweep) that folds each block of r as it is formed, so that
    no row of r is held, into sups: the maxima over the nodes 0..idx[0],
    then idx[j - 1] + 1..idx[j] for each later horizon j, then the nodes
    past the last horizon (0 when there are none)."""
    cuts = np.zeros(len(idx) + 1, dtype=np.intp)
    np.add(idx, 1, out=cuts[1:])
    sups = np.zeros(len(cuts))

    def fold(i, r):
        first, last = np.searchsorted(cuts, (i, i + len(r) - 1), side="right") - 1
        starts = cuts[first : last + 1] - i
        starts[0] = 0
        seg = sups[first : last + 1]
        np.maximum(seg, np.maximum.reduceat(np.abs(r).max(axis=1), starts), out=seg)

    return sups, fold


def verify_candidate(problem, x_gen, config=VerifyConfig()):
    """Run the full diagnostic battery against a candidate generator
    ``x_gen`` (a path sampled on the very grid of the plan built here, a
    SampledPath or GridFunction, is read by slices instead).

    Measures the integral E-L residual over growing windows, estimates the
    transversality lim-inf, probes weak maximality against x* +- amp p for
    a standard family of variations p (smooth tail-constant, decaying and
    compact bump), and tabulates the Gateaux quotients of the tail-constant
    one.  The verdict is derived by classify_report.

    All of it comes from one sweep of the plan grid (_sweep), on to the
    end of x*'s defined prefix, with x* and the three variations sampled
    on each block side by side, and three consumers: the residual
    (_Residual), r folded into its maxima between horizons
    (_horizon_sups); the transversality term (_Transversality), from the
    residual's d3 row; and the nine competitor rows x* +- amp p and x* +
    eps p (_Competitors).  The last two are folded into their tail
    statistics (_TailStats), from which the probes' lim-infs and the
    Gateaux table are read.  Nothing is held at full length but a held
    path's own samples.
    """
    ts, a = problem.ts, problem.a
    plan = make_horizon_plan(
        ts, a, config.t_max, h=config.h,
        horizon_count=config.horizon_count, n_tails=config.n_tails,
        min_window=config.limits.window,
    )
    _check_window(plan, config.limits)
    star = _on_plan(problem, x_gen, plan)
    idx, hz, n_hz = plan.horizon_idx, plan.horizons, len(plan.horizons)
    windows = (n_hz // 4, n_hz // 2, 3 * n_hz // 4, n_hz - 1)
    marks = sorted(set(windows))  # r's maxima are kept between these horizons only
    res_sup, fold = _horizon_sups(idx[marks])
    trans_stats = _TailStats.of_plan(plan)
    trans_row = trans_stats.empty(1)

    span = hz[-1] - a
    amp = config.probe_amplitude
    families = [
        ("tail_const", smoothstep_tail(amp, a, span / 5.0)),
        ("decay", decaying_pulse(amp, a, 5.0 / span)),
        ("bump", compact_bump(amp, a + span / 4.0, span / 10.0)),
    ]
    signs = (1.0, -1.0)
    gateaux = {"tail_const": _nonzero_eps(config.gateaux_eps)}
    ones = np.ones(problem.n)
    # the nine rows: x* +- amp p for each family p, followed by the Gateaux
    # rows x* + eps p of the tail-constant one, each folded into its tail
    # statistics, with the Gateaux table's horizons marked
    stats = _TailStats.of_plan(plan, (n_hz // 4, n_hz // 2, n_hz - 1))
    competitors = _Competitors(problem, [
        (lambda t, q=q: np.outer(q(t), ones), signs + gateaux.get(name, ()))
        for name, q in families], stats)
    _sweep(problem, plan.grid, star, idx, [
        _Residual(problem, fold),
        _Transversality(lambda j, terms: trans_stats.fold(trans_row, j, terms[None])),
        competitors])
    rows = iter(competitors.out)

    # sup of |r| over [a, T'] at a quarter, half, three quarters and all of
    # the horizons T', and over the whole prefix
    window_sups = tuple((float(hz[j]), float(res_sup[: marks.index(j) + 1].max()))
                        for j in windows)
    el_sup = float(res_sup.max())
    trans = trans_stats.classify(trans_row[0], config.limits)
    probes = []
    for name, _ in families:
        probes += [(f"{name}({eps * amp:+g})", stats.classify(next(rows), config.limits))
                   for eps in signs]
        if name in gateaux:
            diag = _gateaux_table(gateaux[name], stats, [next(rows) for _ in gateaux[name]])

    el_tol = config.el_tol if config.el_tol is not None else _default_el_tol(
        plan.grid, config.h
    )
    verdict, flags = classify_report(
        el_sup, trans, probes,
        el_tol=el_tol, trans_tol=config.trans_tol, probe_tol=config.probe_tol,
    )
    return VerificationReport(
        el_sup_norm=el_sup,
        el_window_sups=window_sups,
        transversality=trans,
        weak_max_probes=tuple(probes),
        hypothesis_diagnostics=diag,
        verdict=verdict,
        flags=flags,
        el_tol=el_tol,
        trans_tol=config.trans_tol,
        probe_tol=config.probe_tol,
        nodes=len(plan.grid),
    )
