"""Delta calculus on sampled grids.

Delta derivatives are exact at right-scattered nodes,
(f(sigma(t)) - f(t)) / mu(t), and second-order finite differences at dense
nodes (central in the interior of a continuous run, one-sided at a run's
left edge).  Delta integrals weight each right-scattered node by its
graininess and use the composite trapezoid rule on continuous runs, so that

    int_t^sigma(t) f = mu(t) f(t)

holds exactly cell by cell.  Improper integrals over [a, +inf) are limits
of partial integrals at growing horizons, classified by a small documented
heuristic (see classify_limit).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationError,
    GridTooSmall,
    InsufficientHorizons,
    NotInTimeScale,
)
from .timescale import SampleGrid, tol_at


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Values of an R^n-valued function at the nodes of a SampleGrid.

    ``sigma_last`` optionally holds the value at sigma(last node) when the
    last node is right-scattered; it is filled in by from_callable and lets
    the delta derivative and the sigma shift be defined at that node too.
    """

    grid: SampleGrid
    values: np.ndarray
    sigma_last: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != len(self.grid):
            raise DimensionMismatch(
                f"values shape {vals.shape} does not match grid of length {len(self.grid)}"
            )
        _require_finite(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.sigma_last is not None:
            sl = np.atleast_1d(np.asarray(self.sigma_last, dtype=float))
            if sl.shape != (vals.shape[1],) or not np.all(np.isfinite(sl)):
                raise DimensionMismatch("sigma_last must be a finite vector of length n")
            sl.setflags(write=False)
            object.__setattr__(self, "sigma_last", sl)

    @property
    def dim(self):
        return self.values.shape[1]

    @classmethod
    def from_callable(cls, grid, fn, extend=True, dim=None):
        """Sample the generator ``fn`` at the grid nodes.

        ``fn`` is called on an array of times and must return an (m,) or
        (m, n) array, or a constant; scalar-only callables such as
        ``math.exp`` are not supported.  With ``dim`` the values must have
        that many components (see _call_on_times).  When ``extend`` is true
        and the last node is right-scattered, fn is also evaluated at
        sigma(last node) -- a member of the scale just past the window.
        """
        vals = _call_on_times(fn, grid.nodes, dim)
        sigma_last, last = None, len(grid) - 1
        if extend and grid.scattered_at(last):
            s = grid.nodes_at(last) + grid.mu_at(last)
            sigma_last = _call_on_times(fn, np.array([s]), dim)[0]
        return cls(grid=grid, values=vals, sigma_last=sigma_last)


def _require_finite(vals):
    """Refuse sampled values that are not all finite (EvaluationError)."""
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("grid function values must be finite")


def _call_on_times(fn, times, dim=None):
    """Call a time -> value generator once on an array of m times; returns
    an (m, n) array.  An (m,) result is one column, a constant () result is
    broadcast, an (m, n) result is kept, as a view, unless it is a view of
    other data (np.broadcast_to, say), which is copied, and any other shape
    raises DimensionMismatch; errors raised
    by fn propagate.  With the expected dimension ``dim``, n must equal it;
    where m = dim > 1 an (n, m) result has the shape of an (m, n) one, so fn
    is called once more, on the first time alone, and must give (1, dim)."""
    m = len(times)
    out = np.asarray(fn(times), dtype=float)
    if out.shape == (m,):
        out = out[:, None]
    elif out.shape == ():  # constant callable
        out = np.full((m, 1), float(out))
    elif out.ndim == 2 and out.shape[0] == m:
        out = out.copy() if out.base is not None else out[:]
    else:
        raise DimensionMismatch(
            f"generator returned shape {out.shape} for {m} times; expected ({m},) or ({m}, n)"
        )
    if dim is not None and out.shape[1] != dim:
        raise DimensionMismatch(f"generator returned {out.shape[1]} components, expected {dim}")
    if dim is not None and m == dim > 1:
        one = np.shape(fn(times[:1]))
        if one != (1, dim):
            raise DimensionMismatch(
                f"generator returned shape {one} for one time, expected (1, {dim}): "
                f"its ({m}, {m}) result is transposed"
            )
    return out


# ---------------------------------------------------------------------------
# delta derivative and sigma shift


#: nodes each side of lo..hi whose samples the slopes of lo..hi read: a
#: dense run's edge stencils reach three nodes into the run
_HALO = 3


class _EdgeStencils(NamedTuple):
    """The slopes at the edges of a grid's dense runs that are not central
    differences, in three groups, each as arrays sorted by the node whose
    slope they give:

    ``forward`` (node, J, div): (v[J1] - v[J0]) / div, with div = t[J1] - t[J0];
    ``uniform`` (node, J, coef, div): the sum of coef[k] v[Jk], taken in the
    order k = 0..3, divided by div = 2 h;
    ``lagrange`` (node, J, w): 0 + the sum of w[k] v[Jk], k = 0..3.
    """

    forward: tuple
    uniform: tuple
    lagrange: tuple


def _lagrange_edge_weights(ts):
    """Weights at ts[:, 0] of the derivative of the polynomial through the
    points ts[r] (three or four per row); second/third order.  The extra
    order matters when the result is differentiated again, as
    parts_decomposition_residual does, block by block, to x*'s d3 row
    formed from these slopes: a uniformly O(h^k) error survives one more
    division by h."""
    x0, k = ts[:, 0], ts.shape[1]
    w = np.empty_like(ts)
    w[:, 0] = 1.0 / (x0 - ts[:, 1])
    for i in range(2, k):
        w[:, 0] += 1.0 / (x0 - ts[:, i])
    for j in range(1, k):
        num = den = 1.0
        for i in range(k):
            if i != j:
                if i:
                    num = num * (x0 - ts[:, i])
                den = den * (ts[:, j] - ts[:, i])
        w[:, j] = num / den
    return w


def _edge_stencils(grid):
    """The _EdgeStencils of the grid's dense runs, found for all runs at
    once; SampleGrid.edge_stencils keeps them with the grid.

    A run (s, e) has nb = e - s dense cells and slopes at s..e-1.  Its start
    s takes the forward quotient over one cell (nb = 1), the quadratic
    through s..s+2 (nb = 2), or a cubic through s..s+3; on a uniform start
    (its three steps equal within tol_at of s, so that rounding in the
    nodes far from 0 does not count as a change of step) the cubic-fit
    derivative plus h^2/6 times the cubic's third derivative,
    (-4 v0 + 7 v1 - 4 v2 + v3) / 2h, which reproduces the central
    difference's error field h^2/6 f''' at the edge, so that differencing
    the result again (parts_decomposition_residual's delta(d3), taken per
    block from the d3 row on the block and its _HALO) stays O(h^2) instead
    of O(h).  When the run's final node e is right-scattered, its sample
    belongs to the jump: for derived rows (sigma shifts, delta quotients,
    partials along a path) it is the post-jump value and is discontinuous
    with the branch s..e-1, so no stencil of the run reads it.  Then e-1
    takes the mirror image of the start stencil, which carries the
    identical h^2/6 f''' leading error and keeps the error field constant
    across a uniform run, and a start stencil that would reach e shrinks:
    with nb = 2 both branch nodes take the forward quotient, with nb = 3 the
    start takes the quadratic.  A lone branch node (nb = 1) keeps its
    forward quotient.
    """
    runs = np.array(grid.dense_runs, dtype=np.intp).reshape(-1, 2)
    s, e = runs[:, 0], runs[:, 1]
    # a maximal dense run ends at a right-scattered node or at the last node
    nb, branch = e - s, (e < len(grid) - 1) | grid.scattered_at(len(grid) - 1)
    four = np.arange(4)

    def spans(first, step, npts):
        return first[:, None] + step * four[:npts]

    # forward quotients over the cell s, s+1: at s, and at e-1 = s+1 too
    # when a two-cell branch ends in a jump
    two = branch & (nb == 2)
    fwd_node = np.concatenate((s[(nb == 1) | two], s[two] + 1))
    fwd_J = spans(np.concatenate((s[(nb == 1) | two], s[two])), 1, 2)
    # quadratics: a start that cannot take four points, the end of a
    # three-cell branch
    q_start = s[((nb == 2) & ~branch) | ((nb == 3) & branch)]
    q_end = (e - 1)[branch & (nb == 3)]
    # cubics: the other starts of runs with nb >= 3, the ends of branches
    # with nb >= 4
    c_start = s[(nb >= 4) | ((nb == 3) & ~branch)]
    c_end = (e - 1)[branch & (nb >= 4)]
    J = np.concatenate((spans(c_start, 1, 4), spans(c_end, -1, 4)))
    t = grid.nodes_at(J)
    steps = np.abs(np.diff(t, axis=1))  # nearest the edge node first
    uni = np.ptp(steps, axis=1) <= tol_at(t[:, 0])
    sign = np.repeat([1.0, -1.0], (len(c_start), len(c_end)))[uni, None]
    cubic_J = J[~uni]
    quad_J = np.concatenate((spans(q_start, 1, 3), spans(q_end, -1, 3)))
    lag_J = np.concatenate((np.column_stack((quad_J, quad_J[:, 2])), cubic_J))
    w = np.zeros(lag_J.shape)
    w[: len(quad_J), :3] = _lagrange_edge_weights(grid.nodes_at(quad_J))
    w[len(quad_J) :] = _lagrange_edge_weights(t[~uni])
    fwd_t = grid.nodes_at(fwd_J)

    def by_node(node, *cols):
        order = np.argsort(node, kind="stable")
        return tuple(c[order] for c in (node, *cols))

    return _EdgeStencils(
        by_node(fwd_node, fwd_J, fwd_t[:, 1] - fwd_t[:, 0]),
        by_node(J[uni, 0], J[uni], sign * np.array([-4.0, 7.0, -4.0, 1.0]),
                2.0 * steps[uni, 0]),
        by_node(lag_J[:, 0], lag_J, w),
    )


def _slopes(grid, v, off, lo, hi, sigma_last=None, t=None):
    """Delta derivative at the nodes lo..hi of ``grid`` as (deriv,
    defined), from the samples ``v`` of the nodes off, off + 1, ...; they
    must cover lo - _HALO..hi + _HALO within the grid.  ``t``, when the
    caller holds them, are the nodes of v's rows; else the nodes are formed
    a block at a time.  Every node gets the value it gets on the whole
    grid, bit for bit.  deriv is laid out as v is: with each column of v
    contiguous, so is each of deriv's.

    Scattered nodes use the exact jump quotient (the final node too, when
    ``sigma_last`` holds the value at its sigma); dense nodes use the
    central difference inside a dense run and the grid's edge_stencils at
    its ends; the final node of a grid ending dense is undefined (deriv 0).
    """
    m = len(grid)
    deriv = np.zeros_like(v[lo - off : hi + 1 - off])  # laid out as v is
    top = min(hi, m - 2)  # the final node has no right neighbour
    a = max(lo, 1)

    def rows(group):
        r0, r1 = np.searchsorted(group[0], (lo, hi + 1))
        return group[0][r0:r1] - lo, v[group[1][r0:r1] - off], [c[r0:r1] for c in group[2:]]

    if grid.dense_runs:
        # central differences over the whole range, a block of nodes at a
        # time, written straight into deriv; the run edges are rewritten
        # next, the scattered nodes below
        for c0 in range(a, top + 1, _BLOCK):
            c1 = min(c0 + _BLOCK, top + 1)
            tc = (grid.nodes_at(slice(c0 - 1, c1 + 1)) if t is None
                  else t[c0 - 1 - off : c1 + 1 - off])
            mid = deriv[c0 - lo : c1 - lo]
            np.subtract(v[c0 + 1 - off : c1 + 1 - off], v[c0 - 1 - off : c1 - 1 - off], out=mid)
            mid /= (tc[2:] - tc[:-2])[:, None]
        stencils = grid.edge_stencils
        at, V, (div,) = rows(stencils.forward)
        deriv[at] = (V[:, 1] - V[:, 0]) / div[:, None]
        at, V, (coef, div) = rows(stencils.uniform)
        acc = coef[:, 0, None] * V[:, 0]
        for k in range(1, 4):
            acc += coef[:, k, None] * V[:, k]
        deriv[at] = acc / div[:, None]
        at, V, (w,) = rows(stencils.lagrange)
        acc = np.zeros((len(at), v.shape[1]))
        for k in range(4):
            acc += w[:, k, None] * V[:, k]
        deriv[at] = acc
    idx, mu = grid.jumps(lo, top + 1)
    if isinstance(idx, slice):  # a run of jumps: the quotients formed in place
        at = deriv[_moved(idx, -lo)]
        np.subtract(v[_moved(idx, 1 - off)], v[_moved(idx, -off)], out=at)
        at /= mu[:, None]
    else:
        jump = v[_moved(idx, 1 - off)] - v[_moved(idx, -off)]
        deriv[_moved(idx, -lo)] = jump / mu[:, None]

    defined = np.ones(hi - lo + 1, dtype=bool)
    if hi == m - 1:
        if grid.scattered_at(m - 1) and sigma_last is not None:
            deriv[-1] = (sigma_last - v[m - 1 - off]) / grid.mu_at(m - 1)
        else:
            defined[-1] = False
    return deriv, defined


def _shifts(grid, v, off, lo, hi, sigma_last=None, in_place=False):
    """f(sigma(.)) at the nodes lo..hi as (values, defined), from the
    samples ``v`` of the nodes off, off + 1, ...; they must cover lo..hi + 1
    within the grid.  With no right-scattered node in lo..hi the values are
    v's own rows, and with every node of lo..hi right-scattered the rows
    after them, not a copy.  Otherwise they are a copy, or, ``in_place``,
    written over v's rows lo..hi.  The final node is undefined when it is
    right-scattered and ``sigma_last`` is None."""
    m = len(grid)
    own = v[lo - off : hi + 1 - off]
    defined = np.ones(hi - lo + 1, dtype=bool)
    idx = grid.jumps(lo, min(hi, m - 2) + 1)[0]
    last = hi == m - 1 and grid.scattered_at(m - 1)
    if not last and isinstance(idx, slice):
        if idx.start == idx.stop:
            return own, defined
        if idx.stop - idx.start == hi - lo + 1:  # every node jumps: v one row on
            return v[lo + 1 - off : hi + 2 - off], defined
    out = own if in_place else own.copy(order="K")
    if last:
        if sigma_last is None:
            defined[-1] = False
        else:
            out[-1] = sigma_last
    out[_moved(idx, -lo)] = v[_moved(idx, 1 - off)]
    return out, defined


def _moved(idx, d):
    """The indices ``idx`` (a slice or an array) moved by d."""
    return slice(idx.start + d, idx.stop + d) if isinstance(idx, slice) else idx + d


def delta_derivative_all(f):
    """Delta derivative at every node where it is computable: _slopes on
    the whole grid.

    Returns (deriv, defined): an (m, n) array and a boolean mask.  Scattered
    nodes use the exact jump quotient (the final node too, when the function
    carries a sigma_last extension); dense nodes use second-order central /
    one-sided differences; the final node of a grid ending dense is
    undefined.  Stencils within a dense run never read the run's final node
    when that node is scattered, since sampled delta-calculus rows jump
    there.
    """
    return _slopes(f.grid, f.values, 0, 0, len(f.grid) - 1, f.sigma_last)


def sigma_shift_all(f):
    """f(sigma(.)) as (values, defined) aligned with the full grid: _shifts
    on the whole grid.

    The final node is undefined when it is right-scattered and f stores no
    sigma_last extension.  On a grid with no right-scattered node the
    values are f.values itself (read-only), not a copy.
    """
    return _shifts(f.grid, f.values, 0, 0, len(f.grid) - 1, f.sigma_last)


# ---------------------------------------------------------------------------
# delta integral


def _branch_ends(grid):
    """(ends, seams, w_seam) of the grid, from its dense runs, read-only:
    SampleGrid.branch_ends keeps them with the grid.  ``ends`` are the
    cells that end a dense run in a jump: dense cells whose right node is
    right-scattered.  ``seams`` are those of runs of two cells or more,
    whose left node is dense too: their trapezoid extrapolates the branch
    linearly from the two nodes before the jump, and w_seam weights the
    earlier one (see _cell_weights)."""
    runs = np.array(grid.dense_runs, dtype=np.intp).reshape(-1, 2)
    runs = runs[(runs[:, 1] < len(grid) - 1) | grid.scattered_at(len(grid) - 1)]  # as _edge_stencils
    ends = runs[:, 1] - 1
    seams = ends[runs[:, 1] - runs[:, 0] >= 2]
    t = grid.nodes_at(seams[:, None] + np.arange(-1, 2))
    dt = t[:, 2] - t[:, 1]
    found = ends, seams, -(dt * dt) / (2.0 * (t[:, 1] - t[:, 0]))
    for arr in found:
        arr.setflags(write=False)
    return found


def _seams_in(grid, lo, hi):
    """(seams, w_seam) of the seam cells among the cells lo..hi-1."""
    _, seams, w_seam = grid.branch_ends
    k0, k1 = np.searchsorted(seams, (lo, hi))
    return seams[k0:k1], w_seam[k0:k1]


def _cell_weights(grid, lo, hi, t=None):
    """Quadrature split of the cells lo..hi-1, formed from the nodes lo..hi
    (``t``, when the caller holds them) and the graininess of their jumps:
    cell i integrates to w_left[i - lo] f(i) + w_right[i - lo] f(i+1), plus
    w_seam[k] f(i-1) when i is the seam cell seams[k].  Returns (w_left,
    w_right, seams, w_seam), read-only.

    Scattered cells contribute mu*f(left) exactly; dense cells the
    trapezoid (dt/2)(f(left)+f(right)).  A dense cell whose right node is
    scattered is the last cell of its branch: the right sample there is the
    post-jump value of a delta-calculus row, so the trapezoid instead uses
    a linear extrapolation from the two preceding branch nodes (still
    second order, w_seam carries the extrapolation weight).  With no
    usable branch neighbor the cell falls back to the left rectangle.
    Every weight is a function of its own cell and the one before, so the
    weights of a block are those of the whole grid, bit for bit.
    """
    seams, w_seam = _seams_in(grid, lo, hi)
    ends = grid.branch_ends[0]
    ends = ends[np.searchsorted(ends, lo) : np.searchsorted(ends, hi)] - lo
    at, (jumps, mu) = seams - lo, grid.jumps(lo, hi)
    jumps = _moved(jumps, -lo)
    t = grid.nodes_at(slice(lo, hi + 1)) if t is None else t
    w_right = np.diff(t)  # the cell lengths dt, halved below
    dt_ends, dt_seams = w_right[ends], w_right[at]
    w_right *= 0.5
    w_left = w_right.copy()
    w_left[jumps] = mu
    w_right[jumps] = 0.0
    w_left[ends] = dt_ends
    w_left[at] = dt_seams - w_seam
    w_right[ends] = 0.0
    for w in (w_left, w_right):
        w.setflags(write=False)
    return w_left, w_right, seams, w_seam


def _reads_right(grid, end):
    """Whether a cell below ``end`` weights its right node: a dense cell
    whose right node is dense too, read from the grid's dense runs.  The
    cell ending a run reads its right node only where that node is the
    grid's dense last node."""
    return any(s < end and (e - s >= 2 or not grid.scattered_at(e))
               for s, e in grid.dense_runs)


def _cell_values(grid, v, i0, i1):
    """Cell integrals for cells i0..i1-1 of an (m, n) value array on grid."""
    w_left, w_right, seams, w_seam = _cell_weights(grid, i0, i1)
    cells = w_left[:, None] * v[i0:i1]
    cells += w_right[:, None] * v[i0 + 1 : i1 + 1]
    cells[seams - i0] += w_seam[:, None] * v[seams - 1]
    return cells


def cumulative_delta_integral(f):
    """F(t_i) = integral from the first node to t_i, summed cell by cell
    under _cell_weights' rule; an (m, n) array."""
    return _prefix_integrals(f.grid, f.values.T, range(len(f.grid))).T


#: cells per block of _cumulative_at: a block's row and node weights stay
#: in cache from the producer's call to the reduction
_BLOCK = 1 << 15


def _blocks(at, end=0):
    """Blocks (j0, j1, lo, hi) of the horizon segments j0..j1, segment j
    holding the cells at[j - 1]..at[j] - 1 (from 0 for j = 0), so that the
    block holds the nodes lo..hi: at most _BLOCK cells.  A segment longer
    than that is cut where numpy's pairwise sum of its cells after the
    first cuts them (_pairwise): blocks that hold no horizon (j0 =
    j1 + 1), then the one that ends at the segment's horizon.  Past the
    last segment, up to the node ``end``, follow blocks of _BLOCK cells
    that hold no segment (j0 = j1 + 1 = len(at)).  ``at`` is an array or a
    range."""
    blocks, j0, lo = [], 0, 0
    while j0 < len(at):
        j1 = max(j0, bisect_right(at, lo + _BLOCK) - 1)
        hi = int(at[j1])
        if hi - lo > _BLOCK:
            cut = lo + 1  # the segment's first cell leads the pairwise sum
            for part in _pairwise(hi - lo - 1)[:-1]:
                cut += part
                blocks.append((j0, j0 - 1, lo, cut))
                lo = cut
        blocks.append((j0, j1, lo, hi))
        j0, lo = j1 + 1, hi
    while lo < end:
        blocks.append((j0, j0 - 1, lo, min(lo + _BLOCK, end)))
        lo = blocks[-1][3]
    return blocks


def _pairwise(n, sums=None):
    """The lengths, in order, of the parts of at most max(_BLOCK - 1, 128)
    summands that numpy's pairwise sum of n contiguous summands adds up,
    or, given the parts' sums in order (the iterator ``sums``), that sum.
    It halves a sum of more than 128 summands (at a multiple of 8) and
    adds the halves' sums, so that a part summed on its own (np.add.reduce)
    has the bits it has within the whole."""
    if n <= max(_BLOCK - 1, 128):
        return [n] if sums is None else next(sums)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, sums) + _pairwise(n - half, sums)


def _block_nodes(idx, end=0):
    """Nodes in the longest block _cumulative_at asks for at ``idx`` (and
    up to the node ``end``)."""
    at = idx[1:] if len(idx) and idx[0] == 0 else idx
    return max((hi - lo for _, _, lo, hi in _blocks(at, end)), default=0) + 1


def _cumulative_at(grid, idx, k, rows_at, put=None, every=None, halo=0):
    """Prefix integrals F[j] = int_{t_0}^{t_j} of k scalar rows on ``grid``
    at the strictly increasing node indices ``idx`` only: a (k, len(idx))
    array.  ``idx`` is an array, or range(K) for every node of the first
    K, which then holds no index array.  F[j] sums the cells left of node
    j, cell i being w_left[i] v_i + w_right[i] v_{i+1} (+ w_seam v_{i-1} at
    a seam cell) under _cell_weights' rule.  The rows are handed over by
    block (_blocks of idx without node 0, in order): rows_at(lo, hi, t)
    returns the rows at the nodes lo..hi, as a sequence or an iterator,
    and a spare buffer of at least hi - lo floats, and this routine may
    overwrite all of them.  ``t`` holds the nodes lo..hi and ``halo`` more
    each side, as far as the grid goes (a producer that takes slopes on
    lo..hi asks for _HALO), formed once per block for the rows and the
    cell weights.  Each row is reduced to its horizons' values before the
    next is taken, so a producer can form them one at a time, in one
    buffer reused for every row and block.  The block's cell weights are
    formed once for all its rows, and a running sum per row carries from
    block to block, so neither the block size nor the other rows change a
    row's result.  With ``put`` the values are
    handed on instead of kept, and None is returned: put(r, j, vals)
    receives the values of the rows r, r + 1, ... at idx[j : j +
    vals.shape[1]], one row of ``vals`` each, block by block in order, in
    a buffer that is overwritten once the call returns.  The horizon mode,
    whose values are few per block, hands on all k rows of a block at
    once, the running-sum mode each row as it is reduced.

    With ``every`` = (kn, K, put_n), kn more rows are reduced in the same
    blocks, at every node of the first K (K - 1 >= idx[-1]), as if by a
    call at range(K) with the put put_n: rows_at hands them over first, on
    the blocks that hold nodes below K - 1, followed by the k rows on the
    blocks that hold horizons; past the last horizon the blocks go on to
    node K - 1 with the kn rows only.  idx may then be empty.  A block that
    takes no row forms no cell weights.

    The running-sum mode adds the cells one by one, in order.  The horizon
    mode weights node i by c_i = w_left[i] + w_right[i-1], so that F[j] =
    sum_{i<j} c_i v_i + w_right[j-1] v_j plus the seam terms below j, and
    reduces the first sum between consecutive horizons (np.add.reduceat)
    before accumulating it, which rounds differently, by a few ulps of the
    partial sums.  A segment that _blocks cuts over blocks is summed as
    reduceat sums it whole: its first value plus numpy's pairwise sum of
    the rest, joined from the sums of its parts (_pairwise), so that the
    block size changes no bit in either mode.  The running sum is taken when there are few nodes per
    horizon (every node, say) or no cell reads its right node."""
    if not isinstance(idx, range):
        idx = np.asarray(idx, dtype=np.intp)
    at = idx[1:] if len(idx) and idx[0] == 0 else idx  # F = 0 at node 0
    off = len(idx) - len(at)
    F = None
    if put is None:
        def put(r, j, vals):
            nonlocal F
            if F is None:  # only now, so that it is not held while the first rows are formed
                F = np.zeros((k, len(idx)))
            F[r : r + len(vals), j : j + vals.shape[1]] = vals
    kn, K, put_n = every if every is not None else (0, 1, None)
    end = int(at[-1]) if len(at) else 0
    if max(end, K - 1) == 0:  # no cell
        if off:
            put(0, 0, np.zeros((k, 1)))
        return F
    # reduceat beats the running sum only on segments of more than a few nodes
    exact = 8 * len(idx) >= end or not _reads_right(grid, end)
    _, seams, w_seam = grid.branch_ends
    # per row, the seam terms; in the horizon mode accumulated block by
    # block, as the terms below each horizon are added to it
    seam_terms = np.empty((kn + k, len(seams)))
    carry = np.zeros(kn + k)
    # a segment cut over blocks: its first node, and per row its first
    # value and the sums of its pairwise parts so far
    seg_lo, split = 0, [[] for _ in range(kn + k)]
    last_node = len(grid) - 1
    for j0, j1, lo, hi in _blocks(at, K - 1):
        # the nodes from lo - halo, or from lo - 1, whose cell the horizon
        # mode weights, on to hi + halo
        i0, c0 = max(lo - max(halo, 1), 0), lo - 1 if lo else 0
        t = grid.nodes_at(slice(i0, min(hi + halo, last_node) + 1))
        rows, spare = rows_at(lo, hi, t[max(lo - halo, 0) - i0 :])
        if off and not lo:
            put(0, 0, np.zeros((k, 1)))
        # the reductions this block feeds, in the order of their rows:
        # (first row, rows, running sum, horizons, put, position of the first)
        feeds = [(0, kn, True, range(lo + 1, hi + 1), put_n, lo + 1)] if kn and lo < K - 1 else []
        if k and lo < end:
            feeds.append((kn, k, exact, at[j0 : j1 + 1], put, off + j0))
        if not feeds:
            del rows  # a producer may hold its block's arrays until the next is formed
            continue
        # the weights of the cells lo..hi-1, and of lo-1 before them, whose
        # right weight the horizon mode adds to node lo's
        w_left, w_right, _, _ = _cell_weights(grid, c0, hi, t[c0 - i0 : hi + 1 - i0])
        wl, wr = (w_left[1:], w_right[1:]) if lo else (w_left, w_right)
        # the seam cell s reads node s - 1, so its term is formed in the
        # block holding that node: lo < s <= hi
        s0, s1 = np.searchsorted(seams, (lo + 1, hi + 1))
        k0, k1 = np.searchsorted(seams, (lo, hi))
        rows = iter(rows)
        for r0, count, running, hz, give, j in feeds:
            if not running:  # the node weights, for every row
                c = spare[: hi - lo]
                np.add(wl[1:], wr[:-1], out=c[1:])
                c[0] = wl[0] + w_right[0] if lo else wl[0]
                cuts = np.concatenate(([0], hz[:-1] - lo))
                below = np.searchsorted(seams, hz)  # seams below each horizon
                seamed = below > 0
                seam_at = below[seamed] - 1
                block = np.empty((count, len(hz)))  # the block's values, handed on together
            for r in range(r0, r0 + count):
                d = next(rows)
                terms = seam_terms[r]
                np.multiply(w_seam[s0:s1], d[seams[s0:s1] - 1 - lo], out=terms[s0:s1])
                sums = d[:-1]
                if running:
                    # _cell_values's cells w_left[i] d[i] + w_right[i] d[i + 1]
                    # plus the seam terms, over d[:-1]: the right products go
                    # to the spare before d[:-1] is scaled
                    right = np.multiply(wr, d[1:], out=spare[: hi - lo])
                    sums *= wl
                    sums += right
                    sums[seams[k0:k1] - lo] += terms[k0:k1]
                else:
                    last = wr[hz - 1 - lo] * d[hz - lo]  # read before d is scaled
                    sums *= c
                    if s0 < s1:  # the running sum of the seam terms, on from the last block's
                        if s0:
                            terms[s0] += terms[s0 - 1]
                        np.cumsum(terms[s0:s1], out=terms[s0:s1])
                    if lo == seg_lo and len(hz):
                        sums = np.add.reduceat(sums, cuts)
                    else:  # a part of a segment cut over blocks, summed as reduceat sums it
                        parts = split[r]
                        if lo == seg_lo:  # its first value, then the pairwise sum of the rest
                            parts.append(sums[0])
                            sums = sums[1:]
                        parts.append(np.add.reduce(sums))
                        if not len(hz):
                            continue
                        sums = np.array([parts[0] + _pairwise(hz[0] - seg_lo - 1,
                                                              iter(parts[1:]))])
                        parts.clear()
                if (lo if running else seg_lo):
                    sums[0] += carry[r]
                acc = np.cumsum(sums, out=sums)
                carry[r] = acc[-1]
                if not running:
                    acc += last
                    if len(seam_at):
                        acc[seamed] += terms[seam_at]
                    block[r - r0] = acc
                    continue
                if len(acc) != len(hz):
                    acc = np.take(acc, hz - (lo + 1), out=spare[: len(hz)], mode="clip")
                if len(hz):
                    give(r - r0, j, acc[None])
            if not running and len(hz):
                give(0, j, block)
        if j0 <= j1:
            seg_lo = hi
        del rows, t, w_left, w_right, wl, wr  # the block's, before the next is formed
    return F


def _prefix_integrals(grid, rows, idx):
    """_cumulative_at of k full-length scalar ``rows`` at the node indices
    ``idx``, each block copied into buffers allocated once per call: it
    overwrites them, and a row may be read-only or an integrand's own."""
    bufs = [np.empty(_block_nodes(idx)) for _ in range(len(rows) + 1)]

    def rows_at(lo, hi, t):
        for b, row in zip(bufs, rows):
            b[: len(t)] = row[lo : hi + 1]
        return [b[: len(t)] for b in bufs[:-1]], bufs[-1]

    return _cumulative_at(grid, idx, len(rows), rows_at)


def delta_integral(f, lo, hi):
    """Delta integral of f over [lo, hi]; endpoints must be grid nodes.

    Orientation follows int_a^b = -int_b^a; int_c^c = 0.  Exact for
    scattered cells, composite trapezoid on continuous runs.
    """
    i0 = f.grid.index_of(lo)
    i1 = f.grid.index_of(hi)
    if i0 == i1:
        return np.zeros(f.dim)
    sign = 1.0
    if i0 > i1:
        i0, i1, sign = i1, i0, -1.0
    cells = _cell_values(f.grid, f.values, i0, i1)
    return sign * cells.sum(axis=0)


# ---------------------------------------------------------------------------
# limits of horizon sequences


class LimitKind(Enum):
    CONVERGED = "converged"
    DIVERGES_PLUS = "diverges_plus"
    DIVERGES_MINUS = "diverges_minus"
    OSCILLATES = "oscillates"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LimitConfig:
    """Thresholds of the limit classifier.

    The values are heuristics: convergence means the last ``window``
    samples agree to rel_tol (with an absolute floor), divergence means a
    monotone trend whose per-horizon rate does not decay (the last rate
    retains at least ``rate_keep`` of the first) or that has already passed
    div_threshold in magnitude, oscillation means a spread with small drift
    between the half-window means.
    """

    rel_tol: float = 1e-8
    abs_floor: float = 1e-10
    div_threshold: float = 1e6
    window: int = 5
    rate_keep: float = 0.5
    drift_frac: float = 0.25

    def __post_init__(self):
        if self.window < 3:
            raise InsufficientHorizons("classifier window must be >= 3")


@dataclass(frozen=True)
class LimitEstimate:
    """Outcome of a numerical limit: a kind plus the evidence that led to it.

    ``value`` is set for CONVERGED, ``lo``/``hi`` bound the swing for
    OSCILLATES.  ``evidence`` keeps the (horizon, sample) pairs inspected.
    """

    kind: LimitKind
    value: Optional[float] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    evidence: tuple = ()

    def to_dict(self):
        out = {"kind": self.kind.value}
        if self.value is not None:
            out["value"] = self.value
        if self.lo is not None:
            out["lo"] = self.lo
        if self.hi is not None:
            out["hi"] = self.hi
        out["evidence"] = [[float(h), float(v)] for h, v in self.evidence]
        return out


def classify_limit(pairs, config=LimitConfig()):
    """Classify the limit of samples (horizon, value) with growing horizons."""
    pairs = [(float(h), float(v)) for h, v in pairs]
    w = config.window
    if len(pairs) < w:
        raise InsufficientHorizons(
            f"need at least {w} horizon samples, got {len(pairs)}"
        )
    hs = np.array([h for h, _ in pairs])
    if not np.all(np.diff(hs) > 0):
        raise InsufficientHorizons("horizons must be strictly increasing")
    p = np.array([v for _, v in pairs[-w:]])
    hw = hs[-w:]
    evidence = tuple(pairs)

    mean = float(p.mean())
    tol = max(config.abs_floor, config.rel_tol * abs(mean))
    if np.max(np.abs(p - mean)) <= tol:
        return LimitEstimate(LimitKind.CONVERGED, value=mean, evidence=evidence)

    diffs = np.diff(p)
    vs = np.array([v for _, v in pairs])
    # average growth rate over the first window vs over the last one; a
    # diverging drift keeps a non-decaying rate, a slowly converging tail
    # does not (e.g. partial sums of 1/t^2)
    first_rate = (vs[w - 1] - vs[0]) / (hs[w - 1] - hs[0])
    last_rate = (vs[-1] - vs[-w]) / (hs[-1] - hs[-w])
    if np.all(diffs > 0):
        if p[-1] > config.div_threshold or last_rate >= config.rate_keep * first_rate:
            return LimitEstimate(LimitKind.DIVERGES_PLUS, evidence=evidence)
    elif np.all(diffs < 0):
        if p[-1] < -config.div_threshold or last_rate <= config.rate_keep * first_rate:
            return LimitEstimate(LimitKind.DIVERGES_MINUS, evidence=evidence)
    else:
        half = w // 2
        drift = abs(float(p[half:].mean()) - float(p[:half].mean()))
        spread = float(p.max() - p.min())
        if drift <= config.drift_frac * spread:
            return LimitEstimate(
                LimitKind.OSCILLATES,
                lo=float(p.min()),
                hi=float(p.max()),
                evidence=evidence,
            )
    return LimitEstimate(LimitKind.UNDETERMINED, evidence=evidence)


def improper_integral(ts, f, a, horizons, *, h, config=LimitConfig()):
    """Improper delta integral of a scalar integrand over [a, +inf).

    Partial integrals are computed at each horizon (all members of the
    scale, strictly increasing) with dense sampling step ``h``; the
    resulting sequence is classified by classify_limit.
    """
    horizons = [float(b) for b in horizons]
    if len(horizons) < config.window:
        raise InsufficientHorizons(
            f"need at least {config.window} horizons, got {len(horizons)}"
        )
    if not all(x < y for x, y in zip(horizons, horizons[1:])):
        raise InsufficientHorizons("horizons must be strictly increasing")
    a = ts.snap(a)
    if not horizons[0] > a:
        raise InsufficientHorizons("horizons must lie beyond the left endpoint")
    for b in horizons:
        if not ts.contains(b):
            raise NotInTimeScale(f"horizon {b!r} is not in the time scale")

    partials, total, prev = [], 0.0, a
    for b in horizons:
        grid = ts.build_grid(prev, b, h)
        gf = GridFunction.from_callable(grid, f, extend=False)
        if gf.dim != 1:
            raise DimensionMismatch("improper integrand must be scalar-valued")
        total += float(delta_integral(gf, *grid.window)[0])
        partials.append(total)
        prev = b
        del grid, gf  # before the next grid is sampled
    return classify_limit(list(zip(horizons, partials)), config)


# ---------------------------------------------------------------------------
# identity pack


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute residuals of the standard delta-calculus identities
    for a pair of scalar grid functions f, g on one grid.

    shift_rule        f(sigma) = f + mu * f_delta
    product_left      (fg)_delta = f_delta * g(sigma) + f * g_delta
    product_right     (fg)_delta = f_delta * g + f(sigma) * g_delta
    parts_sigma_f     int f(sigma) g_delta = [fg] - int f_delta g
    parts_plain_f     int f g_delta = [fg] - int f_delta g(sigma)

    Residuals are reported over the largest prefix window on which every
    factor is defined, split into scattered-node and dense-node maxima for
    the pointwise rules (integration-by-parts residuals are single scalars).
    """

    shift_rule: float
    product_left: float
    product_right: float
    parts_sigma_f: float
    parts_plain_f: float
    shift_rule_scattered: float
    shift_rule_dense: float
    product_left_scattered: float
    product_left_dense: float
    product_right_scattered: float
    product_right_dense: float

    def max_residual(self):
        return max(
            self.shift_rule,
            self.product_left,
            self.product_right,
            self.parts_sigma_f,
            self.parts_plain_f,
        )

    def to_dict(self):
        return {
            "shift_rule": self.shift_rule,
            "product_left": self.product_left,
            "product_right": self.product_right,
            "parts_sigma_f": self.parts_sigma_f,
            "parts_plain_f": self.parts_plain_f,
        }


def _split_max(res, scat_mask):
    """(overall, scattered-only, dense-only) maxima of |res|."""
    res = np.abs(res)
    overall = float(res.max()) if len(res) else 0.0
    s = float(res[scat_mask].max()) if scat_mask.any() else 0.0
    d = float(res[~scat_mask].max()) if (~scat_mask).any() else 0.0
    return overall, s, d


def identity_pack(f, g):
    """Check the shift rule, both product rules and both integration-by-parts
    forms for scalar grid functions f and g on the same grid."""
    if f.grid is not g.grid and not np.array_equal(f.grid.nodes, g.grid.nodes):
        raise DimensionMismatch("identity pack needs both functions on one grid")
    if f.dim != 1 or g.dim != 1:
        raise DimensionMismatch("identity pack handles scalar functions only")
    grid = f.grid
    m = len(grid)
    if m < 3:
        raise GridTooSmall("need at least three nodes for the identity pack")

    fg = GridFunction(grid, f.values * g.values,
                      sigma_last=None if f.sigma_last is None or g.sigma_last is None
                      else f.sigma_last * g.sigma_last)
    fd, def_fd = delta_derivative_all(f)
    gd, def_gd = delta_derivative_all(g)
    pd, def_pd = delta_derivative_all(fg)
    fs, def_fs = sigma_shift_all(f)
    gs, def_gs = sigma_shift_all(g)

    defined = def_fd & def_gd & def_pd & def_fs & def_gs
    K = int(np.nonzero(defined)[0].max()) + 1 if defined.any() else 0
    if K < 2 or not defined[:K].all():
        raise GridTooSmall("too few nodes with defined derivatives")

    v_f, v_g = f.values[:K], g.values[:K]
    fd, gd, pd = fd[:K], gd[:K], pd[:K]
    fs, gs = fs[:K], gs[:K]
    mu = grid.mu_at(slice(0, K))[:, None]
    scat = grid.scattered_at(slice(0, K))

    r_shift = fs - (v_f + mu * fd)
    r_left = pd - (fd * gs + v_f * gd)
    r_right = pd - (fd * v_g + fs * gd)
    shift_all, shift_s, shift_d = _split_max(r_shift[:, 0], scat)
    left_all, left_s, left_d = _split_max(r_left[:, 0], scat)
    right_all, right_s, right_d = _split_max(r_right[:, 0], scat)

    # integration by parts over [t_0, t_{K-1}]
    sub = grid.prefix(K)
    lo, hi = sub.window
    boundary = float((f.values[K - 1] * g.values[K - 1] - f.values[0] * g.values[0])[0])

    def integ(vals):
        return float(delta_integral(GridFunction(sub, vals), lo, hi)[0])

    parts_sigma_f = abs(integ(fs * gd) - (boundary - integ(fd * v_g)))
    parts_plain_f = abs(integ(v_f * gd) - (boundary - integ(fd * gs)))

    return IdentityReport(
        shift_rule=shift_all,
        product_left=left_all,
        product_right=right_all,
        parts_sigma_f=parts_sigma_f,
        parts_plain_f=parts_plain_f,
        shift_rule_scattered=shift_s,
        shift_rule_dense=shift_d,
        product_left_scattered=left_s,
        product_left_dense=left_d,
        product_right_scattered=right_s,
        product_right_dense=right_d,
    )
