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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationError,
    GridTooSmall,
    InsufficientHorizons,
    NotInTimeScale,
)
from .timescale import SampleGrid


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
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("grid function values must be finite")
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
        nodes = grid.nodes
        vals = _call_on_times(fn, nodes, dim)
        sigma_last = None
        if extend and grid.scattered[-1]:
            s = nodes[-1] + grid.mu[-1]
            sigma_last = _call_on_times(fn, np.array([s]), dim)[0]
        return cls(grid=grid, values=vals, sigma_last=sigma_last)


def _call_on_times(fn, times, dim=None):
    """Call a time -> value generator once on an array of m times; returns
    an (m, n) array.  An (m,) result is one column, a constant () result is
    broadcast, and any other shape raises DimensionMismatch; errors raised
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
        out = out.copy()
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
# delta derivative


def _edge_derivative(ts, vs):
    """Derivative at ts[0] of the polynomial through (ts[i], vs[i]).

    Lagrange differentiation weights at the left endpoint; used with three
    or four points (second/third order).  The extra order matters when the
    result is differentiated again, as parts_decomposition_residual does to
    the d3 row: a uniformly O(h^k) error survives one more division by h.
    """
    x0 = ts[0]
    out = np.zeros_like(vs[0])
    k = len(ts)
    for j in range(k):
        if j == 0:
            w = sum(1.0 / (x0 - ts[i]) for i in range(1, k))
        else:
            num = 1.0
            for i in range(1, k):
                if i != j:
                    num *= x0 - ts[i]
            den = 1.0
            for i in range(k):
                if i != j:
                    den *= ts[j] - ts[i]
            w = num / den
        out = out + w * vs[j]
    return out


def _branch_end_stencils(deriv, t, v, s, e):
    """Recompute slopes near a dense run whose final node e is scattered.

    The sample at node e belongs to the jump: for derived rows (sigma
    shifts, delta quotients, partials along a path) it is the post-jump
    value and is discontinuous with the dense branch s..e-1, so stencils
    for branch nodes must not reference it.  The end stencil used at e-1
    is the mirror image of the start stencil and carries the identical
    h^2/6 f''' leading error, keeping the error field constant across a
    uniform run (parts_decomposition_residual differences the d3 row).
    """
    nb = e - s  # number of branch nodes
    if nb < 2:
        return  # lone branch node: the forward quotient is all there is
    if nb == 2:
        slope = (v[e - 1] - v[e - 2]) / (t[e - 1] - t[e - 2])
        deriv[s] = slope
        deriv[e - 1] = slope
        return
    if nb == 3:
        back = np.arange(e - 1, e - 4, -1)
        deriv[s] = _edge_derivative(t[s : s + 3], v[s : s + 3])
        deriv[e - 1] = _edge_derivative(t[back], v[back])
        return
    steps = np.diff(t[e - 4 : e])
    if np.ptp(steps) <= 1e-9 * steps[0]:
        h_loc = steps[-1]
        deriv[e - 1] = (
            4.0 * v[e - 1] - 7.0 * v[e - 2] + 4.0 * v[e - 3] - v[e - 4]
        ) / (2.0 * h_loc)
    else:
        back = np.arange(e - 1, e - 5, -1)
        deriv[e - 1] = _edge_derivative(t[back], v[back])


def delta_derivative_all(f):
    """Delta derivative at every node where it is computable.

    Returns (deriv, defined): an (m, n) array and a boolean mask.  Scattered
    nodes use the exact jump quotient (the final node too, when the function
    carries a sigma_last extension); dense nodes use second-order central /
    one-sided differences; the final node of a grid ending dense is
    undefined.  Stencils within a dense run never read the run's final node
    when that node is scattered, since sampled delta-calculus rows jump
    there.
    """
    grid, v = f.grid, f.values
    m, n = v.shape
    t = grid.nodes
    deriv = np.zeros((m, n))
    defined = np.zeros(m, dtype=bool)

    scat = grid.scattered.copy()
    scat_inner = scat.copy()
    scat_inner[-1] = False
    idx = np.nonzero(scat_inner)[0]
    if len(idx):
        deriv[idx] = (v[idx + 1] - v[idx]) / grid.mu[idx, None]
        defined[idx] = True
    if scat[-1] and f.sigma_last is not None:
        deriv[-1] = (f.sigma_last - v[-1]) / grid.mu[-1]
        defined[-1] = True

    for s, e in grid.dense_runs:
        if e - s >= 2:
            # central difference written straight into deriv: no (m, n) temporaries
            inner = deriv[s + 1 : e]
            np.subtract(v[s + 2 : e + 1], v[s : e - 1], out=inner)
            inner /= (t[s + 2 : e + 1] - t[s : e - 1])[:, None]
            steps = np.diff(t[s : min(s + 4, e + 1)])
            uniform = len(steps) >= 3 and np.ptp(steps) <= 1e-9 * steps[0]
            if uniform:
                # cubic-fit derivative plus h^2/6 times the cubic's third
                # derivative: reproduces the central-difference error field
                # h^2/6 f''' at the edge, so differencing the result again
                # (parts_decomposition_residual) stays O(h^2) instead of O(h)
                h_loc = steps[0]
                deriv[s] = (
                    -4.0 * v[s] + 7.0 * v[s + 1] - 4.0 * v[s + 2] + v[s + 3]
                ) / (2.0 * h_loc)
            else:
                stencil = min(4, e - s + 1)
                deriv[s] = _edge_derivative(t[s : s + stencil], v[s : s + stencil])
            if scat[e]:
                _branch_end_stencils(deriv, t, v, s, e)
        else:  # two-node run: plain forward difference, first order
            deriv[s] = (v[s + 1] - v[s]) / (t[s + 1] - t[s])
        defined[s:e] = True
    return deriv, defined


def sigma_shift_all(f):
    """f(sigma(.)) as (values, defined) aligned with the full grid.

    The final node is undefined when it is right-scattered and f stores no
    sigma_last extension.
    """
    grid, v = f.grid, f.values
    out = v.copy()
    defined = np.ones(len(grid), dtype=bool)
    scat_inner = grid.scattered.copy()
    scat_inner[-1] = False
    idx = np.nonzero(scat_inner)[0]
    out[idx] = v[idx + 1]
    if grid.scattered[-1]:
        if f.sigma_last is None:
            defined[-1] = False
        else:
            out[-1] = f.sigma_last
    return out, defined


# ---------------------------------------------------------------------------
# delta integral


def _cell_weights(grid):
    """Per-cell quadrature split: cell i integrates to
    w_left[i] f(i) + w_right[i] f(i+1), plus w_seam[k] f(i-1) when i is
    the seam cell seams[k].  Returns (w_left, w_right, seams, w_seam).

    Scattered cells contribute mu*f(left) exactly; dense cells the
    trapezoid (dt/2)(f(left)+f(right)).  A dense cell whose right node is
    scattered is the last cell of its branch: the right sample there is the
    post-jump value of a delta-calculus row, so the trapezoid instead uses
    a linear extrapolation from the two preceding branch nodes (still
    second order, w_seam carries the extrapolation weight).  With no
    usable branch neighbor the cell falls back to the left rectangle.
    """
    nodes, scattered = grid.nodes, grid.scattered
    dt = np.diff(nodes)
    scat = scattered[:-1]
    w_left = np.where(scat, grid.mu[:-1], 0.5 * dt)
    w_right = np.where(scat, 0.0, 0.5 * dt)
    ends = np.flatnonzero(~scat & scattered[1:])
    seams = ends[(ends >= 1) & ~scattered[ends - 1]]
    w_seam = -(dt[seams] * dt[seams]) / (2.0 * (nodes[seams] - nodes[seams - 1]))
    w_left[ends] = dt[ends]
    w_left[seams] = dt[seams] - w_seam
    w_right[ends] = 0.0
    return w_left, w_right, seams, w_seam


def _cell_values(v, weights, i0, i1, out=None):
    """Cell integrals for cells i0..i1-1 of an (m, n) value array, written
    into ``out`` when given."""
    w_left, w_right, seams, w_seam = weights
    cells = np.multiply(w_left[i0:i1, None], v[i0:i1], out=out)
    cells += w_right[i0:i1, None] * v[i0 + 1 : i1 + 1]
    lo, hi = np.searchsorted(seams, (i0, i1))
    cells[seams[lo:hi] - i0] += w_seam[lo:hi, None] * v[seams[lo:hi] - 1]
    return cells


def cumulative_delta_integral(f):
    """F(t_i) = integral from the first node to t_i; an (m, n) array."""
    return _cumulative(f.values, _cell_weights(f.grid))


def _cumulative(rows, weights):
    """Prefix integrals F[j] = int_{t_0}^{t_j}, j < K, of (K,) or (K, n)
    rows at the first K nodes of the grid with _cell_weights ``weights``; F
    has the shape of rows.  Rows are not checked for finiteness."""
    v = rows.reshape(len(rows), -1)
    out = np.zeros(v.shape)
    cells = _cell_values(v, weights, 0, len(v) - 1, out=out[1:])
    np.cumsum(cells, axis=0, out=cells)
    return out.reshape(rows.shape)


#: cells per block of _cumulative_at: a block's row and node weights stay
#: in cache from the producer's call to the reduction
_BLOCK = 1 << 15


def _blocks(at):
    """Blocks (j0, j1, lo, hi) of the horizon segments j0..j1, segment j
    holding the cells at[j - 1]..at[j] - 1 (from 0 for j = 0), so that the
    block holds the nodes lo..hi: at most _BLOCK cells, or one segment that
    is longer on its own."""
    blocks, j0, lo = [], 0, 0
    while j0 < len(at):
        j1 = max(j0, int(np.searchsorted(at, lo + _BLOCK, side="right")) - 1)
        blocks.append((j0, j1, lo, int(at[j1])))
        j0, lo = j1 + 1, int(at[j1])
    return blocks


def _cumulative_at(weights, idx, rows_at):
    """_cumulative(row, weights)[idx] for strictly increasing node indices
    ``idx`` of a scalar row, without the prefix integrals at the other
    nodes.  The row is handed over block by block (_blocks of idx without
    node 0, in order): rows_at(lo, hi) returns the row at the nodes lo..hi
    and a spare buffer of at least hi - lo floats, and this routine may
    overwrite both, so a producer can reuse its buffers for every block.
    Each block is reduced to its horizons' values before the next is asked
    for, and a running sum carries from block to block, so the block size
    does not change the result.

    With c_i = w_left[i] + w_right[i-1] the weight of node i in the cells
    left of it, F[j] = sum_{i<j} c_i v_i + w_right[j-1] v_j plus the seam
    terms of the seam cells below j.  The first sum is reduced between
    consecutive horizons (np.add.reduceat) and then accumulated over the
    horizons, so it rounds differently from the cell-by-cell running sum,
    by a few ulps of the partial sums.  When there are few nodes per
    horizon, or no trapezoid cell, the running sum of the cells is taken
    instead and the result equals _cumulative's exactly."""
    idx = np.asarray(idx, dtype=np.intp)
    at = idx[1:] if idx[0] == 0 else idx  # F = 0 at node 0
    if len(at) == 0:
        return np.zeros(len(idx))
    w_left, w_right, seams, w_seam = weights
    end = int(at[-1])
    # reduceat beats the running sum only on segments of more than a few nodes
    exact = 8 * len(idx) >= end or not w_right[:end].any()
    blocks = _blocks(at)
    seams = seams[: int(np.searchsorted(seams, end))]  # the seam cells below end
    seam_terms = np.empty(len(seams))
    parts = [np.zeros(len(idx) - len(at))]
    for j0, j1, lo, hi in blocks:
        (d, spare), hz = rows_at(lo, hi), at[j0 : j1 + 1]
        # the seam cell s reads node s - 1, so its term is formed in the
        # block holding that node: lo < s <= hi
        s0, s1 = np.searchsorted(seams, (lo + 1, hi + 1))
        np.multiply(w_seam[s0:s1], d[seams[s0:s1] - 1 - lo], out=seam_terms[s0:s1])
        if exact:
            # _cell_values's cells w_left[i] d[i] + w_right[i] d[i + 1] plus
            # the seam terms; the two products are added the other way
            # round, which rounds alike, so that d[:-1], read no more, can
            # be scaled in place
            sums = np.multiply(w_right[lo:hi], d[1:], out=spare[: hi - lo])
            d_left = d[:-1]
            d_left *= w_left[lo:hi]
            sums += d_left
            k0, k1 = np.searchsorted(seams, (lo, hi))
            sums[seams[k0:k1] - lo] += seam_terms[k0:k1]
        else:
            c = spare[: hi - lo]
            np.add(w_left[lo + 1 : hi], w_right[lo : hi - 1], out=c[1:])
            c[0] = w_left[lo] + w_right[lo - 1] if lo else w_left[0]
            c *= d[:-1]
            sums = np.add.reduceat(c, np.concatenate(([0], hz[:-1] - lo)))
        if j0:
            sums[0] += carry
        np.cumsum(sums, out=sums)
        carry = sums[-1]
        parts.append(sums[hz - (lo + 1)] if exact else sums + w_right[hz - 1] * d[hz - lo])
    F = np.concatenate(parts)
    if len(seams) and not exact:  # the seam terms of the cells below each horizon
        k = np.searchsorted(seams, at)
        F[len(idx) - len(at) :][k > 0] += np.cumsum(seam_terms)[k[k > 0] - 1]
    return F


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
    cells = _cell_values(f.values, _cell_weights(f.grid), i0, i1)
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
        total += float(delta_integral(gf, grid.nodes[0], grid.nodes[-1])[0])
        partials.append(total)
        prev = b
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
    mu = grid.mu[:K, None]
    scat = grid.scattered[:K]

    r_shift = fs - (v_f + mu * fd)
    r_left = pd - (fd * gs + v_f * gd)
    r_right = pd - (fd * v_g + fs * gd)
    shift_all, shift_s, shift_d = _split_max(r_shift[:, 0], scat)
    left_all, left_s, left_d = _split_max(r_left[:, 0], scat)
    right_all, right_s, right_d = _split_max(r_right[:, 0], scat)

    # integration by parts over [t_0, t_{K-1}]
    sub = grid.prefix(K)
    lo, hi = sub.nodes[0], sub.nodes[-1]
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
