"""Shared randomized generators for the suite.

Time scales are assembled from binary-exact coordinates (multiples of 1/128)
so membership never hinges on decimal rounding, and every gap between
segments is at least 0.3 -- far above the 1e-12 membership tolerance.
Polynomials come with coefficient bounds chosen so the documented dense-grid
error budgets hold with a wide margin.
"""

import math

import numpy as np

from tsvar import (
    ArithmeticTail,
    ClosedInterval,
    DiscretePoints,
    Lagrangian,
    LimitConfig,
    LimitEstimate,
    LimitKind,
    NotInTimeScale,
    SampleGrid,
    TimeScaleSpec,
    UnboundedRay,
    classify_limit,
    delta_derivative_all,
    sigma_shift_all,
    union,
)
from tsvar import variational
from tsvar.timescale import PointClass, Side, tol_at

#: a comb of 20 unit-spaced half intervals, an isolated point and a ray: 20
#: seams where a continuous stretch ends in a jump
COMB = union(
    *(ClosedInterval(float(k), k + 0.5) for k in range(20)),
    DiscretePoints((20.75,)),
    UnboundedRay(21.0),
)


def mask_grid(scattered):
    """A grid on 0, 1, ..., m-1 with the given right-scattered mask."""
    scat = np.asarray(scattered, dtype=bool)
    return SampleGrid(np.arange(len(scat), dtype=float), scat.astype(float), scat, 1.0)


def q128(rng, lo, hi):
    """Uniform draw from [lo, hi] on the 1/128 lattice (binary exact)."""
    return float(rng.integers(round(lo * 128), round(hi * 128) + 1)) / 128.0


def random_mixed_scale(rng, max_bounded=3):
    """A scale with up to ``max_bounded`` bounded segments plus a tail.

    Mixes closed intervals and finite point sets; the tail is a ray or an
    arithmetic progression with step >= 0.3.
    """
    segs = []
    t = q128(rng, -1.0, 1.0)
    for _ in range(int(rng.integers(0, max_bounded + 1))):
        if rng.random() < 0.5:
            length = q128(rng, 0.3, 1.2)
            segs.append(ClosedInterval(t, t + length))
            t += length
        else:
            pts = [t]
            for _ in range(int(rng.integers(0, 3))):
                t += q128(rng, 0.3, 0.8)
                pts.append(t)
            segs.append(DiscretePoints(tuple(pts)))
        t += q128(rng, 0.3, 1.0)  # gap before the next segment
    if rng.random() < 0.5:
        segs.append(UnboundedRay(t))
    else:
        segs.append(ArithmeticTail(t, q128(rng, 0.3, 1.1)))
    return TimeScaleSpec(tuple(segs))


def random_scattered_scale(rng, max_bounded=2):
    """A purely scattered scale: point sets plus an arithmetic tail."""
    segs = []
    t = q128(rng, -1.0, 1.0)
    for _ in range(int(rng.integers(0, max_bounded + 1))):
        pts = [t]
        for _ in range(int(rng.integers(0, 3))):
            t += q128(rng, 0.3, 0.9)
            pts.append(t)
        segs.append(DiscretePoints(tuple(pts)))
        t += q128(rng, 0.3, 1.0)
    segs.append(ArithmeticTail(t, q128(rng, 0.3, 1.1)))
    return TimeScaleSpec(tuple(segs))


def random_member(rng, ts, max_hops=10):
    """A member of ``ts`` reached by random sampling steps from the start."""
    t = ts.a
    for _ in range(int(rng.integers(0, max_hops + 1))):
        t = ts.advance(t, float(rng.uniform(0.05, 0.4)))
    return t


def structural_members(ts, lo, hi):
    """Members of ``ts`` in [lo, hi] that every sampling grid contains
    exactly: isolated points, interval endpoints, and tail nodes.  (Interior
    points of a continuous stretch depend on the step and may miss.)"""
    out = []
    for seg in ts.segments:
        if isinstance(seg, DiscretePoints):
            out.extend(p for p in seg.values if lo <= p <= hi)
        elif isinstance(seg, ClosedInterval):
            out.extend(v for v in (seg.lo, seg.hi) if lo <= v <= hi)
        elif isinstance(seg, UnboundedRay):
            if lo <= seg.start <= hi:
                out.append(seg.start)
        elif isinstance(seg, ArithmeticTail):
            k = max(0, int(np.ceil((lo - seg.start) / seg.step - 1e-9)))
            t = seg.start + k * seg.step
            while t <= hi:
                out.append(t)
                t += seg.step
    return sorted(out)


def translated(ts, t0):
    """``ts`` moved right by t0; exact for the 1/128-lattice scales above
    while t0 + t needs at most 53 bits."""
    segs = []
    for seg in ts.segments:
        if isinstance(seg, ClosedInterval):
            segs.append(ClosedInterval(seg.lo + t0, seg.hi + t0))
        elif isinstance(seg, DiscretePoints):
            segs.append(DiscretePoints(tuple(v + t0 for v in seg.values)))
        elif isinstance(seg, UnboundedRay):
            segs.append(UnboundedRay(seg.start + t0))
        else:
            segs.append(ArithmeticTail(seg.start + t0, seg.step))
    return TimeScaleSpec(tuple(segs))


def reference_build_grid(ts, lo, hi, h):
    """The grid of ts.build_grid(lo, hi, h) built as whole arrays, as
    build_grid once built it: np.linspace over each continuous stretch, the
    point sets' and tails' members, all concatenated; the reference for the
    grid of stretches.  lo and hi must be members with lo < hi."""
    lo, hi = ts.snap(lo), ts.snap(hi)
    node_chunks, mu_chunks = [], []
    for i, seg in enumerate(ts.segments):
        if seg.minimum() > hi + tol_at(hi):
            break
        smax = seg.maximum()
        if smax is not None and smax < lo - tol_at(lo):
            continue
        nxt_min = ts.segments[i + 1].minimum() if i + 1 < len(ts.segments) else None
        if isinstance(seg, DiscretePoints):
            vals = np.asarray(seg.values)
            j0 = int(np.searchsorted(vals, lo - tol_at(lo), side="left"))
            j1 = int(np.searchsorted(vals, hi + tol_at(hi), side="right"))
            node_chunks.append(vals[j0:j1])
            mu_chunks.append(np.diff(np.append(vals, nxt_min))[j0:j1])
        elif isinstance(seg, ArithmeticTail):
            k0, k1 = max(0, seg._k_ceil(lo)), seg._k_floor(hi)
            pts = seg.member(np.arange(k0, k1 + 1, dtype=float))
            node_chunks.append(pts)
            mu_chunks.append(np.full(len(pts), seg.step))
        else:
            w_lo = max(lo, seg.minimum())
            w_hi = hi if smax is None else min(hi, smax)
            if w_hi < w_lo:
                continue
            if w_hi == w_lo:
                pts = np.array([w_lo])
            else:
                n = max(1, math.ceil((w_hi - w_lo) / h - 1e-12))
                pts = np.linspace(w_lo, w_hi, n + 1)
            mus = np.zeros(len(pts))
            if smax is not None and w_hi == smax:
                mus[-1] = nxt_min - smax
            node_chunks.append(pts)
            mu_chunks.append(mus)
    nodes, mu = np.concatenate(node_chunks), np.concatenate(mu_chunks)
    return SampleGrid(nodes, mu, mu > 0, float(h))


def reference_snap(seg, t):
    """The member of ``seg`` that t names, or None: the membership test and
    snap that each segment kind once kept for itself."""
    tol = tol_at(t)
    if isinstance(seg, ClosedInterval):
        return min(max(t, seg.lo), seg.hi) if seg.lo - tol <= t <= seg.hi + tol else None
    if isinstance(seg, UnboundedRay):
        return max(t, seg.start) if t >= seg.start - tol else None
    if isinstance(seg, DiscretePoints):
        j = int(np.searchsorted(seg.values, t))
        for c in (j - 1, j):
            if 0 <= c < len(seg.values) and abs(seg.values[c] - t) <= tol:
                return seg.values[c]
        return None
    k = int(round((t - seg.start) / seg.step))
    m = seg.member(k)
    return m if k >= 0 and abs(t - m) <= tol else None


class ReferenceScale:
    """The queries of TimeScaleSpec as they were when t belonged to the
    first segment whose own test (reference_snap) accepted it."""

    def __init__(self, ts):
        self.segments = ts.segments

    def locate(self, t):
        for i, seg in enumerate(self.segments):
            m = reference_snap(seg, t)
            if m is not None:
                return i, seg, m
        raise NotInTimeScale(f"{t!r} is not in the time scale")

    def contains(self, t):
        return any(reference_snap(seg, t) is not None for seg in self.segments)

    def snap(self, t):
        return self.locate(t)[2]

    def sigma(self, t):
        i, seg, m = self.locate(t)
        s = seg.sigma_within(m)
        return s if s is not None else self.segments[i + 1].minimum()

    def rho(self, t):
        i, seg, m = self.locate(t)
        r = seg.rho_within(m)
        if r is not None:
            return r
        return m if i == 0 else self.segments[i - 1].maximum()

    def mu(self, t):
        _, seg, m = self.locate(t)
        return seg.step if isinstance(seg, ArithmeticTail) else self.sigma(t) - m

    def classify(self, t):
        m = self.snap(t)
        return PointClass(right=Side.SCATTERED if self.sigma(t) > m else Side.DENSE,
                          left=Side.SCATTERED if self.rho(t) < m else Side.DENSE)

    def advance(self, t, h):
        _, seg, m = self.locate(t)
        if self.mu(t) > 0:
            return self.sigma(t)
        hi = seg.maximum()
        return m + h if hi is None else min(m + h, hi)

    def floor_member(self, x):
        for seg in reversed(self.segments):
            m = seg.floor(x)
            if m is not None:
                return m
        raise NotInTimeScale(f"no member of the scale lies at or below {x!r}")

    def ceil_member(self, x):
        return next(m for m in (seg.ceil(x) for seg in self.segments) if m is not None)


def delta_smooth_path(ts, x_a, w_coeffs):
    """A scalar path on ``ts`` whose delta derivative is the polynomial w
    everywhere: continuous stretches integrate w classically, and each jump
    of size mu contributes mu * w exactly.

    The slope field of the result is w restricted to the scale -- continuous
    even across seams where a continuous stretch ends in a jump.  Plain
    polynomials lack this: their jump quotient differs from the left slope,
    so compositions that read the slope jump at those seams.
    """
    P = np.polynomial.polynomial
    W = P.polyint(np.asarray(w_coeffs, dtype=float))

    def wval(s):
        return P.polyval(np.asarray(s, dtype=float), w_coeffs)

    def Wval(s):
        return P.polyval(np.asarray(s, dtype=float), W)

    # x at the minimum of every segment, accumulated left to right.
    base = [float(x_a)]
    for i, seg in enumerate(ts.segments[:-1]):
        nxt = ts.segments[i + 1].minimum()
        val = base[-1]
        if isinstance(seg, ClosedInterval):
            val += float(Wval(seg.hi) - Wval(seg.lo))
            val += (nxt - seg.hi) * float(wval(seg.hi))
        elif isinstance(seg, DiscretePoints):
            pts = np.append(np.asarray(seg.values, dtype=float), nxt)
            val += float(np.sum(np.diff(pts) * wval(pts[:-1])))
        base.append(val)

    def x(t):
        t1 = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t1.shape, np.nan)
        for i, seg in enumerate(ts.segments):
            lo, hi = seg.minimum(), seg.maximum()
            m = t1 >= lo - 1e-9
            if hi is not None:
                m &= t1 <= hi + 1e-9
            m &= np.isnan(out)
            if not m.any():
                continue
            if isinstance(seg, (ClosedInterval, UnboundedRay)):
                out[m] = base[i] + Wval(t1[m]) - Wval(lo)
            elif isinstance(seg, DiscretePoints):
                pts = np.asarray(seg.values, dtype=float)
                pref = np.concatenate(
                    ([0.0], np.cumsum(np.diff(pts) * wval(pts[:-1])))
                )
                j = np.searchsorted(pts, t1[m] + 1e-9) - 1
                out[m] = base[i] + pref[j]
            else:  # ArithmeticTail
                k = np.rint((t1[m] - seg.start) / seg.step).astype(int)
                nodes = seg.start + seg.step * np.arange(int(k.max()) + 1)
                pref = np.concatenate(
                    ([0.0], np.cumsum(seg.step * wval(nodes)))
                )
                out[m] = base[i] + pref[k]
        if np.isnan(out).any():
            raise ValueError("path sampled off the time scale")
        return out if np.ndim(t) else float(out[0])

    return x


def reference_dense_runs(grid):
    """Maximal index ranges (s, e) whose cells s..e-1 are all dense, by a
    plain walk over the cells; the reference for SampleGrid.dense_runs."""
    m = len(grid)
    cell_dense = ~grid.scattered[:-1]
    runs, s = [], None
    for i in range(m - 1):
        if cell_dense[i] and s is None:
            s = i
        if not cell_dense[i] and s is not None:
            runs.append((s, i))
            s = None
    if s is not None:
        runs.append((s, m - 1))
    return runs


def reference_cell_weights(grid):
    """(w_prev, w_left, w_right) of the delta-integral cells, with a Python
    loop over the interval-to-jump seams; the reference for
    calculus._cell_weights.  Cell i integrates to
    w_prev[i] f(i-1) + w_left[i] f(i) + w_right[i] f(i+1)."""
    dt = np.diff(grid.nodes)
    scat = grid.scattered[:-1]
    w_prev = np.zeros_like(dt)
    w_left = np.where(scat, grid.mu[:-1], 0.5 * dt)
    w_right = np.where(scat, 0.0, 0.5 * dt)
    for i in np.nonzero((~scat) & grid.scattered[1:])[0]:
        if i >= 1 and not grid.scattered[i - 1]:
            prev = grid.nodes[i] - grid.nodes[i - 1]
            w_prev[i] = -(dt[i] * dt[i]) / (2.0 * prev)
            w_left[i] = dt[i] - w_prev[i]
        else:
            w_left[i] = dt[i]
        w_right[i] = 0.0
    return w_prev, w_left, w_right


def reference_cell_values(grid, v, i0, i1):
    """Cell integrals for cells i0..i1-1 of an (m, n) value array, adding
    the seam terms one cell at a time."""
    w_prev, w_left, w_right = reference_cell_weights(grid)
    sl = slice(i0, i1)
    cells = w_left[sl, None] * v[i0:i1] + w_right[sl, None] * v[i0 + 1 : i1 + 1]
    for k in np.nonzero(w_prev[sl])[0]:
        cells[k] += w_prev[i0 + k] * v[i0 + k - 1]
    return cells


def _reference_edge_derivative(ts, vs):
    """Derivative at ts[0] of the polynomial through (ts[i], vs[i]), with
    the Lagrange weights summed one point at a time."""
    x0, k = ts[0], len(ts)
    out = np.zeros_like(vs[0])
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


def reference_slopes(f):
    """(deriv, defined) of the GridFunction f by a Python loop over the
    dense runs, each run's edge stencils chosen by plain branches; the
    reference for calculus.delta_derivative_all."""
    grid, v, t = f.grid, f.values, f.grid.nodes
    m = len(grid)
    deriv, defined = np.zeros(v.shape), np.zeros(m, dtype=bool)
    for i in np.flatnonzero(grid.scattered[:-1]):
        deriv[i] = (v[i + 1] - v[i]) / grid.mu[i]
        defined[i] = True
    if grid.scattered[-1] and f.sigma_last is not None:
        deriv[-1] = (f.sigma_last - v[-1]) / grid.mu[-1]
        defined[-1] = True
    for s, e in reference_dense_runs(grid):
        nb = e - s
        defined[s:e] = True
        if nb == 1:
            deriv[s] = (v[s + 1] - v[s]) / (t[s + 1] - t[s])
            continue
        for i in range(s + 1, e):
            deriv[i] = (v[i + 1] - v[i - 1]) / (t[i + 1] - t[i - 1])
        steps = np.diff(t[s : min(s + 4, e + 1)])
        if len(steps) >= 3 and np.ptp(steps) <= 1e-9 * steps[0]:
            deriv[s] = (-4.0 * v[s] + 7.0 * v[s + 1] - 4.0 * v[s + 2] + v[s + 3]) / (2.0 * steps[0])
        else:
            n_pts = min(4, nb + 1)
            deriv[s] = _reference_edge_derivative(t[s : s + n_pts], v[s : s + n_pts])
        if not grid.scattered[e]:
            continue
        # the branch s..e-1 ends in a jump: no stencil reads node e
        if nb == 2:
            deriv[s] = deriv[e - 1] = (v[e - 1] - v[e - 2]) / (t[e - 1] - t[e - 2])
        elif nb == 3:
            back = [e - 1, e - 2, e - 3]
            deriv[s] = _reference_edge_derivative(t[s : s + 3], v[s : s + 3])
            deriv[e - 1] = _reference_edge_derivative(t[back], v[back])
        else:
            steps = np.diff(t[e - 4 : e])
            if np.ptp(steps) <= 1e-9 * steps[0]:
                deriv[e - 1] = (4.0 * v[e - 1] - 7.0 * v[e - 2] + 4.0 * v[e - 3]
                                - v[e - 4]) / (2.0 * steps[-1])
            else:
                back = [e - 1, e - 2, e - 3, e - 4]
                deriv[e - 1] = _reference_edge_derivative(t[back], v[back])
    return deriv, defined


def reference_horizon_idx(scattered, horizon_count, min_window):
    """make_horizon_plan's horizon indices among the nodes 1..i_end, for the
    ``scattered`` flags of nodes 0..i_end, by concatenating the scattered
    nodes, every stride-th dense node and the last node and sorting them
    with np.unique; the reference for variational._horizon_idx."""
    eligible = np.arange(1, len(scattered))
    scat = eligible[scattered[eligible]]
    dense = eligible[~scattered[eligible]]
    if len(dense) > 0:
        stride = max(1, len(dense) // max(1, horizon_count))
        dense = dense[::stride]
    idx = np.unique(np.concatenate([scat, dense, eligible[-1:]]))
    if len(idx) < min_window:
        idx = eligible
    return idx


def same_bits(a, b):
    """a and b hold the same float64 values, the signs of zeros included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_liminf(T, V, tails, config=LimitConfig()):
    """The lim-inf of the values V at the horizons T over the tails from
    the sorted ``tails`` (among T), by the full-length running and suffix
    minima (np.minimum.accumulate) of V: the reference for the statistics
    that liminf_over_tails, weak_max_compare and verify classify."""
    T, V, tails = (np.asarray(a, dtype=float) for a in (T, V, tails))
    pos = np.searchsorted(T, tails)
    cutoffs = list(pos) + ([len(T) - 1] if pos[-1] < len(T) - 1 else [])
    cut_T, Q = T[cutoffs], np.minimum.accumulate(V)[cutoffs]
    significant = max(config.abs_floor,
                      config.rel_tol * max(1.0, float(np.max(np.abs(V)))))
    if float(Q[0] - Q[-1]) > significant and len(Q) >= 3:
        mid = len(Q) // 2
        span1, span2 = cut_T[mid] - cut_T[0], cut_T[-1] - cut_T[mid]
        diverges = Q[-1] < -config.div_threshold or span1 > 0 and span2 > 0 and (
            (Q[mid] - Q[0]) / span1 < 0
            and (Q[-1] - Q[mid]) / span2 <= config.rate_keep * (Q[mid] - Q[0]) / span1)
        if diverges:
            return LimitEstimate(LimitKind.DIVERGES_MINUS, evidence=tuple(zip(cut_T, Q)))
    suffix = np.minimum.accumulate(V[::-1])[::-1]
    return classify_limit(list(zip(tails, suffix[pos])), config)


def whole_shift_slope(path):
    """The sigma-shift and slope of a SampledPath on its whole defined
    prefix, from the whole-grid sigma_shift_all and delta_derivative_all:
    the reference for the rows the sweep forms a block at a time."""
    return sigma_shift_all(path.x)[0][: path.K], delta_derivative_all(path.x)[0][: path.K]


def whole_lagrangian_row(problem, path):
    """L(t, x_sigma(t), x_delta(t)) along a SampledPath at the first K
    nodes, formed at once, in an array of its own."""
    shift, slope = whole_shift_slope(path)
    return np.array(problem.lagrangian.values(path.grid.nodes_at(slice(0, path.K)), shift, slope))


def difference_integral(problem, star, idx, competitors, stats=None):
    """int_a^{T'} [L(x) - L(x*)] at the nodes of ``idx`` for the
    competitors, (x, eps) pairs, on the SampledPath ``star`` of x*: the
    sweep with its competitor consumer alone.  The (rows, len(idx)) values,
    or with the _TailStats ``stats`` each row's statistics."""
    rows = variational._Competitors(problem, competitors, stats)
    F = variational._sweep(problem, star.grid, star, idx, [rows])
    return F if stats is None else rows.out


def reference_gateaux(eps_list, t_pos, rows):
    """(quotients, a_values) of the Gateaux table of the full-length horizon
    rows N(eps, T'), one per eps, at the horizon positions t_pos: the
    suffix minima and the values of each row, divided by its eps."""
    eps, rows = np.array(eps_list)[:, None], np.asarray(rows)
    quot = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, ::-1][:, t_pos] / eps
    return quot, rows[:, t_pos] / eps


def random_poly(rng, degree=2, scale=0.5):
    """Coefficients (c_0 .. c_degree) with |c_k| <= scale, c != 0."""
    while True:
        c = rng.uniform(-scale, scale, size=degree + 1)
        if np.max(np.abs(c)) > 0.1 * scale:
            return c


def poly_fn(c):
    """Vectorized t -> sum_k c_k t^k."""
    def f(t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)

    return f


def quadratic_lagrangian(rng, scale=1.0, cross=True):
    """Random L(t,u,v) = q0 u^2 + q1 uv + q2 v^2 + q3 u + q4 v (n = 1),
    with analytic partials.  Returns (q, Lagrangian).

    With ``cross=False`` the uv coefficient is zeroed, so the slope partial
    d3 = 2 q2 v + q4 reads only the slope.  Identity checks on scales where
    a continuous stretch ends in a jump need this: the shifted state u is
    discontinuous at such a seam, so any d3 that reads u is too, and the
    differentiated factor of an integration-by-parts split must stay
    continuous for the split to hold.
    """
    q = rng.uniform(-scale, scale, size=5)
    if not cross:
        q[1] = 0.0

    def eval_fn(t, u, v):
        uu, vv = u[:, 0], v[:, 0]
        return q[0] * uu**2 + q[1] * uu * vv + q[2] * vv**2 + q[3] * uu + q[4] * vv

    lag = Lagrangian(
        n=1,
        eval=eval_fn,
        d2=lambda t, u, v: (2 * q[0] * u[:, 0] + q[1] * v[:, 0] + q[3])[:, None],
        d3=lambda t, u, v: (q[1] * u[:, 0] + 2 * q[2] * v[:, 0] + q[4])[:, None],
        vectorized=True,
    )
    return q, lag
