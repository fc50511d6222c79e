"""Cadlag paths on [0, 1]: representation, functionals and the J1 distance.

A path is stored as grid samples (right limits) plus an explicit jump list;
between grid points the path varies linearly toward the left limit of the next
grid point, and every functional below is exact on it.

The J1 distance is the classical incomplete Skorokhod metric

    d(x, y) = inf over time changes of max(time distortion, warped sup distance)

restricted to piecewise-linear time changes whose breakpoints match pairs from
the union of both jump sets (plus dyadic refinement points), including the
degenerate limits where a stretch of one time axis is compressed to a point.
The restriction makes the search a finite dynamic program that is exact on
pairs of step functions and an upper bound, never exceeding the uniform
distance, in general.

The program fills the anchor pairs row by row.  All affine stretches into a
row are costed in one batched numpy pass: each reachable source gathers only
the grid points inside its stretch, warped with the same floating-point
expressions a single stretch uses, so every cost is exact.  Sweep costs come
from tables built once per call.  The program serves ``j1_distance`` (its
exact minimum over the chain family), ``j1_within``, criterion 8 and the
tests; the one-big-jump estimator decides its comparison with a single step
in closed form (``diagnostics._exceeds``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

_EMPTY = np.zeros((0,))


def _as_2d(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


@dataclass(frozen=True)
class CadlagPath:
    """Right-continuous path with left limits, plus its explicit jumps.

    ``grid`` is strictly increasing with first point 0 and last point 1;
    ``values[i]`` is the right limit at ``grid[i]``; every jump time must be a
    grid point in (0, 1] and the recorded size is the exact discontinuity.
    Instances are immutable; all operations return new paths.
    """

    grid: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    jump_sizes: np.ndarray = field(default_factory=lambda: _EMPTY.copy())

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = _as_2d(self.values)
        jt = np.asarray(self.jump_times, dtype=float)
        js = _as_2d(self.jump_sizes) if len(jt) else np.zeros((0, values.shape[1]))
        if grid.ndim != 1 or len(grid) < 2:
            raise ValueError("grid needs at least the two endpoints 0 and 1")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape[0] != len(grid):
            raise ValueError("one value per grid time required")
        if len(jt):
            if np.any(np.diff(jt) <= 0):
                raise ValueError("jump times must be strictly increasing")
            if jt[0] <= 0 or jt[-1] > 1:
                raise ValueError("jump times must lie in (0, 1]")
            if js.shape != (len(jt), values.shape[1]):
                raise ValueError("one size vector per jump required")
            pos = np.searchsorted(grid, jt)
            if np.any(pos >= len(grid)) or np.any(grid[np.minimum(pos, len(grid) - 1)] != jt):
                raise ValueError("every jump time must appear in the grid")
        # left limits at grid points: value minus the discontinuity there
        left = values.copy()
        if len(jt):
            pos = np.searchsorted(grid, jt)
            left[pos] -= js
        for name, arr in (("grid", grid), ("values", values),
                          ("jump_times", jt), ("jump_sizes", js), ("_left", left)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- basics ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zero(cls, dimension: int = 1) -> "CadlagPath":
        return cls(np.array([0.0, 1.0]), np.zeros((2, dimension)))

    @classmethod
    def step(cls, time: float, size: Sequence[float]) -> "CadlagPath":
        """The one-step path size * 1_[time, 1], for a jump time in (0, 1]."""
        size = np.atleast_1d(np.asarray(size, dtype=float))
        d = size.shape[0]
        grid = np.unique(np.array([0.0, float(time), 1.0]))
        values = np.where((grid >= time)[:, None], size, np.zeros(d))
        return cls(grid, values, np.array([float(time)]), size[None, :])

    @classmethod
    def from_samples(cls, grid, values, jumps: Iterable[tuple[float, Sequence[float]]] = ()) -> "CadlagPath":
        jumps = sorted(jumps, key=lambda j: j[0])
        jt = np.array([t for t, _ in jumps], dtype=float)
        js = np.array([np.atleast_1d(s) for _, s in jumps], dtype=float) if jumps else _EMPTY.copy()
        return cls(np.asarray(grid, dtype=float), values, jt, js)

    # -- evaluation ----------------------------------------------------------

    @functools.cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Length of each grid interval and the rise across it, from the
        right value at its start to the left limit at its end."""
        return np.diff(self.grid), self._left[1:] - self.values[:-1]

    def _sides_at(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left limits and right values at arbitrary times, vectorized.

        Off the grid both sides are the same interpolated value, and the two
        returned arrays may then be one read-only array.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        g, V, L = self.grid, self.values, self._left
        span, rise = self._segments
        m = len(g)
        idx = np.searchsorted(g, t, side="right") - 1
        np.clip(idx, 0, m - 1, out=idx)
        k = np.minimum(idx, m - 2)
        inner = V[k] + ((t - g[k]) / span[k])[:, None] * rise[k]
        last = idx == m - 1
        if last.any():  # at or past time 1 the interpolation stops
            inner[last] = V[m - 1] + 0.0 * (L[m - 1] - V[m - 1])
        exact = g[idx] == t
        if not exact.any():
            inner.flags.writeable = False
            return inner, inner
        right = inner.copy()
        right[exact] = V[idx[exact]]
        inner[exact] = L[idx[exact]]
        return inner, right

    def value_at(self, time: float) -> np.ndarray:
        """Right-continuous value at ``time``."""
        return self._sides_at(np.array([time]))[1][0].copy()

    def left_limit_at(self, time: float) -> np.ndarray:
        return self._sides_at(np.array([time]))[0][0].copy()

    # -- algebra -------------------------------------------------------------

    def scaled(self, factor: float) -> "CadlagPath":
        return CadlagPath(self.grid, self.values * factor, self.jump_times,
                          self.jump_sizes * factor if len(self.jump_times) else _EMPTY.copy())


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------

def sup_norm(x: CadlagPath) -> float:
    """sup of the Euclidean norm over [0, 1]; left limits count toward the sup."""
    norms = np.linalg.norm(x.values, axis=1)
    left = np.linalg.norm(x._left, axis=1)
    return float(max(norms.max(), left.max()))


def one_step_approx(x: CadlagPath) -> CadlagPath:
    """The single-step path carrying the first jump of maximal norm; zero
    path if x has none."""
    if len(x.jump_times) == 0:
        return CadlagPath.zero(x.dimension)
    norms = np.linalg.norm(x.jump_sizes, axis=1)
    k = int(np.argmax(norms))
    return CadlagPath.step(float(x.jump_times[k]), x.jump_sizes[k])


def uniform_distance(x: CadlagPath, y: CadlagPath) -> float:
    """sup_t |x_t - y_t|, exact on the piecewise-linear representation."""
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    times = np.union1d(x.grid, y.grid)
    xl, xr = x._sides_at(times)
    yl, yr = y._sides_at(times)
    dl = np.linalg.norm(xl - yl, axis=1)
    dr = np.linalg.norm(xr - yr, axis=1)
    return float(max(dl.max(), dr.max()))


# ---------------------------------------------------------------------------
# The J1 distance
# ---------------------------------------------------------------------------

def _dyadic_points(count: int) -> np.ndarray:
    """First ``count`` points of the dyadic enumeration 1/2, 1/4, 3/4, 1/8, ..."""
    pts: list[float] = []
    level = 2
    while len(pts) < count:
        pts.extend(k / level for k in range(1, level, 2))
        level *= 2
    return np.array(pts[:count], dtype=float)


# Most grid points gathered into one batch of the dynamic program; a single
# stretch longer than this gets a batch of its own.
_BATCH_POINTS = 1 << 14


def _dot_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, rounded as ``np.linalg.norm`` rounds
    a single vector (a BLAS dot product, which may differ from
    ``np.linalg.norm(a, axis=-1)`` in the last bit)."""
    return np.sqrt(np.vecdot(a, a))


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over the pairs of ``starts`` and ``counts``."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)


def _segment_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maximum of each consecutive run of ``counts`` values; 0 for an empty run."""
    out = np.zeros(len(counts))
    full = counts > 0
    if full.any():
        out[full] = np.maximum.reduceat(values, (np.cumsum(counts) - counts)[full])
    return out


def _sweep_table(fixed: np.ndarray, path: CadlagPath, anchors: np.ndarray,
                 right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Costs of holding one time axis at an anchor while the other sweeps.

    Entry ``[k, j]`` is sup |fixed[k] - path(v)| over v in [a_j, a_{j+1}],
    with the right value ``right[j]`` at a_j, the left limit ``left[j + 1]``
    at a_{j+1} and both sides at the grid points strictly between.
    """
    ends = np.maximum(_dot_norm(fixed[:, None, :] - right[None, :-1, :]),
                      _dot_norm(fixed[:, None, :] - left[None, 1:, :]))
    g = path.grid
    inner = np.flatnonzero(~np.isin(g, anchors))
    if len(inner) == 0:
        return ends
    seg = np.searchsorted(anchors, g[inner]) - 1
    runs = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    pl, pv = path._left[inner], path.values[inner]
    cols = seg[runs]
    rows = max(1, _BATCH_POINTS // len(inner))
    for k in range(0, len(fixed), rows):
        f = fixed[k:k + rows, None, :]
        c = np.maximum(np.linalg.norm(pl[None] - f, axis=-1),
                       np.linalg.norm(pv[None] - f, axis=-1))
        ends[k:k + rows, cols] = np.maximum(ends[k:k + rows, cols],
                                            np.maximum.reduceat(c, runs, axis=1))
    return ends


def _stretch_costs(x: CadlagPath, y: CadlagPath, anchors: np.ndarray,
                   bounds: tuple[np.ndarray, ...], i0: np.ndarray, j0: np.ndarray,
                   i: int, j: np.ndarray) -> np.ndarray:
    """Sup distance along the affine stretches (p_i0, q_j0) -> (p_i, q_j).

    Only grid points strictly inside a stretch count: those of x are sent to
    y's time axis and those of y to x's, with the floating-point expressions
    of a single stretch, so every cost is exact.  Each stretch gathers only
    its own points, in batches of about ``_BATCH_POINTS`` points.
    """
    xlo, xhi, ylo, yhi = bounds
    p0, q0 = anchors[i0], anchors[j0]
    slope = (anchors[j] - q0) / (anchors[i] - p0)
    nx = xhi[i] - xlo[i0]
    ny = yhi[j] - ylo[j0]
    total = np.cumsum(nx + ny)
    out = np.empty(len(i0))
    a = 0
    while a < len(i0):
        before = total[a] - nx[a] - ny[a]
        b = max(a + 1, int(np.searchsorted(total, before + _BATCH_POINTS, side="right")))
        s, n = slice(a, b), nx[a:b]
        idx = _ragged_arange(xlo[i0[s]], n)
        yl, yr = y._sides_at(np.repeat(q0[s], n)
                             + (x.grid[idx] - np.repeat(p0[s], n)) * np.repeat(slope[s], n))
        cost = _segment_max(np.maximum(np.linalg.norm(x._left[idx] - yl, axis=-1),
                                       np.linalg.norm(x.values[idx] - yr, axis=-1)), n)
        n = ny[a:b]
        idx = _ragged_arange(ylo[j0[s]], n)
        xl, xr = x._sides_at(np.repeat(p0[s], n)
                             + (y.grid[idx] - np.repeat(q0[s], n)) / np.repeat(slope[s], n))
        out[s] = np.maximum(cost, _segment_max(
            np.maximum(np.linalg.norm(xl - y._left[idx], axis=-1),
                       np.linalg.norm(xr - y.values[idx], axis=-1)), n))
        a = b
    return out


def j1_distance(x: CadlagPath, y: CadlagPath, refinement: int = 8) -> float:
    """Approximate J1 distance: exact on step-function pairs, else an upper
    bound never exceeding the uniform distance; the exact minimum of
    max(time distortion, warped sup distance) over the chain family.

    Chains of matched time pairs over the anchor set (endpoints, both jump
    sets, dyadic refinement points), each anchor pair carrying a left/right
    side, connected by affine stretches, axis-parallel sweeps and diagonal
    jump crossings.  ``fL[i][j]`` and ``fR[i][j]`` are the cheapest chains
    arriving at the left and right side of the anchor pair (p_i, q_j).

    Rows i are filled in order.  Every affine stretch into row i leaves the
    right side of a pair in an earlier row, so all of them are costed in one
    batched pass per row (``_stretch_costs``), over the feasible sources of
    each target (i, j): the reachable (i0 < i, j0 < j) with ``fR[i0][j0]``
    below what the target already holds.  A scalar pass along the row then
    adds the diagonal crossings and the sweeps, whose costs come from four
    tables (``_sweep_table``) built once per call.  Unreachable entries stay
    inf and are skipped.
    """
    if x.dimension != y.dimension:
        raise ValueError(f"dimension mismatch: {x.dimension} vs {y.dimension}")
    anchors = np.unique(np.concatenate([
        np.array([0.0, 1.0]), x.jump_times, y.jump_times, _dyadic_points(refinement)]))
    K = len(anchors)
    XL, XR = x._sides_at(anchors)
    YL, YR = y._sides_at(anchors)
    tdist = np.abs(anchors[None, :] - anchors[:, None])  # tdist[i, j] = |q_j - p_i|
    nodeL = np.maximum(tdist, np.linalg.norm(XL[:, None, :] - YL[None, :, :], axis=-1))
    nodeR = np.maximum(tdist, np.linalg.norm(XR[:, None, :] - YR[None, :, :], axis=-1))
    inf = float("inf")

    # the grid points strictly between anchors k < l are [lo[k], hi[l])
    bounds = (np.searchsorted(x.grid, anchors, side="right"),
              np.searchsorted(x.grid, anchors, side="left"),
              np.searchsorted(y.grid, anchors, side="right"),
              np.searchsorted(y.grid, anchors, side="left"))
    # per side: (x held at p_i while y sweeps [q_j, q_j+1], indexed [i][j];
    #            y held at q_j while x sweeps [p_i, p_i+1], indexed [j][i])
    sweeps = [(_sweep_table(xv, y, anchors, YR, YL).tolist(),
               _sweep_table(yv, x, anchors, XR, XL).tolist())
              for xv, yv in ((XL, YL), (XR, YR))]
    nodes = (nodeL.tolist(), nodeR.tolist())
    nR = nodes[1]
    fL = [[inf] * K for _ in range(K)]
    fR = [[inf] * K for _ in range(K)]
    fR[0][0] = nR[0][0]
    done = np.full((K, K), inf)  # fR of the finished rows

    for i in range(K):
        rowL, rowR = fL[i], fR[i]
        if i > 0:
            # affine stretches leave right sides and land on the left side of (i, j)
            held = np.array(rowL)
            tj = np.flatnonzero(nodeL[i] < held)
            tj = tj[tj > 0]
            i0, j0 = np.nonzero(done[:i] < inf)
            prev = done[i0, j0]
            t, s = np.nonzero((j0 < tj[:, None]) & (prev < held[tj][:, None]))
            if len(t):
                tgt = tj[t]
                cost = np.maximum(np.maximum(prev[s], nodeL[i, tgt]),
                                  _stretch_costs(x, y, anchors, bounds, i0[s], j0[s], i, tgt))
                best = np.full(K, inf)
                np.minimum.at(best, tgt, cost)
                for j, c in zip(tj.tolist(), best[tj].tolist()):
                    if c < rowL[j]:
                        rowL[j] = c
        for j in range(K):
            # diagonal crossing of the anchor pair: left side to right side
            c = max(rowL[j], nR[i][j])
            if c < rowR[j]:
                rowR[j] = c
            # axis-parallel sweeps to the next anchor, staying on one side;
            # arriving at an anchor pair charges that pair's sided cost, so
            # longer sweeps compose exactly from adjacent ones
            for f, node, (along_y, along_x) in zip((fL, fR), nodes, sweeps):
                cur = f[i][j]
                if cur == inf:
                    continue
                if j + 1 < K:
                    c = max(cur, along_y[i][j], node[i][j + 1])
                    if c < f[i][j + 1]:
                        f[i][j + 1] = c
                if i + 1 < K:
                    c = max(cur, along_x[j][i], node[i + 1][j])
                    if c < f[i + 1][j]:
                        f[i + 1][j] = c
        done[i] = rowR
    return fR[K - 1][K - 1]


def j1_within(x: CadlagPath, y: CadlagPath, eps: float, refinement: int = 8) -> bool:
    """Whether the (approximate) J1 distance is at most ``eps``:
    ``j1_distance(x, y, refinement) <= eps``."""
    return j1_distance(x, y, refinement) <= eps
