"""Monte Carlo verification machinery for heavy-tail limit statements.

Estimators here turn the asymptotic statements about the simulated processes
into finite-sample checks: crude tail probabilities with binomial (Wald)
standard errors and Wilson score intervals, Hill tail-index recovery, Breiman
product-tail ratios, tail equivalence of running sup and endpoint,
conditional path-distance curves for the one-big-jump approximation, and the
two auxiliary bounds (a decoupled maximal-product tail bound and the
vanishing rate of seeing two or more above-threshold jumps).

Conditioning events with zero Monte Carlo hits yield ``None`` entries rather
than zeros, so downstream trend fits skip them instead of faking convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import (AUX_STREAM, GAUSS_STREAM, INTEGRAND_STREAM, JUMP_STREAM, chunks,
                   rekey, scratch, seek, substream)
from .levy_sim import (ExpOUIntegrand, IntegrandSpec, LevyModel, _draw_jumps,
                       _first_columns, _gaussian_walk, _integrand_values, _pareto_radii,
                       _power_mean, _row_blocks, batch_integral_functionals)
from .regvar import RegVarMeasure, ScalingSequence, weighted_one_step_mass

# ``sampler(rng, out)`` fills the float array ``out`` with i.i.d. draws from
# ``rng``, in C order, in place; its return value is ignored.  The estimators
# pass their chunk's scratch buffers (``_rng.scratch``) as ``out``.  The
# generator type is a string, since ``np.random.Generator`` would import
# ``numpy.random`` at start-up, which ``bigjump validate`` never uses.
BatchSampler = Callable[["np.random.Generator", np.ndarray], object]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance probability estimate: p_hat = hits/n with its Wald binomial
    stderr, which is 0 at 0 and n hits; ``wilson`` gives an interval that
    keeps its width there."""

    u: float
    n: int
    hits: int

    def __post_init__(self):
        if not 0 <= self.hits <= self.n:
            raise ValueError("hits must lie in [0, n]")

    @property
    def p_hat(self) -> float:
        return self.hits / self.n

    @property
    def stderr(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.n)

    def wilson(self, z: float = 1.959963984540054) -> tuple[float, float]:
        """Wilson score interval for the exceedance probability, by default
        at 95% (z = 1.96).

        Closed form: centre (p + z^2/2n) / (1 + z^2/n) and half-width
        z sqrt(p (1 - p)/n + z^2/4n^2) / (1 + z^2/n).  At 0 hits it is
        [0, z^2/(n + z^2)], and at n hits [n/(n + z^2), 1].
        """
        if not z > 0:
            raise ValueError("z must be positive")
        n, p, z2 = self.n, self.p_hat, z * z
        scale = 1.0 + z2 / n
        centre = (p + z2 / (2 * n)) / scale
        half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / scale
        lo = 0.0 if self.hits == 0 else max(0.0, centre - half)
        hi = 1.0 if self.hits == n else min(1.0, centre + half)
        return lo, hi


@dataclass(frozen=True)
class HillEstimate:
    n: int
    k: int
    alpha_hat: float

    @property
    def stderr(self) -> float:
        return self.alpha_hat / math.sqrt(self.k)


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio of two correlated exceedance counts with delta-method stderr.

    ``ratio`` is None when the denominator saw no hits (undefined, not zero).
    """

    u: float
    ratio: Optional[float]
    stderr: Optional[float]
    numerator_hits: int
    denominator_hits: int
    n: int


@dataclass(frozen=True)
class ConditionalDistanceCurve:
    """P(distance > epsilon | conditioning event) along increasing levels."""

    epsilon: float
    levels: tuple[float, ...]
    conditioning: str  # "sup" (process exceeds) or "jump" (approximation exceeds)
    estimates: tuple[Optional[TailEstimate], ...]

    def fitted_slope(self) -> Optional[float]:
        """Least-squares slope of the conditional probability against log u."""
        pts = [(u, e.p_hat) for u, e in zip(self.levels, self.estimates) if e is not None]
        if len(pts) < 2:
            return None
        lx = np.log([p[0] for p in pts])
        py = np.array([p[1] for p in pts])
        return float(np.polyfit(lx, py, 1)[0])


def hill(sample: Sequence[float], k: int) -> HillEstimate:
    """Hill tail-index estimate from the k largest order statistics."""
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, n), got k={k}, n={n}")
    if np.any(x <= 0):
        raise ValueError("Hill estimation needs strictly positive data")
    top = np.sort(np.partition(x, n - k - 1)[n - k - 1:])
    logs = np.log(top[1:]) - math.log(top[0])
    return HillEstimate(n, k, float(k / logs.sum()))


# ---------------------------------------------------------------------------
# Ratio estimators on shared replicates
# ---------------------------------------------------------------------------

def _joint_counts(num: np.ndarray, den: np.ndarray, u: float) -> np.ndarray:
    """Counts of num > u, den > u and both."""
    a, b = num > u, den > u
    return np.array([np.count_nonzero(a), np.count_nonzero(b), np.count_nonzero(a & b)])


def _delta_ratio(u: float, a: int, b: int, ab: int, n: int) -> RatioEstimate:
    """Ratio of exceedance frequencies, from the counts of numerator,
    denominator and joint hits, with delta-method standard error."""
    a, b = int(a), int(b)
    if b == 0:
        return RatioEstimate(u, None, None, a, b, n)
    pa, pb = a / n, b / n
    pab = int(ab) / n
    var = (pa * (1 - pa) / pb ** 2
           + pa ** 2 * pb * (1 - pb) / pb ** 4
           - 2 * pa * (pab - pa * pb) / pb ** 3) / n
    return RatioEstimate(u, pa / pb, math.sqrt(max(var, 0.0)), a, b, n)


def breiman_ratio(x_sampler: BatchSampler, y_sampler: BatchSampler,
                  levels: Sequence[float], n: int, seed: int,
                  threads: int = 1) -> list[RatioEstimate]:
    """P(YX > u) / P(X > u) on shared X replicates, per level; the chunks run
    on ``threads`` threads, with the same result.

    Each sampler fills a chunk's X or Y array in place (see ``BatchSampler``);
    both arrays are the running thread's scratch buffers, reused chunk after
    chunk, and Y becomes YX in place."""
    levels = list(levels)

    def counts(i: int, start: int, stop: int) -> np.ndarray:
        x = scratch("breiman.x", stop - start)
        yx = scratch("breiman.yx", stop - start)
        x_sampler(substream(seed, i, AUX_STREAM), x)
        y_sampler(substream(seed, i, AUX_STREAM + 1), yx)
        yx *= x
        return np.array([_joint_counts(yx, x, u) for u in levels])

    total = np.sum(chunks(n, _CHUNK, counts, threads), axis=0)
    return [_delta_ratio(u, *total[i], n) for i, u in enumerate(levels)]


def tail_equivalence(model: LevyModel, integrand: IntegrandSpec, t: float,
                     levels: Sequence[float], n: int, seed: int,
                     grid_size: int = 512, threads: int = 1) -> list[RatioEstimate]:
    """P(sup_{s<=t} (Y.X)_s > u) / P((Y.X)_t > u) on shared replicates; the
    replicate batches run on ``threads`` threads, with the same result."""
    if any(u <= 0 for u in levels):
        raise ValueError("levels must be positive")
    counts = batch_integral_functionals(
        model, integrand, t, n, seed,
        lambda endpoint, runsup: [_joint_counts(runsup, endpoint, u) for u in levels],
        grid_size=grid_size, threads=threads)
    return [_delta_ratio(float(u), *total, n) for u, total in zip(levels, np.sum(counts, axis=0))]


def analytic_prediction(measure: RegVarMeasure, integrand: IntegrandSpec,
                        t: float, u: float, grid_size: int = 4096) -> float:
    """Limit-measure prediction c * u**-alpha * integral over [0, t] of
    sum over the atoms (s, w) of w * E(Y_v * s)_+ ** alpha.

    The inner expectation is closed form (``_power_mean``) and the time
    integral trapezoid quadrature on the uniform grid of ``grid_size`` steps,
    which ``t`` must be a point of.  For a one-dimensional model.
    """
    profile = lambda grid: _power_mean(integrand, measure.alpha, grid)
    return weighted_one_step_mass(measure, profile, t, grid_size) * u ** -measure.alpha


# ---------------------------------------------------------------------------
# One-big-jump conditional distance curves
# ---------------------------------------------------------------------------

# Replicates per screening block of ``one_big_jump_curve``; small blocks keep
# the padded arrays, and so peak memory, small.
_SCREEN_BLOCK = 64


def _screen(model: LevyModel, integrand: Optional[IntegrandSpec], seed: int,
            reps: Sequence[int], grid_size: int) -> tuple[np.ndarray, ...]:
    """W and its one-jump approximation for whole replicates at once, without
    building paths.

    Regenerates each replicate's jump, Gaussian and integrand draws from its
    keyed streams (the same draws, in the same order, as the per-replicate
    samplers), pads them to arrays of shape (replicates, grid_size + 1 + kmax)
    on the merged grid and applies the samplers' transforms and the exact
    integral to the arrays.  Padding repeats each replicate's value at time 1,
    so it changes no supremum.  Returns ``_exceeds``'s arrays: the merged
    grid (B, M), W's right values and left limits there (B, M, d), the
    approximation's jump A (B, d) and its time tau (B,) (A = 0 and tau = 2
    without jumps).

    Every jump takes its own slot after the grid points at or before it, so
    a jump at a grid time follows that grid point and equal jump times take
    consecutive slots, each a zero-length piece of W.  Equal-time jumps are
    summed into the last of their slots, the others jumping by 0, so W never
    passes through a value between them.  An exp-OU integrand still spends
    one normal on such a piece, with deviation 0.
    """
    d, gs = model.dimension, grid_size
    g = np.linspace(0.0, 1.0, gs + 1)
    gen = substream(seed)
    jts, jss, zgs, zys = [], [], [], []
    for rep in reps:
        jt, js = _draw_jumps(model, rekey(gen, seed, rep, JUMP_STREAM))
        jts.append(jt)
        jss.append(js)
        zgs.append(rekey(gen, seed, rep, GAUSS_STREAM).standard_normal((gs, d)))
        if isinstance(integrand, ExpOUIntegrand):
            zys.append(rekey(gen, seed, rep, INTEGRAND_STREAM).standard_normal(gs + len(jt)))
    B = len(jts)
    k = np.array([len(t) for t in jts])
    K = max(int(k.max()), 1)  # at least one (padded) jump column
    M = gs + 1 + K
    rows = np.arange(B)[:, None]
    real = np.arange(K) < k[:, None]
    jt = np.full((B, K), 2.0)  # padding sorts after time 1
    jt[real] = np.concatenate(jts)
    Z = np.zeros((B, K, d))
    Z[real] = np.concatenate(jss)
    # jumps at one time are one jump of the path: each size is carried into
    # the next jump at its time, and its own slot keeps a zero jump
    for j in np.flatnonzero(np.any(real[:, 1:] & (jt[:, 1:] == jt[:, :-1]), axis=0)):
        same = real[:, j + 1] & (jt[:, j + 1] == jt[:, j])
        Z[same, j + 1] += Z[same, j]
        Z[same, j] = 0.0

    # merged grid: ``take`` indexes [uniform grid | jump times] per position;
    # the padded tail points at time 1.  ``ju`` counts the grid points at or
    # before each jump, which the stable sort places first
    ju = np.searchsorted(g, jt, side="right")
    times = np.hstack([np.broadcast_to(g, (B, gs + 1)), jt])
    take = np.argsort(times, axis=1, kind="stable")
    take = np.where(take > gs + k[:, None], gs, take)
    G = np.take_along_axis(times, take, axis=1)
    pos = np.where(real, ju + np.arange(K), M - 1)
    count = np.cumsum(take > gs, axis=1)  # jumps at or before each merged time

    # light part on the merged grid, interpolated at the jump times exactly
    # as ``CadlagPath._sides_at`` does: a jump at the k-th grid time takes
    # S[k] (frac is 0 there, and at time 1 the interpolation stops)
    S = _gaussian_walk(model, np.stack(zgs))
    lo = np.minimum(ju, gs) - 1
    frac = (jt - g[lo]) / (g[lo + 1] - g[lo])
    at_jumps = np.where((jt >= 1.0)[..., None], S[:, -1:],
                        S[rows, lo] + frac[..., None] * (S[rows, lo + 1] - S[rows, lo]))
    base = np.take_along_axis(np.concatenate([S, at_jumps], axis=1), take[..., None], axis=1)

    # W is its continuous part plus the running sum of its jumps, which
    # without an integrand are X's own
    if integrand is None:
        cont, W = base, Z
    else:
        zy = None
        if zys:
            zy = np.zeros((B, M - 1))
            zy[np.arange(M - 1) < (gs + k)[:, None]] = np.concatenate(zys)
        y = _integrand_values(integrand, G, zy)
        if y.shape[-1] != d:
            raise ValueError(f"dimension mismatch: {y.shape[-1]} vs {d}")
        W = np.take_along_axis(y, pos[..., None], axis=1) * Z
        inc = y[:, :-1] * np.diff(base, axis=1)
        cont = np.concatenate([np.zeros((B, 1, d)), np.cumsum(inc, axis=1)], axis=1)
    wcum = np.concatenate([np.zeros((B, 1, d)), np.cumsum(W, axis=1)], axis=1)
    w = cont + np.take_along_axis(wcum, count[..., None], axis=1)

    # left limits differ from right values only at the jump positions (a
    # padded column writes the value at time 1 back unchanged)
    left = w.copy()
    left[rows, pos] = w[rows, pos] - W
    # the approximation is the step A * 1[t >= tau] at the first largest jump
    # of X; A = 0 without jumps (the padded column then wins)
    kstar = np.argmax(np.linalg.norm(Z, axis=2), axis=1)
    return G, w, left, W[rows[:, 0], kstar], jt[rows[:, 0], kstar]


def _exit_fraction(a: np.ndarray, b: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Where, as a fraction of the way from ``a`` to ``b``, the segment's norm
    leaves the ball of radius ``delta`` (|a| <= delta < |b|): the larger root
    of |a + f (b - a)|^2 = delta^2, without cancellation; 0 if a = b."""
    step = b - a
    p = (a * step).sum(axis=-1)
    q = (step * step).sum(axis=-1)
    c = delta * delta - (a * a).sum(axis=-1)
    root = np.sqrt(np.maximum(p * p + q * c, 0.0))
    num = np.where(p > 0, c, root - p)
    den = np.where(p > 0, root + p, q)  # 0 only if a = b
    return np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 0.0, 1.0)


def _exceeds(times: np.ndarray, right: np.ndarray, left: np.ndarray, A: np.ndarray,
             tau: np.ndarray, epsilon: float, levels: Sequence[float]) -> np.ndarray:
    """Whether d_J1(W/u, A 1[. >= tau]/u) > epsilon, of shape (B, levels),
    from ``_screen``'s arrays, by the closed form of ``one_big_jump_curve``.

    W is linear between its points, the left limits and right values in time
    order.  The first point with |W| > delta and the last with |W - A| > delta
    fix s1 and s2, and their order decides s2 <= s1 unless both lie on one
    piece.  With A = 0 (no jump, tau = 2) P = Q, so tau never decides.
    """
    B, M = times.shape
    delta = epsilon * np.asarray(levels, dtype=float)
    points = np.stack([left, right], axis=2).reshape(B, 2 * M, A.shape[1])
    norm = np.linalg.norm(points, axis=2)
    gap = np.linalg.norm(points - A[:, None], axis=2)
    rows = np.arange(B)[:, None]

    def first_above(values: np.ndarray) -> np.ndarray:
        i = np.argmax(values[:, None, :] > delta[:, None], axis=2)
        return np.where(values[rows, i] > delta, i, 2 * M)

    # first point with |W| > delta (2M if none), last with |W - A| > delta (-1 if none)
    first = first_above(norm)
    last = 2 * M - 1 - first_above(gap[:, ::-1])

    # s1: the grid time of a right value, or where |W| leaves the ball on the
    # piece that ends at a left limit
    m = np.minimum(first // 2, M - 1)
    k = np.maximum(m - 1, 0)
    t0, t1 = times[rows, k], times[rows, m]
    f = _exit_fraction(right[rows, k], left[rows, m], delta)
    s1 = np.where(first == 2 * M, np.inf,
                  np.where(first % 2 == 1, t1, t0 + f * (t1 - t0)))

    # s2: the grid time of a left limit, or where |W - A| enters the ball on
    # the piece that starts at a right value
    m = np.maximum(last, 0) // 2
    k = np.minimum(m + 1, M - 1)
    t0, t1 = times[rows, m], times[rows, k]
    f = _exit_fraction(left[rows, k] - A[:, None], right[rows, m] - A[:, None], delta)
    s2 = np.where(last < 0, -np.inf,
                  np.where(last % 2 == 0, t0, t1 - f * (t1 - t0)))

    # a last point at time 1 leaves no s; one piece holding both points
    # (right value at m, left limit at m + 1) needs the roots compared
    t = tau[:, None]
    return ((first <= last) | (last == 2 * M - 1)
            | ((first == last + 1) & (last % 2 == 1) & (s2 > s1))
            | (s2 > t + epsilon) | (s1 < t - epsilon))


def one_big_jump_curve(model: LevyModel, integrand: Optional[IntegrandSpec],
                       epsilon: float, levels: Sequence[float], n: int, seed: int,
                       grid_size: int = 256
                       ) -> tuple[ConditionalDistanceCurve, ConditionalDistanceCurve]:
    """Conditional probabilities that the rescaled process strays from its
    one-jump approximation, under both conditionings.

    For each replicate, simulate the driver X (and, unless ``integrand`` is
    None, an independent integrand Y), form W = (Y.X) and its one-jump
    approximation A 1[t >= tau], and for each level u with the conditioning
    event satisfied record whether the J1 distance of the u-rescaled pair
    exceeds epsilon.  Returned curves condition on the process sup norm
    exceeding u ("sup") and on the approximation's jump norm exceeding u
    ("jump").  One replicate pool is shared across all levels.

    The J1 distance to a single step is a minimum over the time s that a
    time change moves the step to, at cost |s - tau|:

        d = inf over s of max(|s - tau|, P(s) / u, Q(s) / u),
        P(s) = sup_{t<s} |W_t|,  Q(s) = sup_{t>=s} |W_t - A|,

    left limits included.  P never decreases and Q never increases, so
    {P <= epsilon u} = (0, s1] and {Q <= epsilon u} = [s2, 1], with s1 the
    first time |W| exceeds epsilon u and s2 the last time |W - A| does, and
    d <= epsilon exactly when max(s2, tau - epsilon) <= min(s1, tau +
    epsilon).  The norm is convex on each linear piece of W, so s1 and s2 are
    grid times or roots of a quadratic (``_exceeds``).

    Blocks of ``_SCREEN_BLOCK`` replicates are regenerated from their keyed
    streams as arrays on the merged grid (``_screen``) and decided at every
    level at once, on one thread.  A jump at a grid time, or at the time of
    another jump, takes a merged-grid slot of its own, so every replicate is
    decided from the same arrays.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    levels = [float(u) for u in levels]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] <= 0:
        raise ValueError("levels must be positive and strictly increasing")
    u = np.array(levels)

    def counts(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
        # rows: [sup hits, sup exceed, jump hits, jump exceed] per level
        _, right, left, A, _ = arrays
        s = np.maximum(np.linalg.norm(right, axis=2).max(axis=1),
                       np.linalg.norm(left, axis=2).max(axis=1))
        cond_sup = s[:, None] > u
        cond_jump = np.linalg.norm(A, axis=1)[:, None] > u
        # only replicates conditioned at the lowest level are decided
        live = cond_sup[:, 0] | cond_jump[:, 0]
        exceeds = np.zeros_like(cond_sup)
        exceeds[live] = _exceeds(*(a[live] for a in arrays), epsilon, levels)
        return np.array([np.count_nonzero(c, axis=0) for c in
                         (cond_sup, cond_sup & exceeds, cond_jump, cond_jump & exceeds)])

    def screen_block(i: int, start: int, stop: int) -> np.ndarray:
        return counts(_screen(model, integrand, seed, range(start, stop), grid_size))

    total = np.sum(chunks(n, _SCREEN_BLOCK, screen_block), axis=0)

    def curve(row_hits: int, row_exc: int, label: str) -> ConditionalDistanceCurve:
        ests = tuple(TailEstimate(levels[i], int(total[row_hits, i]),
                                  int(total[row_exc, i]))
                     if total[row_hits, i] > 0 else None
                     for i in range(len(levels)))
        return ConditionalDistanceCurve(epsilon, tuple(levels), label, ests)

    return curve(0, 1, "sup"), curve(2, 3, "jump")


# ---------------------------------------------------------------------------
# Auxiliary bound checks
# ---------------------------------------------------------------------------

def _rows_with(a: np.ndarray, at_least: int = 1) -> int:
    """How many rows of the 2-D boolean array ``a`` hold ``at_least`` True
    values or more, counted from the flat positions of its True values: one
    pass over ``a``, where ``np.count_nonzero(a, axis=1)`` reduces each short
    row on its own at several times the cost."""
    return int(np.count_nonzero(np.bincount(np.flatnonzero(a) // a.shape[1]) >= at_least))


def maximal_product_bound(count_sampler: Callable[[np.random.Generator, int], np.ndarray],
                          y_builders: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
                          z_sampler: BatchSampler,
                          n_trials: int, x_level: float, seed: int,
                          threads: int = 1) -> list[tuple[TailEstimate, TailEstimate]]:
    """Both sides of the decoupled maximal-product tail bound, one (lhs, rhs)
    pair per factor construction in ``y_builders``, all on the same draws.

    Estimates lhs = P(sum_{k<=N} Y_k Z_k > x) and rhs = P(N max_k Y_k Z~_k > x)
    where (Z~_k) is an independent copy of (Z_k).  ``count_sampler(rng, b)``
    returns a chunk's b counts N.  ``z_sampler`` fills an array in place (see
    ``BatchSampler``) with one 64-bit output per value, as ``rng.random``
    does, or the bound raises ``ValueError``: a block of rows reads its Z
    where one (b, most counts) draw after the counts puts it, and its Z~ b *
    most counts outputs on (``_rng.seek``).  Each ``y_builder(z, mask)``
    returns the factor matrix (or a value that broadcasts to it) from strict
    prefixes of each row of z only (predictable construction), e.g. ``lambda
    z, mask: 1.0`` or a function of the cumulative sums of earlier entries.

    A block's arrays are the thread's scratch buffers, of about
    ``levy_sim._BLOCK_ELEMENTS`` floats in all (``_row_blocks``), with z zeroed
    beyond each row's count, and no per-jump value outlives its block: lhs
    sums z * y at a row's real entries, and rhs compares (z~ * y) * N with x.
    The chunks run on ``threads`` threads, with the same result.
    """
    if x_level <= 0:
        raise ValueError("x_level must be positive")
    position = lambda g: (g.bit_generator.state["buffer_pos"],
                          *g.bit_generator.state["state"]["counter"])

    def hits(i: int, start: int, stop: int) -> np.ndarray:
        rng = substream(seed, i, AUX_STREAM)
        counts = np.asarray(count_sampler(rng, stop - start))
        kmax, first_columns = _first_columns(counts)
        zt_rng = seek(substream(seed, i, AUX_STREAM), rng.bit_generator.state, len(counts) * kmax)
        zt_start = position(zt_rng)
        total = np.zeros((len(y_builders), 2), dtype=int)
        # floats a jump: z and z~ (one buffer), wz, y; counting the masks too raised the peak RSS
        for blk in _row_blocks(len(counts), 2 * (2 * kmax + 1)):
            shape = (blk.stop - blk.start, kmax)
            mask = first_columns(blk, "mpb.mask")
            off = np.logical_not(mask, out=scratch("mpb.off", shape, bool))
            z, zt = both = scratch("mpb.z", (2, *shape))
            z_sampler(rng, z)
            z_sampler(zt_rng, zt)
            np.copyto(both, 0.0, where=off)
            wz, above = scratch("mpb.wz", shape), scratch("mpb.above", shape, bool)
            for tally, y_builder in zip(total, y_builders):
                y = y_builder(z, mask)
                np.multiply(z, y, out=wz)
                np.copyto(wz, 0.0, where=off)
                tally[0] += np.count_nonzero(wz.sum(axis=1) > x_level)
                # N max_k Y_k Z~_k > x exactly when some N Y_k Z~_k > x, since
                # rounding N * z never decreases in z
                np.multiply(zt, y, out=wz)
                wz *= counts[blk, None]
                tally[1] += _rows_with(np.greater(wz, x_level, out=above))
        if position(rng) != zt_start:
            raise ValueError("z_sampler must draw exactly one 64-bit output per value")
        return total

    return [tuple(TailEstimate(x_level, n_trials, int(h)) for h in sides)
            for sides in np.sum(chunks(n_trials, _CHUNK, hits, threads), axis=0)]


@dataclass(frozen=True)
class TrendPoint:
    n: int
    closed_form: float
    mc_value: float
    stderr: float  # sampling error of the MC value under the closed-form rate


def double_jump_trend(measure: RegVarMeasure, lam: float, beta: float,
                      n_values: Sequence[int], reps: int, seed: int,
                      threads: int = 1) -> list[TrendPoint]:
    """n * P(two or more jumps above the threshold a(n)**beta), closed form
    and Monte Carlo, along a sequence of n.

    The count of above-threshold jumps is Poisson-thinned, giving the closed
    form n * (1 - (1 + lam*p_n) * exp(-lam*p_n)) with p_n the exact Pareto
    exceedance of the threshold; the Monte Carlo side re-simulates the jump
    mechanism.  The reported stderr is the binomial error of the MC estimate
    under the closed-form rate, which stays meaningful when no hits occur.
    Each entry of ``n_values`` reads its own stream in order, so the entries,
    not their chunks, run on ``threads`` threads, with the same result.  A
    chunk draws its counts and then its radii one block of rows at a time
    (``_row_blocks``), into the running thread's scratch buffers; so its
    memory does not grow with ``lam``.
    """
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    seq = ScalingSequence(measure.alpha, measure.intensity_c)

    def entry(idx: int, _start: int, _stop: int) -> TrendPoint:
        n = n_values[idx]
        thr = seq.value(n) ** beta
        p_n = min(1.0, thr ** (-measure.alpha))
        closed = n * (1.0 - (1.0 + lam * p_n) * math.exp(-lam * p_n))
        rng = substream(seed, idx, AUX_STREAM)

        def chunk_hits(i: int, start: int, stop: int) -> int:
            # the chunks, and their blocks, read on through this entry's one
            # stream, in order
            counts = rng.poisson(lam, stop - start)
            kmax, first_columns = _first_columns(counts)
            hits = 0
            # radii and two masks, counted as two float arrays: more rows raise the peak RSS
            for blk in _row_blocks(len(counts), 2 * (kmax + 1)):
                shape = (blk.stop - blk.start, kmax)
                radii = _pareto_radii(rng, measure.alpha, out=scratch("djt.radii", shape))
                above = np.greater(radii, thr, out=scratch("djt.above", shape, bool))
                above &= first_columns(blk, "djt.mask")
                hits += _rows_with(above, 2)
            return hits

        hits = sum(chunks(reps, _CHUNK, chunk_hits))
        p_true = closed / n
        stderr = n * math.sqrt(p_true * (1.0 - p_true) / reps)
        return TrendPoint(int(n), closed, n * hits / reps, stderr)

    return chunks(len(n_values), 1, entry, threads)
