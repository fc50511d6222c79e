"""Simulation of heavy-tailed Levy paths, integrands and stochastic integrals.

The driving process splits into an exactly simulable light part (Gaussian
random walk plus drift on a uniform grid; compensated small jumps are folded
into it, see the module notes in the README) and a compound Poisson big-jump
part with Pareto radii on [1, inf) and spectral directions, so the induced
d-space limit measure has intensity equal to the jump rate and exact power-law
cone masses.

Integrands are predictable caglad paths: constants, deterministic
exponentials scale * exp(rate * t), or an exponential Ornstein-Uhlenbeck
volatility driven by its own noise stream.  Evaluating an integrand at a
jump time always uses its left limit.

All randomness is drawn from counter-based streams keyed by
(seed, replicate_index, stream tag); identical keys reproduce bit-identical
paths and distinct replicate indices give independent replicates.  The batch
sampler keys batch k by (seed, k, tag), the keys of replicate k of the
per-replicate samplers, so at one seed its draws are not independent of
theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import GAUSS_STREAM, INTEGRAND_STREAM, JUMP_STREAM, chunks, scratch, seek, substream
from .cadlag import CadlagPath, one_step_approx
from .regvar import RegVarMeasure, _grid_index


# Every sampler holds all of a replicate's jumps in memory, the batch sampler
# those of one row block, which has fewer rows the more jumps: at this rate,
# n = 8192, grid 512 and exp-OU with diffusion 0.5, tails and tail-equivalence
# peak at 37 and 38 MB, no higher than at intensity 1.
_MAX_INTENSITY = 1e3
# The samplers hold grid_size + 1 values per replicate, the batch sampler per row of
# a block: at this grid, n = 8192, intensity 1 and exp-OU with diffusion 0.5, tails
# and tail-equivalence peak at 38 MB.
_MAX_GRID_SIZE = 4096
# tails and tail-equivalence reduce each batch to counts, so n sets their time, not
# their memory: at this n, grid 512, intensity 1 and a constant integrand they peak
# at 38 and 39 MB (37.5 at n = 8192), in 8 and 13 s at --threads 1 (2 vCPUs).
_MAX_N = 2 ** 24


@dataclass(frozen=True)
class LevyModel:
    """Generating data for the driving process.

    ``big_jump_intensity`` is the Poisson rate of jumps with radius >= 1,
    ``radial_alpha`` the Pareto tail index of the radii (P(|Z| > r) = r**-alpha
    for r >= 1), ``spectral`` the distribution of jump directions,
    ``diffusion`` a d x d matrix square root of the Gaussian covariance and
    ``drift`` the drift vector.
    """

    dimension: int
    big_jump_intensity: float
    radial_alpha: float
    spectral: tuple[tuple[np.ndarray, float], ...]
    diffusion: np.ndarray = None
    drift: np.ndarray = None

    def __init__(self, dimension: int, big_jump_intensity: float, radial_alpha: float,
                 spectral: Sequence[tuple[Sequence[float], float]],
                 diffusion=None, drift=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        # checks that the intensity and the tail index are positive
        measure = RegVarMeasure(radial_alpha, big_jump_intensity, spectral)
        if not big_jump_intensity <= _MAX_INTENSITY:
            raise ValueError(f"big_jump_intensity must be at most {_MAX_INTENSITY:g}, "
                             f"got {big_jump_intensity}")
        if measure.dimension != dimension:
            raise ValueError("spectral directions must have the model dimension")
        B = np.zeros((dimension, dimension)) if diffusion is None \
            else np.asarray(diffusion, dtype=float)
        g = np.zeros(dimension) if drift is None else np.asarray(drift, dtype=float)
        if B.shape != (dimension, dimension):
            raise ValueError("diffusion must be a d x d matrix")
        if g.shape != (dimension,):
            raise ValueError("drift must be a d-vector")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(g))):
            raise ValueError("diffusion and drift must be finite")
        B.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "big_jump_intensity", float(big_jump_intensity))
        object.__setattr__(self, "radial_alpha", float(radial_alpha))
        object.__setattr__(self, "spectral", measure.spectral)
        object.__setattr__(self, "diffusion", B)
        object.__setattr__(self, "drift", g)
        # ``_jump_marks``' direction table: the atoms stacked, and the
        # normalized cumulative weights that ``rng.choice`` searches
        dirs = np.stack([s for s, _ in measure.spectral])
        cdf = np.cumsum([w for _, w in measure.spectral])
        cdf /= cdf[-1]
        dirs.flags.writeable = False
        cdf.flags.writeable = False
        object.__setattr__(self, "_dirs", dirs)
        object.__setattr__(self, "_cdf", cdf)

    def induced_measure(self) -> RegVarMeasure:
        """Limit measure of the jump law: intensity = jump rate, same spectrum."""
        return RegVarMeasure(self.radial_alpha, self.big_jump_intensity,
                             [(s, w) for s, w in self.spectral])


@dataclass(frozen=True)
class SimConfig:
    grid_size: int = 4096
    seed: int = 0
    replicate_index: int = 0

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")


# ---------------------------------------------------------------------------
# Integrand specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantIntegrand:
    value: np.ndarray

    def __init__(self, value):
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if np.any(v == 0) or not np.all(np.isfinite(v)):
            raise ValueError("constant integrand components must be finite and nonzero")
        v.flags.writeable = False
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class DeterministicIntegrand:
    """Deterministic integrand t -> scale * exp(rate * t), one-dimensional."""

    scale: float
    rate: float = 0.0

    def __post_init__(self):
        if self.scale == 0 or not (math.isfinite(self.scale) and math.isfinite(self.rate)):
            raise ValueError("scale must be finite and nonzero, and rate finite")
        with np.errstate(over="ignore"):
            # the largest value on [0, 1], computed as the integrand computes it
            peak = self.scale * np.exp(max(self.rate, 0.0))
        if not np.isfinite(peak):
            raise ValueError(f"scale * exp(rate * t) overflows on [0, 1] for scale "
                             f"{self.scale} and rate {self.rate}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class ExpOUIntegrand:
    """Y_t = initial * exp(U_t) with U a zero-start Ornstein-Uhlenbeck process.

    Mean reversion ``rate`` toward 0 and ``vol`` the vol-of-vol; U has bounded
    variance so sup |Y| has lognormal-type tails and every power moment is
    finite.  ``vol = 0`` degenerates to the constant path at ``initial``.
    """

    rate: float
    vol: float
    initial: float = 1.0

    def __post_init__(self):
        if not (0 <= self.rate < math.inf and 0 <= self.vol < math.inf):
            raise ValueError("rate and vol must be finite and nonnegative")
        if not 0 < self.initial < math.inf:
            raise ValueError("initial value must be finite and positive")
        with np.errstate(over="ignore", invalid="ignore"):
            # _ou_exponent's running sum at time t is normal with deviation
            # exp(rate * t) times that of one step of length t, so one step over
            # [0, 1] driven by 64 (beyond any normal draw or sum) bounds it
            probe = _ou_exponent(self.rate, self.vol, np.array([0.0, 1.0]), np.array([64.0]))
            peak = self.initial * np.exp(probe)
        if not np.all(np.isfinite(probe)):
            raise ValueError(f"rate {self.rate} with vol {self.vol} overflows the OU "
                             f"integrating factor exp(rate * t) on [0, 1]")
        if not np.all(np.isfinite(peak)):
            raise ValueError(f"vol {self.vol} with rate {self.rate} and initial "
                             f"{self.initial} overflows exp(U), 64 deviations out")


IntegrandSpec = ConstantIntegrand | DeterministicIntegrand | ExpOUIntegrand


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def _pareto_radii(rng: np.random.Generator, alpha: float, shape=None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pareto radii on [1, inf) with tail index ``alpha``: (1 - U)**(-1/alpha),
    of shape ``shape``, or written into ``out`` (and returned); the same bits
    either way, computed in place."""
    u = rng.random(shape, out=out)
    np.subtract(1.0, u, out=u)
    return np.power(u, -1.0 / alpha, out=u)


def _jump_marks(model: LevyModel, rng: np.random.Generator,
                shape) -> tuple[np.ndarray, np.ndarray]:
    """Uniform times in (0, 1], shape ``shape``, and sizes (*shape, d) of big
    jumps, drawn as times, then Pareto radii, then one uniform per jump that
    picks its spectral direction; a one-atom measure draws no uniforms."""
    times = 1.0 - rng.random(shape)
    radii = _pareto_radii(rng, model.radial_alpha, shape)
    dirs = model._dirs
    if len(dirs) == 1:
        return times, radii[..., None] * dirs[0]
    # the draw of ``rng.choice(len(w), shape, p=w)``, without its checks of w
    return times, radii[..., None] * dirs[model._cdf.searchsorted(rng.random(shape),
                                                                  side="right")]


def _draw_jumps(model: LevyModel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One replicate's big jumps from its jump stream: a Poisson count, then
    its marks.  Returns sorted times (k,) and sizes (k, d)."""
    n = int(rng.poisson(model.big_jump_intensity))
    if n == 0:  # skips the cost of drawing no marks
        return np.zeros(0), np.zeros((0, model.dimension))
    times, sizes = _jump_marks(model, rng, n)
    return np.sort(times), sizes


def _gaussian_walk(model: LevyModel, z: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Light part on the uniform grid from standard normals ``z`` of shape
    (..., grid_size, d): values (..., grid_size + 1, d), starting at 0,
    written into ``out`` when given."""
    gs, d = z.shape[-2:]
    walk = np.zeros(z.shape[:-2] + (gs + 1, d)) if out is None else out
    walk[..., 0, :] = 0.0
    inc = walk[..., 1:, :]
    if d == 1 and model.diffusion[0, 0] != 0.0:
        # one multiply per entry, the bits of the matmul, at a third of its
        # cost (at zero diffusion the matmul gives +0.0 where this gives -0.0)
        np.multiply(z, model.diffusion[0, 0], out=inc)
    else:
        inc[...] = z @ model.diffusion.T
    inc /= math.sqrt(gs)
    inc += model.drift / gs
    np.cumsum(inc, axis=-2, out=inc)
    return walk


def _ou_exponent(rate: float, vol: float, grid: np.ndarray, z: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact OU transitions along the last axis of ``grid`` driven by the
    standard normals ``z`` (one per step), vectorized via the exp(rate * t)
    integrating factor (exponents stay bounded on [0, 1]).  A one-dimensional
    ``grid`` serves every leading index of ``z``.  The values, starting at 0,
    are written into ``out`` when given."""
    h = np.diff(grid, axis=-1)
    u = np.zeros(z.shape[:-1] + (z.shape[-1] + 1,)) if out is None else out
    u[..., 0] = 0.0
    steps = u[..., 1:]
    if rate == 0.0:
        np.multiply(vol * np.sqrt(h), z, out=steps)
        np.cumsum(steps, axis=-1, out=steps)
        return u
    sd = vol * np.sqrt((1.0 - np.exp(-2.0 * rate * h)) / (2.0 * rate))
    np.multiply(np.exp(rate * grid[..., 1:]) * sd, z, out=steps)
    np.cumsum(steps, axis=-1, out=steps)
    steps *= np.exp(-rate * grid[..., 1:])
    return u


def _integrand_values(spec: IntegrandSpec, grid: np.ndarray,
                      z: Optional[np.ndarray] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrand values (..., m, d) at the times ``grid`` (..., m); an exp-OU
    integrand also needs its standard normals ``z`` (..., m - 1), against
    whose leading axes a one-dimensional ``grid`` broadcasts.  The values are
    computed in place in ``out`` when given (``grid`` may be ``out[..., 0]``
    for a constant or deterministic integrand)."""
    if isinstance(spec, ExpOUIntegrand):
        u = _ou_exponent(spec.rate, spec.vol, grid, z, None if out is None else out[..., 0])
        np.exp(u, out=u)
        u *= spec.initial
        return u[..., None] if out is None else out
    if isinstance(spec, ConstantIntegrand):
        if out is None:
            return np.tile(spec.value, grid.shape + (1,))
        out[...] = spec.value
        return out
    if not isinstance(spec, DeterministicIntegrand):
        raise ValueError(f"unknown integrand spec: {type(spec).__name__}")
    y = np.multiply(grid, spec.rate, out=None if out is None else out[..., 0])
    np.exp(y, out=y)
    y *= spec.scale
    return y[..., None] if out is None else out


def _power_mean(spec: IntegrandSpec, alpha: float, grid: np.ndarray) -> np.ndarray:
    """Values y (m,) at the times ``grid`` (m,) with (y * s)_+ ** alpha equal
    to E(Y * s)_+ ** alpha for s = +-1: Y itself when it is deterministic.
    For exp-OU, U_t is normal with variance v(t) = vol**2 * (1 - exp(-2 rate
    t)) / (2 rate) (vol**2 * t at rate 0), exactly as ``_ou_exponent`` draws
    it, so E Y_t**alpha = (initial * exp(alpha * v(t) / 2))**alpha."""
    if isinstance(spec, ExpOUIntegrand):
        v = spec.vol ** 2 * (grid if spec.rate == 0.0
                             else -np.expm1(-2.0 * spec.rate * grid) / (2.0 * spec.rate))
        return spec.initial * np.exp(alpha * v / 2.0)
    return _integrand_values(spec, grid)[:, 0]


def simulate_big_jumps(model: LevyModel, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Compound Poisson big jumps: sorted times (k,) in (0, 1] and sizes (k, d)
    of norm >= 1; bit-reproducible given (seed, replicate_index)."""
    return _draw_jumps(model, substream(cfg.seed, cfg.replicate_index, JUMP_STREAM))


def simulate_small_part(model: LevyModel, cfg: SimConfig) -> CadlagPath:
    """Gaussian random walk with drift on the uniform grid; starts at 0."""
    rng = substream(cfg.seed, cfg.replicate_index, GAUSS_STREAM)
    z = rng.standard_normal((cfg.grid_size, model.dimension))
    return CadlagPath(np.linspace(0.0, 1.0, cfg.grid_size + 1), _gaussian_walk(model, z))


def assemble_levy_path(small: CadlagPath, times: np.ndarray,
                       sizes: np.ndarray) -> CadlagPath:
    """Sum of the light part and the step process of the big jumps at
    ``times`` (k,) with ``sizes`` (k, d); the result's jumps are exactly
    these."""
    if len(times) == 0:
        return small
    jt = np.asarray(times, dtype=float)
    js = np.asarray(sizes, dtype=float)
    if np.any(np.diff(jt) <= 0):
        raise ValueError("jump times must be distinct and sorted")
    grid = np.union1d(small.grid, jt)
    base = small._sides_at(grid)[1]
    cum = np.vstack([np.zeros(small.dimension), np.cumsum(js, axis=0)])
    values = base + cum[np.searchsorted(jt, grid, side="right")]
    return CadlagPath(grid, values, jt, js)


def simulate_levy_path(model: LevyModel, cfg: SimConfig) -> CadlagPath:
    """Light part plus big jumps of one replicate; its ``jump_times`` and
    ``jump_sizes`` are those of ``simulate_big_jumps``."""
    return assemble_levy_path(simulate_small_part(model, cfg),
                              *simulate_big_jumps(model, cfg))


def simulate_integrand(spec: IntegrandSpec, cfg: SimConfig,
                       times: Optional[Sequence[float]] = None) -> CadlagPath:
    """Sample an integrand path on the uniform grid (plus optional extra
    sample times, e.g. the driver's jump times, where exact predictable values
    are needed).  The driving noise stream is independent of the Levy noise."""
    grid = np.linspace(0.0, 1.0, cfg.grid_size + 1)
    if times is not None and len(times):
        grid = np.union1d(grid, np.asarray(times, dtype=float))
        if grid[0] < 0 or grid[-1] > 1:
            raise ValueError("extra sample times must lie in [0, 1]")
    z = None
    if isinstance(spec, ExpOUIntegrand):
        rng = substream(cfg.seed, cfg.replicate_index, INTEGRAND_STREAM)
        z = rng.standard_normal(len(grid) - 1)
    return CadlagPath(grid, _integrand_values(spec, grid, z))


# ---------------------------------------------------------------------------
# Stochastic integration
# ---------------------------------------------------------------------------

def stochastic_integral(y: CadlagPath, x: CadlagPath) -> CadlagPath:
    """Componentwise integral of y against x on the merged grid.

    Jump contributions use the left limit of y at each jump time of x
    (predictability); the continuous part is a left-endpoint Riemann sum.
    The result's jumps are exactly (tau_k, y_{tau_k} * Z_k).
    """
    if y.dimension != x.dimension:
        raise ValueError(f"dimension mismatch: {y.dimension} vs {x.dimension}")
    grid = np.union1d(y.grid, x.grid)
    xr = x._sides_at(grid)[1]
    jt, js = x.jump_times, x.jump_sizes
    after = np.searchsorted(jt, grid, side="right")  # jumps at or before each time
    cum = np.vstack([np.zeros(x.dimension), np.cumsum(js, axis=0)])
    xc = xr - cum[after]
    yj = y._sides_at(jt)[0]
    wj = yj * js
    jump_cum = np.vstack([np.zeros(x.dimension), np.cumsum(wj, axis=0)])
    yr = y._sides_at(grid)[1]
    inc = yr[:-1] * np.diff(xc, axis=0)
    riemann = np.vstack([np.zeros(x.dimension), np.cumsum(inc, axis=0)])
    return CadlagPath(grid, riemann + jump_cum[after], jt, wj)


def one_jump_integral(y: CadlagPath, x: CadlagPath) -> CadlagPath:
    """The single-step path y_tau * dx_tau * 1_[tau, 1] at the largest jump
    of x, the step of ``one_step_approx(x)``; zero if x has no jumps."""
    if y.dimension != x.dimension:
        raise ValueError(f"dimension mismatch: {y.dimension} vs {x.dimension}")
    step = one_step_approx(x)
    if len(step.jump_times) == 0:
        return step
    tau = float(step.jump_times[0])
    return CadlagPath.step(tau, y.left_limit_at(tau) * step.jump_sizes[0])


# ---------------------------------------------------------------------------
# Vectorized batch sampling of integral functionals (one-dimensional models)
# ---------------------------------------------------------------------------

_BATCH = 8192
# Floats a row block (``_row_blocks``) holds over all of its arrays, 1 MB: about
# half a batch of the batch sampler's jump-only blocks at intensity 1.  Smaller
# blocks cost more numpy calls per replicate, which shows most at --threads 2.
_BLOCK_ELEMENTS = 2 ** 17


def _row_blocks(n: int, width: float):
    """Slices of consecutive rows covering [0, n): ``_BLOCK_ELEMENTS // width``
    rows each (at least one), for a block whose arrays hold ``width`` floats a
    row in all, a boolean counting an eighth."""
    rows = max(1, int(_BLOCK_ELEMENTS // width))
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _first_columns(counts: np.ndarray) -> tuple[int, Callable[[slice, str], np.ndarray]]:
    """The most ``counts`` (at least 1), kmax, and ``first(rows, name)``: the mask
    of the first ``counts[rows]`` of kmax columns of those rows, in this thread's
    boolean scratch buffer ``name``, taken from a table built once here for every
    count from the fewest to kmax (faster than comparing counts with columns)."""
    lo, kmax = int(counts.min()), max(int(counts.max()), 1)
    table = np.arange(kmax) < np.arange(lo, kmax + 1)[:, None]
    return kmax, lambda rows, name: table.take(
        counts[rows] - lo, axis=0, mode="clip",
        out=scratch(name, (rows.stop - rows.start, kmax), bool))


def _block_marks(model: LevyModel, rng: np.random.Generator, marks: dict, b: int,
                 kmax: int, blk: slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``blk`` of the (b, kmax) times and one-dimensional sizes that
    ``_jump_marks`` draws from the Philox state ``marks``, into scratch, each
    part read at the block's place in the stream (``_rng.seek``).  The sizes'
    buffer has room for a column more, where the batch sampler builds ``cum``."""
    r = blk.stop - blk.start
    at = lambda part: seek(rng, marks, (part * b + blk.start) * kmax)
    times = at(0).random(out=scratch("batch.times", (r, kmax)))
    np.subtract(1.0, times, out=times)
    sizes = scratch("batch.sizes", r * (kmax + 1))[: r * kmax].reshape(r, kmax)
    _pareto_radii(at(1), model.radial_alpha, out=sizes)
    cdf, dirs = model._cdf, model._dirs[:, 0]
    if len(dirs) > 1:  # the atom each uniform picks: how many of cdf[:-1] are <= it
        u = at(2).random(out=scratch("batch.u", (r, kmax)))
        atom = np.less_equal(cdf[0], u, out=scratch("batch.atom", (r, kmax), np.intp),
                             casting="unsafe")
        for c in cdf[1:-1]:
            atom += np.less_equal(c, u, out=scratch("batch.flag", (r, kmax), bool))
        dirs = dirs.take(atom, mode="clip", out=u)
    sizes *= dirs
    return times, sizes


def batch_integral_functionals(model: LevyModel, integrand: IntegrandSpec, t: float, n: int,
                               seed: int, reduce: Callable, grid_size: int = 512,
                               threads: int = 1, running_sup: bool = True) -> list:
    """Endpoint value and running sup over [0, t] of the integral, vectorized,
    for a one-dimensional model, reduced batch by batch.

    Each batch hands ``reduce(endpoint, sup)`` its replicates' (Y.X)_t and
    sup_{s<=t} (Y.X)_s, in the running thread's scratch buffers (its next
    batch overwrites them), and the results come back in batch order.  With
    ``running_sup=False`` the sup is neither computed nor allocated, and None
    takes its place; the endpoints are the same bits either way.  Batches
    have a fixed size and counter-based streams, so results are reproducible
    for any ``n``, and the batches are split over ``threads`` without
    changing a bit.  An exp-OU integrand is evaluated at jump times via its
    last grid sample before the jump (predictable; the grid bias vanishes
    with grid_size).  ``t`` must be a grid point.

    The jump part is kept per replicate, (rows, most jumps) arrays, never on
    the grid.  Each replicate's jumps are sorted once, by time, and summed in
    that one order for every value read.  The running sum J is piecewise
    constant on the grid, and the grid sup is the maximum over J's constant
    stretches of J plus the stretch's largest continuous value (exact, since
    rounding x + J is monotone in x).  The cost grows with the batch size
    times its largest jump count, not times the grid size.

    Everything after a batch's jump counts runs one block of rows at a time
    (``_row_blocks``, sized by the widths of all its (rows, most jumps) arrays,
    and on the grid to at most half the budget per (rows, grid) array).  A
    block reads its jump marks where they lie in the jump stream
    (``_block_marks``), and its normals on from the integrand and Gaussian
    streams, as one draw over the batch fills them, so the block size changes
    no bit.  Its arrays are scratch buffers that every block and batch of the
    thread reuses, a buffer whose role has ended taking the next role: the
    memory is one block, whatever ``n``, jump rate and grid.
    """
    if model.dimension != 1:
        raise ValueError("batch functionals support one-dimensional models only")
    it = _grid_index(t, grid_size)
    has_cont = model.diffusion.any() or model.drift.any()
    exp_ou = isinstance(integrand, ExpOUIntegrand)
    on_grid = exp_ou or has_cont  # whether a block builds (rows x grid) arrays
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    y_line = None if exp_ou else _integrand_values(integrand, grid)[:, 0]
    # a block's floats a row per jump: times (then jz), sizes (then cum), jt, argsort's
    # order, 4 masks; uniforms, atoms; on the grid positions, stretch maxima, interpolation.
    # On the grid, the rows of half the budget per grid array (fewer ran 4% slower)
    per_jump = 4.5 + 2 * (len(model._dirs) > 1) + 4 * on_grid

    def batch(batch_index: int, start: int, stop: int):
        b = stop - start
        rng = substream(seed, batch_index, JUMP_STREAM)
        counts = rng.poisson(model.big_jump_intensity, b)
        kmax, first_columns = _first_columns(counts)
        marks = rng.bit_generator.state  # where the (b x kmax) times start
        endpoints = scratch("batch.endpoint", b)
        sups = scratch("batch.sup", b) if running_sup else None
        y_rng, x_rng = (substream(seed, batch_index, INTEGRAND_STREAM),
                        substream(seed, batch_index, GAUSS_STREAM)) if on_grid else (None, None)
        for blk in _row_blocks(b, max(kmax * per_jump, 2 * (grid_size + 1) * on_grid)):
            r = blk.stop - blk.start
            rows = np.arange(r)[:, None]
            shape, wide = (r, kmax), (r, kmax + 1)
            times, sizes = _block_marks(model, rng, marks, b, kmax, blk)
            mask = first_columns(blk, "batch.mask")
            off = np.logical_not(mask, out=scratch("batch.off", shape, bool))
            # time order, with the padding parked beyond the horizon: the
            # parked columns sort last, so ``mask`` holds
            np.copyto(times, 2.0, where=off)
            order = np.argsort(times, axis=1)
            order += rows * kmax  # flat indices into the block's rows
            jt = times.take(order, mode="clip", out=scratch("batch.jt", shape))
            # a buffer whose role has ended takes the next: the times' holds jz,
            # the sizes' jg and then cum, and order's the cells
            jz = sizes.take(order, mode="clip", out=times)
            jg = np.multiply(jt, grid_size, out=sizes)

            # A jump at tau counts on the grid from the first grid point >= tau
            # on, its cell.  For the grid sup, the jump sum is constant from
            # each cell's last jump up to the next cell with jumps; stretch 0
            # runs from time 0 with sum 0 (jump cells are >= 1, since jump
            # times are > 0, so a row's stretch starts strictly increase)
            cell = np.ceil(jg, out=order, casting="unsafe")
            np.minimum(cell, grid_size + 1, out=cell)
            before = np.less_equal(cell, it, out=scratch("batch.before", shape, bool))
            if running_sup:
                stretch = scratch("batch.stretch", wide, bool)
                stretch[:, 0] = stretch[:, kmax] = True
                np.not_equal(cell[:, 1:], cell[:, :-1], out=stretch[:, 1:kmax])
                stretch[:, 1:] &= before
                late = np.greater(jt, t, out=mask)  # mask's role ended with off
                wc_at = 0.0

            # integrand at the jump times, written over them; exp-OU takes its
            # last grid sample before the jump, read from the block's grid values
            if not exp_ou:
                np.copyto(jt, 0.0, where=off)  # jt at the jumps, else 0
                y_jump = _integrand_values(integrand, jt, out=jt[..., None])[..., 0]
            # continuous part: left-endpoint sums wc of y against the Gaussian
            # walk xc (identically 0 without diffusion and drift), at t, at its
            # stretch maxima and interpolated at the jump times.  The block's
            # (rows x grid) arrays are filled in place: the integrand's
            # normals, once used, give their buffer to the Gaussian ones and those to wc
            wc_end = 0.0
            if on_grid:  # grid + 1 columns a row, for wc
                zbuf = scratch("batch.z", r * (grid_size + 1))
                normals = zbuf[: r * grid_size].reshape(r, grid_size)
            if exp_ou:
                pos = np.clip(jg, 0, grid_size, out=scratch("batch.pos", shape, np.intp),
                              casting="unsafe")
                pos += rows * (grid_size + 1)  # flat indices into the block's rows
                z = y_rng.standard_normal(out=normals)
                y_grid = _integrand_values(integrand, grid, z,
                                           scratch("batch.y", (r, grid_size + 1, 1)))[..., 0]
                y_jump = y_grid.take(pos, mode="clip", out=jt)
            elif has_cont:
                y_grid = np.broadcast_to(y_line, (r, grid_size + 1))
            if has_cont:
                z = x_rng.standard_normal(out=normals[..., None])
                xc = _gaussian_walk(model, z, scratch("batch.xc", (r, grid_size + 1, 1)))[..., 0]
                wc = zbuf.reshape(r, grid_size + 1)
                wc[:, 0] = 0.0
                dw = np.subtract(xc[:, 1:], xc[:, :-1], out=wc[:, 1:])  # np.diff
                dw *= y_grid[:, :-1]
                np.cumsum(dw, axis=1, out=dw)
                wc_end = wc[:, it]
                if running_sup:
                    starts = scratch("batch.starts", wide, np.intp)
                    starts[:, 0], starts[:, 1:] = 0, cell
                    starts += rows * (it + 1)
                    stretch_wc = scratch("batch.stretch_wc", wide)
                    stretch_wc.fill(0.0)
                    stretch_wc[stretch] = np.maximum.reduceat(wc[:, : it + 1].ravel(),
                                                              starts[stretch])
                    # the grid step holding each jump, to interpolate between its ends
                    seg = np.clip(jg, 0, grid_size - 1, casting="unsafe",
                                  out=scratch("batch.seg", shape, np.intp))
                    frac = np.subtract(jg, seg, out=jg)
                    xc_at = xc[rows, seg] + frac * (xc[rows, seg + 1] - xc[rows, seg])
                    wc_at = wc[rows, seg] + y_grid[rows, seg] * (xc_at - xc[rows, seg])

            # jump part: cum[:, k] is the sum of the first k jumps in time
            # order, so the grid value is cum at the jumps seen so far (no read
            # reaches the padding, which sorts past each row's jumps)
            wz = np.multiply(y_jump, jz, out=jz)
            cum = scratch("batch.sizes", wide)  # jg's buffer, its role over
            cum[:, 0] = 0.0
            np.cumsum(wz, axis=1, out=cum[:, 1:])
            endpoints[blk] = wc_end + cum[rows[:, 0], before.sum(axis=1)]
            if not running_sup:
                continue

            # values on both sides of each jump between grid points: the
            # interpolated continuous part plus the jump sums
            post = np.add(wc_at, cum[:, 1:], out=jt)
            pre = np.subtract(post, wz, out=wz)
            np.copyto(post, -np.inf, where=late)
            np.copyto(pre, -np.inf, where=late)
            # J plus its stretch's largest wc (0 without a continuous part)
            sums = np.add(stretch_wc, cum, out=stretch_wc) if has_cont else cum
            np.copyto(sums, -np.inf, where=np.logical_not(stretch, out=stretch))
            sup = sums.max(axis=1)
            np.maximum(sup, post.max(axis=1), out=sup)
            np.maximum(sup, pre.max(axis=1), out=sup)
            np.maximum(sup, 0.0, out=sups[blk])  # path starts at 0

        return reduce(endpoints, sups)

    return chunks(n, _BATCH, batch, threads)
