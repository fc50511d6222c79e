"""Regular-variation limit-measure calculus.

A heavy-tailed limit measure on punctured d-space is stored in polar form:
tail index ``alpha``, intensity ``c`` and a discrete spectral measure (unit
directions with weights).  The measure of the cone ``{x: |x| > r, x/|x| in A}``
is ``c * r**-alpha * sigma(A)``, exactly (:func:`mu_tail`).  Radial tails are
exact power laws (slowly varying factor fixed to a constant), so every
asymptotic statement downstream becomes a testable rate statement.

On path space the induced limit measure lives on single-step paths
``y * 1_[v,1]`` with uniform step time ``v`` and step size distributed like the
d-space measure.  :func:`weighted_one_step_mass` evaluates the mass of an
endpoint exceedance under its integrand-weighted variant (steps scaled by an
independent path Y sampled at the step time) by Monte Carlo over Y with the
step time integrated out exactly, so all sampling variance comes from Y alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import AUX_STREAM, chunks, substream

DirectionPredicate = Callable[[np.ndarray], bool]

_TOL = 1e-12


@dataclass(frozen=True)
class RegVarMeasure:
    """Polar form of a regularly varying limit measure on punctured d-space.

    ``spectral`` is a sequence of (unit direction, weight) atoms; weights must
    sum to one.  Continuous spectral laws are approximated by the caller via
    atom lists.
    """

    alpha: float
    intensity_c: float
    spectral: tuple[tuple[np.ndarray, float], ...]

    def __init__(self, alpha: float, intensity_c: float,
                 spectral: Sequence[tuple[Sequence[float], float]]):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if intensity_c <= 0:
            raise ValueError(f"intensity_c must be positive, got {intensity_c}")
        atoms = []
        total = 0.0
        for direction, weight in spectral:
            d = np.asarray(direction, dtype=float)
            if weight < 0:
                raise ValueError(f"spectral weight must be nonnegative, got {weight}")
            nrm = float(np.linalg.norm(d))
            if abs(nrm - 1.0) > _TOL:
                raise ValueError(f"spectral direction {d} has norm {nrm}, expected 1")
            d.flags.writeable = False
            atoms.append((d, float(weight)))
            total += weight
        if not atoms:
            raise ValueError("spectral measure needs at least one atom")
        if abs(total - 1.0) > _TOL:
            raise ValueError(f"spectral weights sum to {total}, expected 1")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "intensity_c", float(intensity_c))
        object.__setattr__(self, "spectral", tuple(atoms))

    @property
    def dimension(self) -> int:
        return self.spectral[0][0].shape[0]


def mu_tail(measure: RegVarMeasure, r: float,
            direction_predicate: Optional[DirectionPredicate] = None) -> float:
    """Mass of the radial cone {x: |x| > r, x/|x| in A}: c * r**-alpha * sigma(A),
    with A the directions satisfying ``direction_predicate`` (all by default)."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    sigma = sum(w for s, w in measure.spectral
                if direction_predicate is None or direction_predicate(s))
    return measure.intensity_c * r ** (-measure.alpha) * sigma


@dataclass(frozen=True)
class ScalingSequence:
    """Normalizing sequence a(n) = (c*n)**(1/alpha), the exact 1/n tail quantile.

    Satisfies n * c * a(n)**-alpha == 1 identically, and a(n) increases to
    infinity, regularly varying with index 1/alpha.
    """

    alpha: float
    intensity_c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.intensity_c <= 0:
            raise ValueError("alpha and intensity_c must be positive")

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return (self.intensity_c * n) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class EndpointExceedance:
    """{x : x_t lands in the radial cone of level u (optional direction predicate)}."""
    t: float
    u: float
    predicate: Optional[DirectionPredicate] = None

    def __post_init__(self):
        if self.u <= 0:
            raise ValueError("exceedance level must be positive")
        if not 0 < self.t <= 1:
            raise ValueError("time must lie in (0, 1]")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with standard error."""
    value: float
    stderr: float
    n: int


def _weighted_inner_profile(measure: RegVarMeasure, values: np.ndarray,
                            region: EndpointExceedance) -> np.ndarray:
    """Per-time inner cone mass for a step scaled by the integrand values.

    ``values`` has shape (m, d): the integrand path sampled at m time points.
    Returns the inner-mass profile g(v_i), so the region mass is the integral
    of g over [0, region.t].
    """
    a, c = measure.alpha, measure.intensity_c
    g = np.zeros(values.shape[0])
    for s, w in measure.spectral:
        scaled = values * s
        norms = np.linalg.norm(scaled, axis=1)
        ok = norms > 0
        if region.predicate is not None:
            for i in np.nonzero(ok)[0]:
                ok[i] = region.predicate(scaled[i] / norms[i])
        g += c * w * np.where(ok, norms ** a, 0.0)
    return g * region.u ** (-a)


def _trapezoid_to(grid: np.ndarray, g: np.ndarray, t: float) -> float:
    """Trapezoid integral of the sampled profile g over [0, t], t <= grid[-1]."""
    if t >= grid[-1]:
        return float(np.trapezoid(g, grid))
    k = int(np.searchsorted(grid, t, side="right") - 1)
    head = float(np.trapezoid(g[: k + 1], grid[: k + 1])) if k >= 1 else 0.0
    if grid[k] == t:
        return head
    frac = (t - grid[k]) / (grid[k + 1] - grid[k])
    gt = g[k] + frac * (g[k + 1] - g[k])
    return head + 0.5 * (g[k] + gt) * (t - grid[k])


def weighted_one_step_mass(measure: RegVarMeasure,
                           integrand_sampler: Callable[[np.random.Generator], object],
                           region: EndpointExceedance,
                           n_mc: int,
                           seed: int) -> Estimate:
    """Mass of ``region`` under the integrand-weighted one-step limit measure.

    One-step paths are scaled componentwise by an independent integrand path
    evaluated at the (uniform) step time.  ``integrand_sampler(rng)`` must
    return an object with ``grid`` (m,) and ``values`` (m, d) arrays, sampled
    on [0, 1]; every draw's inner cone mass is closed form and the step time is
    integrated out by trapezoid quadrature on the draw's grid, so the Monte
    Carlo variance comes from the integrand alone.  Each chunk of replicates
    draws from its own derived sub-stream and the chunk results merge in chunk
    order, so the estimate is reproducible.
    """
    def run_chunk(i: int, start: int, stop: int) -> tuple[int, float, float]:
        # Welford accumulation: (count, mean, sum of squared deviations)
        rng = substream(seed, start, AUX_STREAM)
        count, mean, m2 = 0, 0.0, 0.0
        for _ in range(stop - start):
            path = integrand_sampler(rng)
            grid = np.asarray(path.grid, dtype=float)
            values = np.asarray(path.values, dtype=float)
            if values.ndim == 1:
                values = values[:, None]
            x = _trapezoid_to(grid, _weighted_inner_profile(measure, values, region),
                              region.t)
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        return count, mean, m2

    parts = chunks(n_mc, 256, run_chunk)

    n, mean, m2 = parts[0]
    for cn, cmean, cm2 in parts[1:]:
        delta = cmean - mean
        total = n + cn
        m2 += cm2 + delta * delta * n * cn / total
        mean += delta * cn / total
        n = total
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return Estimate(mean, stderr, n)
