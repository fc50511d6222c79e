"""Regular-variation limit-measure calculus.

A heavy-tailed limit measure on punctured d-space is stored in polar form:
tail index ``alpha``, intensity ``c`` and a discrete spectral measure (unit
directions with weights).  The measure of the cone ``{x: |x| > r, x/|x| in A}``
is ``c * r**-alpha * sigma(A)``, exactly.  Radial tails are exact power laws
(slowly varying factor fixed to a constant), so every asymptotic statement
downstream becomes a testable rate statement.

On path space the induced limit measure lives on single-step paths
``y * 1_[v,1]`` with uniform step time ``v`` and step size distributed like the
d-space measure; :func:`one_step_mass` evaluates it in closed form for the
supported path-set descriptors.  :func:`weighted_one_step_mass` evaluates the
integrand-weighted variant (steps scaled by an independent path Y sampled at
the step time) by Monte Carlo over Y with the step time integrated out
exactly, so all sampling variance comes from Y alone.
"""

from __future__ import annotations

import json
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

    def spectral_mass(self, predicate: Optional[DirectionPredicate] = None) -> float:
        """Total spectral weight of the directions satisfying ``predicate``."""
        if predicate is None:
            return sum(w for _, w in self.spectral)
        return sum(w for s, w in self.spectral if predicate(s))

    def tail_mass(self, r: float, predicate: Optional[DirectionPredicate] = None) -> float:
        """Mass of the radial cone {x: |x| > r, x/|x| in A}: c * r**-alpha * sigma(A)."""
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        return self.intensity_c * r ** (-self.alpha) * self.spectral_mass(predicate)

    # -- JSON wire format: {alpha, c, spectral: [{dir: [...], w}]} ----------

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "c": self.intensity_c,
            "spectral": [{"dir": list(map(float, s)), "w": w} for s, w in self.spectral],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RegVarMeasure":
        return cls(obj["alpha"], obj["c"],
                   [(a["dir"], a["w"]) for a in obj["spectral"]])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RegVarMeasure":
        return cls.from_dict(json.loads(text))


def mu_tail(measure: RegVarMeasure, r: float,
            direction_predicate: Optional[DirectionPredicate] = None) -> float:
    """Cone mass of the d-space limit measure; see :meth:`RegVarMeasure.tail_mass`."""
    return measure.tail_mass(r, direction_predicate)


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


# ---------------------------------------------------------------------------
# Path-set descriptors, all bounded away from the zero path.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupExceedance:
    """{x : sup-norm of x > u}."""
    u: float

    def __post_init__(self):
        if self.u <= 0:
            raise ValueError("exceedance level must be positive")


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
class RunningSupExceedance:
    """{x : sup of the signed scalar path over [0, t] > u}; one-dimensional paths."""
    t: float
    u: float
    predicate: Optional[DirectionPredicate] = None

    def __post_init__(self):
        if self.u <= 0:
            raise ValueError("exceedance level must be positive")
        if not 0 < self.t <= 1:
            raise ValueError("time must lie in (0, 1]")


@dataclass(frozen=True)
class RadialCone:
    """{x : step amplitude in the cone of radius r (optional direction predicate)}."""
    r: float
    predicate: Optional[DirectionPredicate] = None

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("cone radius must be positive")


SetDescriptor = SupExceedance | EndpointExceedance | RunningSupExceedance | RadialCone


def one_step_mass(measure: RegVarMeasure, region: SetDescriptor) -> float:
    """Closed-form mass of ``region`` under the one-step path limit measure.

    The measure charges single-step paths with uniform step time on [0, 1]
    and step size drawn from ``measure``; its t-sections equal t times the
    d-space measure.  Only the four descriptor kinds are supported.
    """
    a, c = measure.alpha, measure.intensity_c
    if isinstance(region, SupExceedance):
        # a one-step path has sup norm equal to its step radius, for any step time
        return c * region.u ** (-a) * measure.spectral_mass()
    if isinstance(region, EndpointExceedance):
        return region.t * c * region.u ** (-a) * measure.spectral_mass(region.predicate)
    if isinstance(region, RunningSupExceedance):
        if measure.dimension != 1:
            raise ValueError("running-sup exceedance is defined for one-dimensional paths")
        sigma = sum(w for s, w in measure.spectral
                    if s[0] > 0 and (region.predicate is None or region.predicate(s)))
        return region.t * c * region.u ** (-a) * sigma
    if isinstance(region, RadialCone):
        return c * region.r ** (-a) * measure.spectral_mass(region.predicate)
    raise ValueError(f"unsupported set descriptor: {type(region).__name__}")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with standard error."""
    value: float
    stderr: float
    n: int


def _weighted_inner_profile(measure: RegVarMeasure, values: np.ndarray,
                            region: SetDescriptor) -> tuple[np.ndarray, float]:
    """Per-time inner cone mass for a step scaled by the integrand values.

    ``values`` has shape (m, d): the integrand path sampled at m time points.
    Returns the inner-mass profile g(v_i) and the time horizon (1 for kinds
    insensitive to the step time, t for the endpoint/running-sup kinds), so the
    region mass is the integral of g over [0, horizon].
    """
    a, c = measure.alpha, measure.intensity_c
    m = values.shape[0]
    g = np.zeros(m)
    if isinstance(region, SupExceedance):
        for s, w in measure.spectral:
            g += c * w * np.linalg.norm(values * s, axis=1) ** a
        return g * region.u ** (-a), 1.0
    if isinstance(region, (EndpointExceedance, RadialCone)):
        for s, w in measure.spectral:
            scaled = values * s
            norms = np.linalg.norm(scaled, axis=1)
            ok = norms > 0
            if region.predicate is not None:
                for i in np.nonzero(ok)[0]:
                    ok[i] = region.predicate(scaled[i] / norms[i])
            g += c * w * np.where(ok, norms ** a, 0.0)
        if isinstance(region, EndpointExceedance):
            return g * region.u ** (-a), region.t
        return g * region.r ** (-a), 1.0
    if isinstance(region, RunningSupExceedance):
        if values.shape[1] != 1:
            raise ValueError("running-sup exceedance is defined for one-dimensional paths")
        for s, w in measure.spectral:
            prod = values[:, 0] * s[0]
            ok = prod > 0
            if region.predicate is not None and not region.predicate(s):
                ok = np.zeros_like(ok)
            g += c * w * np.where(ok, np.abs(prod) ** a, 0.0)
        return g * region.u ** (-a), region.t
    raise ValueError(f"unsupported set descriptor: {type(region).__name__}")


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
                           region: SetDescriptor,
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
            g, horizon = _weighted_inner_profile(measure, values, region)
            x = _trapezoid_to(grid, g, horizon)
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
