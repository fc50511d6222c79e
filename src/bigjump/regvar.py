"""Regular-variation limit-measure calculus.

A heavy-tailed limit measure on punctured d-space is stored in polar form:
tail index ``alpha``, intensity ``c`` and a discrete spectral measure (unit
directions with weights).  The measure of the cone ``{x: |x| > r, x/|x| in A}``
is ``c * r**-alpha * sigma(A)``, exactly (:func:`mu_tail`).  Radial tails are
exact power laws (slowly varying factor fixed to a constant), so every
asymptotic statement downstream becomes a testable rate statement.

On path space the induced limit measure lives on single-step paths
``y * 1_[v,1]`` with uniform step time ``v`` and step size distributed like the
d-space measure.  :func:`weighted_one_step_mass` evaluates, for a
one-dimensional measure, the mass of {x_t > 1} under its integrand-weighted
variant (steps scaled by an independent path Y sampled at the step time) from
the closed-form inner expectation E(Y_v theta)_+**alpha, with the step time
integrated out by quadrature, so it has no sampling variance.  The measure is
homogeneous of order -alpha, so the mass of {x_t > u} is that mass times
u**-alpha: one evaluation serves every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not intensity_c > 0:
            raise ValueError(f"intensity_c must be positive, got {intensity_c}")
        atoms = []
        total = 0.0
        for direction, weight in spectral:
            d = np.asarray(direction, dtype=float)
            if not weight >= 0:
                raise ValueError(f"spectral weight must be nonnegative, got {weight}")
            if atoms and d.shape != atoms[0][0].shape:
                raise ValueError(f"spectral directions {atoms[0][0]} and {d} differ in dimension")
            nrm = float(np.linalg.norm(d))
            if not abs(nrm - 1.0) <= _TOL:
                raise ValueError(f"spectral direction {d} has norm {nrm}, expected 1")
            d.flags.writeable = False
            atoms.append((d, float(weight)))
            total += weight
        if not atoms:
            raise ValueError("spectral measure needs at least one atom")
        if not abs(total - 1.0) <= _TOL:
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
        if not (self.alpha > 0 and self.intensity_c > 0):
            raise ValueError("alpha and intensity_c must be positive")

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return (self.intensity_c * n) ** (1.0 / self.alpha)


def _weighted_inner_profile(measure: RegVarMeasure, y: np.ndarray) -> np.ndarray:
    """Mass of {x > 1} under a one-dimensional ``measure`` with its steps
    scaled by each integrand value: g(v) = sum over the atoms (s, w) of
    c * w * (y_v * s)_+ ** alpha, so the mass of {x_t > 1} is the integral of
    g over [0, t]."""
    a, c = measure.alpha, measure.intensity_c
    g = np.zeros(y.shape)
    for s, w in measure.spectral:
        g += c * w * np.maximum(y * s[0], 0.0) ** a
    return g


def _grid_index(t: float, grid_size: int) -> int:
    """The index k with k / grid_size == t (to 1e-12), for t in (0, 1]."""
    k = round(t * grid_size) if 0 < t <= 1 else 0
    if k < 1 or abs(k / grid_size - t) > 1e-12:
        raise ValueError(f"t must be a grid time k/grid_size in (0, 1], got {t}")
    return k


def weighted_one_step_mass(measure: RegVarMeasure,
                           profile: Callable[[np.ndarray], np.ndarray],
                           t: float, grid_size: int) -> float:
    """Mass of {x : x_t > 1} under the integrand-weighted one-step limit
    measure of a one-dimensional ``measure``.

    One-step paths are scaled by an independent integrand Y at the uniform
    step time v.  ``profile(grid)`` gets the uniform grid of ``grid_size``
    steps on [0, 1] and returns y (m,) with (y_v * s)_+ ** alpha equal to
    E(Y_v * s)_+ ** alpha for every direction s of ``measure``; ``t`` must be
    a point of that grid, over which the step time is integrated out by
    trapezoid quadrature.  By homogeneity the mass of {x_t > u} is this times
    u**-alpha.
    """
    if measure.dimension != 1:
        raise ValueError("the mass of {x_t > 1} needs a one-dimensional measure")
    k = _grid_index(t, grid_size)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    y = profile(grid)
    return float(np.trapezoid(_weighted_inner_profile(measure, y[: k + 1]), grid[: k + 1]))
