"""Property tests of the J1 dynamic program on small step paths, and of the
one-big-jump estimator's closed-form J1 decision against it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bigjump import diagnostics  # noqa: E402
from bigjump.cadlag import (CadlagPath, j1_distance, j1_within, one_step_approx,  # noqa: E402
                            uniform_distance)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
REFINEMENT = 2


def pair_arrays(w, step):
    """``diagnostics._screen``'s arrays for the path W and a one-jump step,
    as a block of one replicate."""
    return w.grid[None], w.values[None], w._left[None], step.jump_sizes, step.jump_times


@st.composite
def step_paths(draw, dimension=1):
    """Step paths with one to three jumps on the 1/100 lattice."""
    times = sorted(draw(st.sets(st.integers(1, 99), min_size=1, max_size=3)))
    sizes = [[draw(st.floats(-2.0, 2.0, allow_subnormal=False)) for _ in range(dimension)]
             for _ in times]
    grid = np.unique(np.concatenate([[0.0, 1.0], np.array(times) / 100.0]))
    values = np.zeros((len(grid), dimension))
    for t, s in zip(times, sizes):
        values[grid >= t / 100.0] += s
    return CadlagPath.from_samples(grid, values, [(t / 100.0, s) for t, s in zip(times, sizes)])


@SETTINGS
@given(step_paths())
def test_distance_to_itself_is_zero(x):
    assert j1_distance(x, x, REFINEMENT) == 0.0


@SETTINGS
@given(step_paths(), step_paths())
def test_symmetric(x, y):
    assert abs(j1_distance(x, y, REFINEMENT) - j1_distance(y, x, REFINEMENT)) <= 1e-9


@SETTINGS
@given(step_paths(dimension=2), step_paths(dimension=2))
def test_at_most_uniform_distance(x, y):
    assert j1_distance(x, y, REFINEMENT) <= uniform_distance(x, y) + 1e-12


@SETTINGS
@given(step_paths(), step_paths(), st.floats(0.0, 3.0), st.sampled_from([-1, 0, 1]))
def test_within_is_distance_below_cutoff(x, y, eps, nudge):
    d = j1_distance(x, y, REFINEMENT)
    # half the cases probe the value itself and its two neighbours
    if eps < 1.5:
        eps = d if nudge == 0 else float(np.nextafter(d, nudge * np.inf))
    assert j1_within(x, y, eps, REFINEMENT) == (d <= eps)


@pytest.mark.parametrize("dimension", [1, 2])
@SETTINGS
@given(data=st.data())
def test_triangle_inequality(dimension, data):
    x, y, z = (data.draw(step_paths(dimension=dimension)) for _ in range(3))
    assert (j1_distance(x, z, REFINEMENT)
            <= j1_distance(x, y, REFINEMENT) + j1_distance(y, z, REFINEMENT) + 1e-12)


@pytest.mark.parametrize("dimension", [1, 2])
@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_one_step_closed_form_matches_distance(dimension, data):
    # the estimator's verdict against the single step at W's first largest
    # jump, at u = 1, is the dynamic program's, which is exact on step pairs;
    # half the steps sit anywhere, where the time change binds far more often
    w = data.draw(step_paths(dimension=dimension))
    if data.draw(st.booleans()):
        step = one_step_approx(w)
    else:
        step = CadlagPath.step(data.draw(st.integers(1, 100)) / 100.0,
                               [data.draw(st.floats(-2.0, 2.0, allow_subnormal=False))
                                for _ in range(dimension)])
    d = j1_distance(w, step, REFINEMENT)
    if d > 0 and data.draw(st.booleans()):  # probe around the distance itself
        eps = d * data.draw(st.floats(0.5, 1.5))
    else:
        eps = data.draw(st.floats(1e-3, 3.0))
    assume(abs(eps - d) > 1e-9)
    exceeds = diagnostics._exceeds(*pair_arrays(w, step), eps, [1.0])
    assert exceeds[0, 0] == (d > eps)


@st.composite
def linear_paths(draw, dimension, size):
    """Piecewise-linear paths on the 1/10 grid with up to two jumps off it.

    Half of them ramp from 0 to ``size`` over one grid interval, plus
    noise, so that the step's crossings fall on one linear piece.
    """
    times = sorted(draw(st.sets(st.integers(1, 99), max_size=2)))
    times = [t / 100.0 + 1e-3 for t in times]  # never on the grid
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), times]))

    def noise(scale):
        return [draw(st.floats(-scale, scale, allow_subnormal=False)) for _ in range(dimension)]

    if draw(st.booleans()):
        start = draw(st.integers(0, 9)) / 10.0
        ramp = np.clip((grid - start) * 10.0, 0.0, 1.0)[:, None] * size
        scale = draw(st.floats(0.0, 0.5))
        values = ramp + np.array([noise(scale) for _ in grid])
    else:
        values = np.array([noise(2.0) for _ in grid])
    values[0] = 0.0
    return CadlagPath.from_samples(grid, values, [(t, noise(2.0)) for t in times])


def _scanned_distance(w, tau, size, ds):
    """min over s on a lattice of step ds (and W's grid) of max(|s - tau|,
    sup_{t<s} |W_t|, sup_{t>=s} |W_t - A|), each sup exact, and the bound
    on how far the lattice minimum can lie above the infimum."""
    s = np.union1d(np.arange(ds, 1.0, ds), w.grid[1:])
    left, right = w._sides_at(s)
    g = w.grid
    norm = np.maximum(np.linalg.norm(w._left, axis=1), np.linalg.norm(w.values, axis=1))
    gap = np.maximum(np.linalg.norm(w._left - size, axis=1),
                     np.linalg.norm(w.values - size, axis=1))
    before = np.searchsorted(g, s, side="left")  # grid points t < s
    prefix = np.maximum.accumulate(norm)
    suffix = np.maximum.accumulate(gap[::-1])[::-1]
    p = np.maximum(np.where(before > 0, prefix[np.maximum(before - 1, 0)], 0.0),
                   np.linalg.norm(left, axis=1))
    after = np.searchsorted(g, s, side="right")  # grid points t > s
    q = np.maximum(np.where(after < len(g), suffix[np.minimum(after, len(g) - 1)], 0.0),
                   np.linalg.norm(right - size, axis=1))
    span, rise = w._segments
    slope = float(np.max(np.linalg.norm(rise, axis=1) / span))
    return float(np.min(np.maximum(np.abs(s - tau), np.maximum(p, q)))), (1.0 + slope) * ds


@pytest.mark.parametrize("dimension", [1, 2])
@SETTINGS
@given(data=st.data())
def test_closed_form_matches_scan_on_linear_paths(dimension, data):
    # between grid points W is linear, so the crossing times are roots of a
    # quadratic; a fine scan over the step's time bounds the distance from
    # both sides
    tau = data.draw(st.integers(1, 100)) / 100.0
    size = np.array([data.draw(st.floats(-2.0, 2.0, allow_subnormal=False))
                     for _ in range(dimension)])
    w = data.draw(linear_paths(dimension, size))
    d, slack = _scanned_distance(w, tau, size, 1e-4)
    arrays = pair_arrays(w, CadlagPath.step(tau, size))
    assert not diagnostics._exceeds(*arrays, d + 1e-9, [1.0])[0, 0]
    if d - slack > 1e-9:
        assert diagnostics._exceeds(*arrays, d - slack - 1e-9, [1.0])[0, 0]
