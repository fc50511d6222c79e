"""Property tests of the J1 dynamic program on small step paths."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bigjump.cadlag import CadlagPath, j1_distance, j1_within, uniform_distance  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
REFINEMENT = 2


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
