import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigjump import levy_sim
from bigjump._rng import (GAUSS_STREAM, INTEGRAND_STREAM, JUMP_STREAM, chunks,
                          substream)
from bigjump.cadlag import CadlagPath, one_step_approx, sup_norm
from bigjump.levy_sim import (ConstantIntegrand, DeterministicIntegrand,
                              ExpOUIntegrand, LevyModel, SimConfig,
                              assemble_levy_path, batch_integral_functionals,
                              one_jump_integral, simulate_big_jumps,
                              simulate_integrand, simulate_levy_path,
                              simulate_small_part, stochastic_integral)
from batch_helpers import batch_arrays


def pure_jump_model(alpha=1.5, lam=1.0):
    return LevyModel(1, lam, alpha, [([1.0], 1.0)])


_ROW_BLOCKS, _BLOCK_ELEMENTS = levy_sim._row_blocks, levy_sim._BLOCK_ELEMENTS


def block_rows(monkeypatch, rows):
    """Make every ``levy_sim._row_blocks`` call that ``levy_sim`` makes give
    blocks of ``rows`` rows, by a budget of ``rows`` times the width it is
    asked for (the default budget when ``rows`` is None); returns the list
    that collects the rows of each block handed out."""
    got = []

    def blocks(n, width):
        budget = _BLOCK_ELEMENTS if rows is None else rows * width
        monkeypatch.setattr(levy_sim, "_BLOCK_ELEMENTS", budget)
        out = list(_ROW_BLOCKS(n, width))
        got.extend(blk.stop - blk.start for blk in out)
        return out

    monkeypatch.setattr(levy_sim, "_row_blocks", blocks)
    return got


class TestModel:
    def test_induced_measure_intensity_equals_rate(self):
        m = LevyModel(2, 2.5, 1.2, [([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])
        mu = m.induced_measure()
        assert mu.intensity_c == 2.5 and mu.alpha == 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            LevyModel(1, 0.0, 1.5, [([1.0], 1.0)])
        with pytest.raises(ValueError):
            LevyModel(1, 1.0, 1.5, [([1.0, 0.0], 1.0)])
        with pytest.raises(ValueError):
            LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[np.inf]])

    def test_rate_within_the_poisson_range(self):
        # the samplers hold every jump in memory, so the rate is capped far
        # below what numpy's Poisson sampler takes (9.3e18)
        LevyModel(1, 1e3, 1.5, [([1.0], 1.0)])
        for lam in (1001.0, 1e15, 1e19, 1e300, math.inf):
            with pytest.raises(ValueError, match="big_jump_intensity must be at most 1000"):
                LevyModel(1, lam, 1.5, [([1.0], 1.0)])


class TestBigJumps:
    def test_tiny_rate_is_empty(self):
        m = pure_jump_model(lam=1e-12)
        times, sizes = simulate_big_jumps(m, SimConfig(16, 5))
        assert times.shape == (0,) and sizes.shape == (0, 1)

    def test_poisson_mean(self):
        m = pure_jump_model(lam=1.0)
        counts = [len(simulate_big_jumps(m, SimConfig(16, 42, r))[0]) for r in range(20000)]
        assert abs(np.mean(counts) - 1.0) < 3 * math.sqrt(1.0 / 20000)

    def test_pareto_radii(self):
        m = pure_jump_model(alpha=1.5)
        radii = []
        for r in range(30000):
            radii.extend(np.linalg.norm(simulate_big_jumps(m, SimConfig(16, 7, r))[1],
                                        axis=1))
        radii = np.asarray(radii)
        assert radii.min() >= 1.0
        p = (radii > 4.0).mean()
        se = math.sqrt(0.125 * 0.875 / len(radii))
        assert abs(p - 4.0 ** -1.5) < 3 * se

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_pareto_radii_into_out_bit_equal(self, alpha):
        want = (1.0 - substream(3, 1, JUMP_STREAM).random((37, 5))) ** (-1.0 / alpha)
        allocated = levy_sim._pareto_radii(substream(3, 1, JUMP_STREAM), alpha, (37, 5))
        out = np.full((37, 5), np.nan)
        got = levy_sim._pareto_radii(substream(3, 1, JUMP_STREAM), alpha, out=out)
        assert got is out
        assert np.array_equal(allocated, want) and np.array_equal(out, want)

    def test_times_sorted_in_unit_interval(self):
        m = pure_jump_model(lam=4.0)
        ts, sizes = simulate_big_jumps(m, SimConfig(16, 11, 3))
        assert len(ts) == len(sizes) > 0
        assert np.all((ts > 0) & (ts <= 1)) and np.all(np.diff(ts) > 0)

    def test_bit_reproducible_and_streams_independent(self):
        m = pure_jump_model(lam=2.0)
        a = simulate_big_jumps(m, SimConfig(16, 9, 4))
        b = simulate_big_jumps(m, SimConfig(16, 9, 4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = simulate_big_jumps(m, SimConfig(16, 9, 5))
        assert not np.array_equal(a[0], c[0])

    @staticmethod
    def choice_marks(model, rng, shape):
        """``_jump_marks`` with the directions drawn by ``rng.choice``."""
        times = 1.0 - rng.random(shape)
        radii = (1.0 - rng.random(shape)) ** (-1.0 / model.radial_alpha)
        dirs = np.stack([s for s, _ in model.spectral])
        weights = np.array([w for _, w in model.spectral])
        return times, radii[..., None] * dirs[rng.choice(len(weights), size=shape,
                                                         p=weights)]

    @pytest.mark.parametrize("spectral", [
        pytest.param([([1.0], 1.0)], id="one-atom"),
        pytest.param([([1.0], 0.7), ([-1.0], 0.3)], id="two-atoms"),
        pytest.param([([1.0, 0.0], 0.1), ([-1.0, 0.0], 0.2), ([0.0, 1.0], 0.3),
                      ([0.0, -1.0], 0.4)], id="four-atoms-2d"),
    ])
    @pytest.mark.parametrize("shape", [7, (300, 5)], ids=["count", "batch"])
    def test_directions_bit_equal_to_choice(self, spectral, shape):
        # the direction uniforms are searched in the normalized cumulative
        # weights, the draw ``rng.choice`` makes; a one-atom measure draws
        # none, so the stream stops after the radii
        model = LevyModel(len(spectral[0][0]), 1.0, 1.5, spectral)
        for key in range(20):
            rng, ref = substream(3, key, JUMP_STREAM), substream(3, key, JUMP_STREAM)
            times, sizes = levy_sim._jump_marks(model, rng, shape)
            want_times, want_sizes = self.choice_marks(model, ref, shape)
            assert np.array_equal(times, want_times)
            assert np.array_equal(sizes, want_sizes)
            if len(spectral) == 1:
                ref = substream(3, key, JUMP_STREAM)
                ref.random(shape)
                ref.random(shape)
            assert np.array_equal(rng.random(4), ref.random(4))


class TestSmallPart:
    def test_zero_part(self):
        m = pure_jump_model()
        assert sup_norm(simulate_small_part(m, SimConfig(64, 1))) == 0.0

    def test_pure_drift_endpoint_exact(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], drift=[1.0])
        path = simulate_small_part(m, SimConfig(4096, 1))
        assert float(path.values[-1, 0]) == 1.0

    def test_unit_variance(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[1.0]])
        ends = [float(simulate_small_part(m, SimConfig(16, 3, r)).values[-1, 0])
                for r in range(10000)]
        assert abs(np.var(ends) - 1.0) < 3 * math.sqrt(2.0 / 10000)


class TestAssemble:
    def test_no_jumps_identity(self):
        m = pure_jump_model()
        small = simulate_small_part(m, SimConfig(32, 2))
        assert assemble_levy_path(small, np.zeros(0), np.zeros((0, 1))) is small

    def test_single_jump_step(self):
        path = assemble_levy_path(CadlagPath.zero(1), [0.5], [[2.0]])
        assert path.value_at(0.25) == 0.0
        assert path.value_at(0.75) == 2.0
        assert list(path.jump_times) == [0.5]

    def test_largest_jump_consistency(self):
        m = LevyModel(1, 3.0, 1.2, [([1.0], 1.0)], diffusion=[[0.5]], drift=[0.2])
        for r in range(50):
            cfg = SimConfig(64, 21, r)
            path = simulate_levy_path(m, cfg)
            times, sizes = simulate_big_jumps(m, cfg)
            assert np.array_equal(path.jump_times, times)
            assert np.array_equal(path.jump_sizes, sizes)
            if len(times):
                biggest = np.argmax(np.linalg.norm(sizes, axis=1))
                assert one_step_approx(path).jump_times.tolist() == [times[biggest]]


class TestIntegrand:
    def test_constant_flat(self):
        p = simulate_integrand(ConstantIntegrand([2.0, 3.0]), SimConfig(8, 1))
        assert np.all(p.values == [2.0, 3.0])

    def test_deterministic_exponential(self):
        p = simulate_integrand(DeterministicIntegrand(1.0, -1.0),
                               SimConfig(8, 1))
        assert np.allclose(p.values[:, 0], np.exp(-p.grid))

    def test_exp_ou_zero_vol_is_constant(self):
        p = simulate_integrand(ExpOUIntegrand(rate=2.0, vol=0.0, initial=1.7),
                               SimConfig(32, 5))
        assert np.allclose(p.values, 1.7)

    def test_exp_ou_reproducible_and_positive(self):
        spec = ExpOUIntegrand(rate=1.5, vol=0.4, initial=0.8)
        a = simulate_integrand(spec, SimConfig(64, 13, 2))
        b = simulate_integrand(spec, SimConfig(64, 13, 2))
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values > 0)

    def test_extra_times_included(self):
        spec = ExpOUIntegrand(rate=1.0, vol=0.3, initial=1.0)
        p = simulate_integrand(spec, SimConfig(16, 3), times=[0.123, 0.77])
        assert 0.123 in p.grid and 0.77 in p.grid

    def test_exp_ou_stationary_moment(self):
        # var U_t = vol^2 (1 - exp(-2 rate t)) / (2 rate); check at t = 1
        spec = ExpOUIntegrand(rate=2.0, vol=0.5, initial=1.0)
        vals = [float(simulate_integrand(spec, SimConfig(32, 17, r)).values[-1, 0])
                for r in range(4000)]
        target = 0.25 * (1 - math.exp(-4.0)) / 4.0
        assert abs(np.var(np.log(vals)) - target) < 4 * target / math.sqrt(2000)

    def test_exp_ou_rate_bound(self):
        # exp(rate * t) * sd * z overflowed in _ou_exponent: such rates are
        # rejected, and values just inside the bound stay finite
        for rate, vol in ((800.0, 0.3), (709.8, 0.3), (709.0, 50.0), (709.0, 1.3),
                          (800.0, 0.0)):
            with pytest.raises(ValueError, match="overflows the OU integrating factor"):
                ExpOUIntegrand(rate, vol)
        spec = ExpOUIntegrand(709.0, 1.2)
        for r in range(20):
            p = simulate_integrand(spec, SimConfig(64, 3, r), times=[0.3, 0.999])
            assert np.all(np.isfinite(p.values))
        model = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.5]])
        assert all(np.all(np.isfinite(v))
                   for v in batch_arrays(model, spec, 1.0, 2000, 3, grid_size=64))

    def test_exp_ou_vol_bound(self):
        # exp(U) overflowed for a large vol, which left non-finite integrand
        # values; such integrands are rejected, and vol 11 at rate 0 (64
        # deviations give U = 704) still passes
        for rate, vol, initial in ((1.0, 1000.0, 1.0), (1.0, 20.0, 1.0), (0.0, 12.0, 1.0),
                                   (0.0, 1.3, 1e300)):
            with pytest.raises(ValueError, match="overflows exp"):
                ExpOUIntegrand(rate, vol, initial)
        spec = ExpOUIntegrand(0.0, 11.0)
        for r in range(20):
            p = simulate_integrand(spec, SimConfig(64, 3, r), times=[0.3, 0.999])
            assert np.all(np.isfinite(p.values)) and np.all(p.values > 0)


class TestStochasticIntegral:
    def test_unit_integrand_identity(self):
        m = LevyModel(1, 2.0, 1.2, [([1.0], 0.7), ([-1.0], 0.3)],
                      diffusion=[[0.5]], drift=[0.3])
        for r in range(20):
            x = simulate_levy_path(m, SimConfig(256, 31, r))
            y = simulate_integrand(ConstantIntegrand([1.0]), SimConfig(256, 31, r),
                                   times=x.jump_times)
            w = stochastic_integral(y, x)
            assert np.array_equal(w.jump_sizes, x.jump_sizes)
            assert np.array_equal(w.jump_times, x.jump_times)
            err = np.abs(w._sides_at(x.grid)[1] - x.values).max()
            assert err <= 1e-12

    def test_single_jump_deterministic_integrand(self):
        x = assemble_levy_path(CadlagPath.zero(1), [0.5], [[2.0]])
        y = simulate_integrand(DeterministicIntegrand(1.0, -1.0),
                               SimConfig(64, 1), times=[0.5])
        w = stochastic_integral(y, x)
        oj = one_jump_integral(y, x)
        assert w.jump_sizes[0, 0] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)
        ts = np.linspace(0, 1, 17)
        assert np.allclose(w._sides_at(ts)[1], oj._sides_at(ts)[1], atol=1e-14)

    def test_drift_integral_value_and_order(self):
        # integral of t dt via left endpoints: error is exactly h/2
        errors = []
        for gs in (250, 500, 1000):
            grid = np.linspace(0, 1, gs + 1)
            x = CadlagPath(grid, grid[:, None])
            y = CadlagPath(grid, grid[:, None])
            w = stochastic_integral(y, x)
            errors.append(abs(float(w.values[-1, 0]) - 0.5))
        assert errors[-1] <= 1e-3
        for e1, e2 in zip(errors, errors[1:]):
            assert e1 / e2 == pytest.approx(2.0, rel=0.5)

    LINEARITY_CASES = {
        "1d-deterministic-constant": (
            LevyModel(1, 2.0, 1.5, [([1.0], 1.0)], diffusion=[[0.4]]),
            DeterministicIntegrand(1.0, -0.5), ConstantIntegrand([1.5])),
        "2d-constants": (
            LevyModel(2, 2.0, 1.5, [([1.0, 0.0], 0.5), ([0.0, -1.0], 0.5)],
                      diffusion=[[0.4, 0.0], [0.1, 0.3]], drift=[0.2, -0.1]),
            ConstantIntegrand([1.5, -2.0]), ConstantIntegrand([0.5, 3.0])),
        "exp-ou-pair": (
            LevyModel(1, 2.0, 1.2, [([1.0], 0.7), ([-1.0], 0.3)], diffusion=[[0.4]],
                      drift=[0.3]),
            ExpOUIntegrand(1.0, 0.5, 1.0), ExpOUIntegrand(2.0, 0.3, 2.0)),
    }

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(sorted(LINEARITY_CASES)), seed=st.integers(0, 2 ** 32 - 1),
           a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
    def test_linearity(self, case, seed, a, b):
        # both integrands are sampled on the same grid (the uniform grid plus
        # the driver's jump times), so a * y1 + b * y2 is a pointwise sum
        m, spec1, spec2 = self.LINEARITY_CASES[case]
        cfg = SimConfig(128, seed, 1)
        x = simulate_levy_path(m, cfg)
        y1 = simulate_integrand(spec1, cfg, times=x.jump_times)
        y2 = simulate_integrand(spec2, cfg, times=x.jump_times)
        comb = CadlagPath(y1.grid, a * y1.values + b * y2.values)
        w = stochastic_integral(comb, x)
        w1 = stochastic_integral(y1, x)
        w2 = stochastic_integral(y2, x)
        # every partial sum is bounded by sup |a y1| + sup |b y2| times the
        # driver's total variation on the grid; rounding stays far below that
        bound = ((abs(a) * np.abs(y1.values).max() + abs(b) * np.abs(y2.values).max())
                 * np.abs(np.diff(x.values, axis=0)).sum())
        assert np.abs(w.values - (a * w1.values + b * w2.values)).max() <= 1e-12 * bound

    def test_constant_integrand_matches_product(self):
        m = LevyModel(1, 2.0, 1.5, [([1.0], 1.0)], drift=[0.5])
        x = simulate_levy_path(m, SimConfig(128, 19, 0))
        y = simulate_integrand(ConstantIntegrand([2.5]), SimConfig(128, 19, 0),
                               times=x.jump_times)
        w = stochastic_integral(y, x)
        p = x.scaled(2.5)
        assert np.array_equal(w.jump_sizes, p.jump_sizes)
        assert np.abs(w._sides_at(x.grid)[1] - p.values).max() <= 1e-10

    def test_predictability_left_limit_evaluation(self):
        # changing y from the jump time on (keeping its left limit) must not
        # change any jump contribution
        x = assemble_levy_path(CadlagPath.zero(1), [0.5], [[3.0]])
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        y1 = CadlagPath(grid, np.array([[1.0], [1.0], [1.0], [1.0], [1.0]]))
        bumped = np.array([[1.0], [1.0], [1.0], [9.0], [9.0]])
        y2 = CadlagPath(grid, bumped)
        w1 = stochastic_integral(y1, x)
        w2 = stochastic_integral(y2, x)
        assert np.array_equal(w1.jump_sizes, w2.jump_sizes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stochastic_integral(CadlagPath.zero(2), CadlagPath.zero(1))


class TestOneJumpIntegral:
    def test_unit_integrand_matches_one_step(self):
        m = LevyModel(1, 2.0, 1.5, [([1.0], 1.0)], diffusion=[[0.3]])
        x = simulate_levy_path(m, SimConfig(64, 23, 2))
        y = simulate_integrand(ConstantIntegrand([1.0]), SimConfig(64, 23, 2),
                               times=x.jump_times)
        a = one_jump_integral(y, x)
        b = one_step_approx(x)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.allclose(a.jump_sizes, b.jump_sizes)

    def test_componentwise_largest_jump(self):
        x = assemble_levy_path(CadlagPath.zero(2), [0.2, 0.7], [[3.0, 3.0], [5.0, 5.0]])
        y = simulate_integrand(ConstantIntegrand([2.0, 3.0]), SimConfig(8, 1))
        w = one_jump_integral(y, x)
        assert w.jump_times.tolist() == [0.7]
        assert np.array_equal(w.jump_sizes[0], [10.0, 15.0])

    def test_no_jumps_gives_zero(self):
        y = simulate_integrand(ConstantIntegrand([1.0]), SimConfig(8, 1))
        grid = np.linspace(0, 1, 9)
        x = CadlagPath(grid, np.sin(grid)[:, None])
        assert sup_norm(one_jump_integral(y, x)) == 0.0


class TestOutArrays:
    """The grid kernels' ``out=`` forms equal their allocating forms bit for
    bit, whatever the buffer held before (scratch buffers hold stale values)."""

    @pytest.mark.parametrize("spec", [
        ExpOUIntegrand(rate=2.0, vol=0.3, initial=1.5), ExpOUIntegrand(rate=0.0, vol=0.4),
        ConstantIntegrand([2.0]), DeterministicIntegrand(scale=1.0, rate=-1.0)])
    def test_integrand_values(self, spec):
        grid = np.linspace(0.0, 1.0, 65)
        z = substream(4, 0, INTEGRAND_STREAM).standard_normal((9, 64))
        want = levy_sim._integrand_values(spec, grid, z if isinstance(spec, ExpOUIntegrand)
                                          else None)
        want = np.broadcast_to(want, (9, 65, 1))
        out = np.full((9, 65, 1), np.nan)
        got = levy_sim._integrand_values(spec, np.broadcast_to(grid, (9, 65)), z, out=out)
        assert got is out and np.array_equal(out, want)

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_ou_exponent(self, rate):
        grid = np.linspace(0.0, 1.0, 33)
        z = substream(4, 1, INTEGRAND_STREAM).standard_normal((5, 32))
        out = np.full((5, 33), np.nan)
        assert levy_sim._ou_exponent(rate, 0.3, grid, z, out) is out
        assert np.array_equal(out, levy_sim._ou_exponent(rate, 0.3, grid, z))

    @pytest.mark.parametrize("diffusion, drift", [(0.5, 0.3), (0.0, 0.3), (0.5, 0.0)])
    def test_gaussian_walk(self, diffusion, drift):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[diffusion]], drift=[drift])
        z = substream(4, 2, GAUSS_STREAM).standard_normal((6, 40, 1))
        out = np.full((6, 41, 1), np.nan)
        assert levy_sim._gaussian_walk(m, z, out) is out
        assert np.array_equal(out, levy_sim._gaussian_walk(m, z))


class TestBatchFunctionals:
    def test_pure_drift_exact(self):
        m = LevyModel(1, 1e-12, 1.5, [([1.0], 1.0)], drift=[1.0])
        endpoint, runsup = batch_arrays(
            m, ConstantIntegrand([2.0]), 0.5, 100, seed=3, grid_size=64)
        assert np.allclose(endpoint, 1.0, atol=1e-12)
        assert np.allclose(runsup, 1.0, atol=1e-12)

    def test_matches_replicate_machinery_statistically(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.5]])
        spec = DeterministicIntegrand(1.0, -1.0)
        endpoint, runsup = batch_arrays(m, spec, 1.0, 60000, seed=5, grid_size=128)
        ref = np.empty(6000)
        for r in range(len(ref)):
            cfg = SimConfig(128, 999, r)
            x = simulate_levy_path(m, cfg)
            y = simulate_integrand(spec, cfg, times=x.jump_times)
            ref[r] = float(stochastic_integral(y, x).values[-1, 0])
        for u in (2.0, 5.0):
            pb = (endpoint > u).mean()
            pr = (ref > u).mean()
            se = math.sqrt(pr * (1 - pr) * (1 / len(ref) + 1 / len(endpoint)))
            assert abs(pb - pr) < 4 * se
        assert np.all(runsup >= endpoint - 1e-12)

    @pytest.mark.parametrize("model, spec, t", [
        pytest.param(LevyModel(1, 2.0, 1.5, [([1.0], 0.7), ([-1.0], 0.3)],
                               diffusion=[[0.5]], drift=[0.3]),
                     ConstantIntegrand([1.5]), 1.0, id="constant-diffusion"),
        pytest.param(LevyModel(1, 2.0, 1.5, [([1.0], 0.7), ([-1.0], 0.3)]),
                     DeterministicIntegrand(2.0, -1.5), 0.75, id="deterministic"),
    ])
    def test_matches_replicate_paths_on_same_draws(self, monkeypatch, model, spec, t):
        # One replicate per batch: batch k draws from replicate k's jump and
        # Gaussian streams.  The reference pairs each jump time with the size
        # drawn at its position, as the batch does (``_draw_jumps`` sorts the
        # times apart from the sizes, which has the same law), and computes the
        # functionals with the exact path machinery.
        monkeypatch.setattr(levy_sim, "_BATCH", 1)
        n, seed, grid_size = 200, 13, 64
        endpoint, runsup = batch_arrays(model, spec, t, n, seed, grid_size)
        several = 0  # replicates with two or more jumps
        for k in range(n):
            cfg = SimConfig(grid_size, seed, k)
            rng = substream(seed, k, JUMP_STREAM)
            times, sizes = levy_sim._jump_marks(model, rng,
                                                int(rng.poisson(model.big_jump_intensity)))
            order = np.argsort(times)
            x = assemble_levy_path(simulate_small_part(model, cfg), times[order],
                                   sizes[order])
            y = simulate_integrand(spec, cfg, times=times)
            w = stochastic_integral(y, x)
            left, right = w._sides_at(w.grid[w.grid <= t])
            np.testing.assert_allclose([endpoint[k], runsup[k]],
                                       [w.value_at(t)[0], max(left.max(), right.max())],
                                       rtol=1e-12)
            several += len(times) > 1
        assert several > n // 4

    def test_deterministic_in_seed(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.2]])
        a = batch_arrays(m, ConstantIntegrand([1.0]), 1.0, 5000, seed=7)
        b = batch_arrays(m, ConstantIntegrand([1.0]), 1.0, 5000, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_requires_grid_time(self):
        m = pure_jump_model()
        with pytest.raises(ValueError, match="grid time"):
            batch_arrays(m, ConstantIntegrand([1.0]), 0.123, 10, 1, grid_size=64)
        # 1e-13 is within 1e-12 of grid time 0, which is not in (0, 1]
        with pytest.raises(ValueError, match="grid time"):
            batch_arrays(m, ConstantIntegrand([1.0]), 1e-13, 10, 1, grid_size=512)

    def test_memory_does_not_grow_with_the_grid(self):
        # exp-OU replicates with a Gaussian part, reduced to nothing, against one
        # batch of 8192 at grid 128 and intensity 1.  Whole arrays would take
        # 400 MB of (batch x grid) values at grid 2048, 1 MB of endpoints (and
        # as many sups) at 16 batches, and 72 MB of jump draws at intensity 1000
        spec = ExpOUIntegrand(2.0, 0.3, 1.0)

        def peak(lam, n, grid_size, running_sup):
            m = LevyModel(1, lam, 1.5, [([1.0], 1.0)], diffusion=[[0.5]])
            tracemalloc.start()
            try:
                batch_integral_functionals(m, spec, 1.0, n, 3, lambda *_: None, grid_size,
                                           running_sup=running_sup)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1.0, 100, 128, True)  # numpy's first-call allocations
        for running_sup in (True, False):
            base = peak(1.0, 8192, 128, running_sup)
            peaks = [peak(1.0, 8192, 2048, running_sup), peak(1.0, 16 * 8192, 128, running_sup),
                     peak(1000.0, 8192, 128, running_sup)]
            assert peaks[0] <= 2 * base, (running_sup, base, peaks)
            assert peaks[1] <= 1.1 * base, (running_sup, base, peaks)
            assert peaks[2] <= 4 * base, (running_sup, base, peaks)

    def test_jump_only_blocks_fit_the_budget(self):
        # a tails run without grid arrays (intensity 1, grid 512, four batches)
        # holds one row block at a time, about half a batch, whose arrays share
        # buffers by role: about 1 MB, besides each batch's counts and endpoints
        m, spec = pure_jump_model(), DeterministicIntegrand(1.0, -1.0)

        def peak(n):
            tracemalloc.start()
            try:
                batch_integral_functionals(m, spec, 1.0, n, 3, lambda *_: None, 512,
                                           running_sup=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # numpy's first-call allocations
        assert peak(4 * levy_sim._BATCH) <= 1.8e6


@pytest.mark.parametrize("rows", [1, 97, None], ids=["1-row", "97-rows", "default"])
@pytest.mark.parametrize("model", [
    pytest.param(LevyModel(1, 300.0, 1.5, [([1.0], 0.5), ([-1.0], 0.3), ([1.0], 0.15),
                                           ([-1.0], 0.05)]), id="four-atoms"),
    pytest.param(LevyModel(1, 1.0, 1.5, [([1.0], 1.0)]), id="one-atom"),
])
def test_block_marks_bit_equal_to_whole_batch_draw(monkeypatch, model, rows):
    # each block reads its rows of the times, radii and direction uniforms from
    # their places in the jump stream; the Poisson counts leave 3, 2, 1 and 0
    # outputs of the stream's four-output buffer at intensity 1 (2, 0, 2 and 0
    # at 300).  The default blocks are those of a jump-only block of the batch
    # sampler: one block of 700 rows at intensity 1, and a few dozen rows at 300
    b = 700
    block_rows(monkeypatch, rows)
    for seed, batch_index in ((3, 0), (8, 5), (1, 1), (21, 2)):
        rng = substream(seed, batch_index, JUMP_STREAM)
        kmax = max(int(rng.poisson(model.big_jump_intensity, b).max()), 1)
        marks = rng.bit_generator.state
        times, sizes = levy_sim._jump_marks(model, rng, (b, kmax))
        blocks = levy_sim._row_blocks(b, kmax * (4.5 + 2 * (len(model.spectral) > 1)))
        assert [blk.start for blk in blocks[1:]] == [blk.stop for blk in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == b
        heights = [blk.stop - blk.start for blk in blocks]
        assert rows is None or set(heights[:-1]) <= {rows} and heights[-1] <= rows
        for blk in blocks:
            got = levy_sim._block_marks(model, rng, marks, b, kmax, blk)
            assert np.array_equal(got[0], times[blk])
            assert np.array_equal(got[1], sizes[blk, :, 0])


def dense_batch_reference(model, integrand, t, n, seed, grid_size):
    """``batch_integral_functionals`` with the jump part on the whole grid:
    the running sum of the time-ordered jumps is gathered onto every grid
    point by the count of jumps at or before it, and the grid sup is a dense
    maximum.  Kept as the reference the sparse sampler must match bit for
    bit; batches follow ``_BATCH``."""
    it = round(t * grid_size)
    has_cont = model.diffusion.any() or model.drift.any()
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    endpoints = np.empty(n)
    sups = np.empty(n)

    def batch(batch_index, start, stop):
        b = stop - start
        rng = substream(seed, batch_index, JUMP_STREAM)
        counts = rng.poisson(model.big_jump_intensity, b)
        kmax = max(int(counts.max()), 1)
        mask = np.arange(kmax)[None, :] < counts[:, None]
        jt, jz = levy_sim._jump_marks(model, rng, (b, kmax))
        jz = np.where(mask, jz[..., 0], 0.0)
        jt = np.where(mask, jt, 2.0)
        if isinstance(integrand, ExpOUIntegrand):
            z = substream(seed, batch_index, INTEGRAND_STREAM).standard_normal((b, grid_size))
            y_grid = levy_sim._integrand_values(integrand, grid, z)[..., 0]
            pos = np.clip((jt * grid_size).astype(int), 0, grid_size)
            y_jump = np.take_along_axis(y_grid, pos, axis=1)
        else:
            y_grid = np.broadcast_to(levy_sim._integrand_values(integrand, grid)[:, 0],
                                     (b, grid_size + 1))
            y_jump = levy_sim._integrand_values(integrand, np.where(mask, jt, 0.0))[..., 0]
        wz = np.where(mask, y_jump * jz, 0.0)
        if has_cont:
            z = substream(seed, batch_index, GAUSS_STREAM).standard_normal((b, grid_size, 1))
            xc = levy_sim._gaussian_walk(model, z)[..., 0]
            wc = np.hstack([np.zeros((b, 1)),
                            np.cumsum(y_grid[:, :-1] * np.diff(xc, axis=1), axis=1)])
        else:
            wc = np.zeros((b, grid_size + 1))
            xc = wc
        rows = np.arange(b)[:, None]
        order = np.argsort(jt, axis=1)
        wz_sorted = np.take_along_axis(wz, order, axis=1)
        cum = np.zeros((b, kmax + 1))
        np.cumsum(wz_sorted, axis=1, out=cum[:, 1:])
        cum_sorted = cum[:, 1:]
        jt_sorted = np.take_along_axis(jt, order, axis=1)
        gpos = np.minimum(np.ceil(jt * grid_size).astype(int), grid_size + 1)
        seen = np.zeros((b, grid_size + 2), dtype=int)
        np.add.at(seen, (rows, gpos), 1)
        seen = np.cumsum(seen[:, : grid_size + 1], axis=1)  # jumps at or before
        jump_grid = np.take_along_axis(cum, seen, axis=1)
        endpoints[start:stop] = wc[:, it] + jump_grid[:, it]
        sup_vals = np.max(wc[:, : it + 1] + jump_grid[:, : it + 1], axis=1)
        seg = np.clip((jt_sorted * grid_size).astype(int), 0, grid_size - 1)
        frac = jt_sorted * grid_size - seg
        xc_at = xc[rows, seg] + frac * (xc[rows, seg + 1] - xc[rows, seg])
        wc_at = wc[rows, seg] + y_grid[rows, seg] * (xc_at - xc[rows, seg])
        value_at = wc_at + cum_sorted
        ok = jt_sorted <= t
        post = np.where(ok, value_at, -np.inf)
        pre = np.where(ok, value_at - wz_sorted, -np.inf)
        sup_vals = np.maximum(sup_vals, post.max(axis=1))
        sup_vals = np.maximum(sup_vals, pre.max(axis=1))
        sups[start:stop] = np.maximum(sup_vals, 0.0)

    chunks(n, levy_sim._BATCH, batch)
    return endpoints, sups


class TestBatchDifferential:
    """The sparse jump sums against the dense reference, bit for bit."""

    @pytest.mark.parametrize("batch", [None, 700], ids=["one-batch", "partial-batch"])
    @pytest.mark.parametrize("model, spec, t, grid_size", [
        pytest.param(pure_jump_model(), DeterministicIntegrand(1.0, -1.0),
                     1.0, 512, id="readme"),
        pytest.param(LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.5]]),
                     ExpOUIntegrand(2.0, 0.3, 1.0), 1.0, 512, id="diffusion-exp-ou"),
        pytest.param(LevyModel(1, 2.0, 1.5, [([1.0], 0.7), ([-1.0], 0.3)],
                               diffusion=[[0.5]], drift=[0.3]),
                     ConstantIntegrand([1.5]), 0.5, 512, id="two-sided-half"),
        pytest.param(LevyModel(1, 40.0, 1.5, [([1.0], 0.6), ([-1.0], 0.4)],
                               diffusion=[[0.2]]),
                     DeterministicIntegrand(-2.0, -1.5), 1.0, 16,
                     id="many-jumps-per-cell"),
        pytest.param(LevyModel(1, 1.0, 1.2, [([1.0], 1.0)]),
                     ExpOUIntegrand(2.0, 0.3, 1.0), 1.0, 128, id="no-diffusion-exp-ou"),
        pytest.param(LevyModel(1, 40.0, 1.5, [([1.0], 0.6), ([-1.0], 0.4)],
                               diffusion=[[0.2]]),
                     ExpOUIntegrand(2.0, 0.3, 1.0), 1.0, 16,
                     id="many-jumps-per-cell-exp-ou"),
        pytest.param(LevyModel(1, 1e-12, 1.5, [([1.0], 1.0)], drift=[1.0]),
                     ConstantIntegrand([2.0]), 0.5, 64, id="pure-drift"),
        # a batch's most jumps (about 360) exceed the grid size, so they set
        # the rows of a block, with or without arrays on the grid
        pytest.param(LevyModel(1, 300.0, 1.5, [([1.0], 0.6), ([-1.0], 0.4)]),
                     DeterministicIntegrand(1.0, -1.0), 1.0, 64, id="high-intensity"),
        pytest.param(LevyModel(1, 300.0, 1.5, [([1.0], 0.6), ([-1.0], 0.4)],
                               diffusion=[[0.2]]),
                     ExpOUIntegrand(2.0, 0.3, 1.0), 0.5, 64, id="high-intensity-exp-ou"),
    ])
    def test_bit_equal_to_dense(self, monkeypatch, batch, model, spec, t, grid_size):
        if batch is not None:
            monkeypatch.setattr(levy_sim, "_BATCH", batch)
        n, seed = 2500, 21
        want = dense_batch_reference(model, spec, t, n, seed, grid_size)
        # the default row blocks, sized by all of a block's arrays, then blocks
        # of 97 rows and a partial last block (2500 = 25 * 97 + 75; batches of
        # 700 and a last one of 400), then blocks of one row
        for rows in (None, 97, 1):
            heights = block_rows(monkeypatch, rows)
            got = batch_arrays(model, spec, t, n, seed, grid_size)
            assert rows is None or max(heights) == rows
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            # the endpoint-only mode: the same endpoint bits, and no sup
            endpoint, sup = batch_arrays(model, spec, t, n, seed, grid_size,
                                         running_sup=False)
            assert np.array_equal(endpoint, want[0]) and sup is None
