import json
import math
import tracemalloc

import numpy as np
import pytest

from bigjump import diagnostics, experiments, levy_sim, regvar
from bigjump._rng import AUX_STREAM, substream
from bigjump.cadlag import j1_within, one_step_approx, sup_norm, uniform_distance
from bigjump.diagnostics import (TailEstimate, analytic_prediction, breiman_ratio,
                                 double_jump_trend, hill, maximal_product_bound,
                                 one_big_jump_curve, tail_equivalence)
from bigjump.levy_sim import (ConstantIntegrand, DeterministicIntegrand,
                              ExpOUIntegrand, LevyModel, SimConfig, _power_mean,
                              assemble_levy_path, one_jump_integral,
                              simulate_big_jumps, simulate_integrand,
                              simulate_small_part, stochastic_integral)
from bigjump.experiments import parse, run, validate
from bigjump.regvar import RegVarMeasure, weighted_one_step_mass


def pareto_sampler(alpha):
    """A ``BatchSampler``: fills ``out`` with Pareto draws."""
    return lambda rng, out: np.copyto(out, (1.0 - rng.random(out.shape)) ** (-1.0 / alpha))


def lognormal_sampler(sigma):
    return lambda rng, out: np.copyto(out, np.exp(sigma * rng.standard_normal(out.shape)))


class TestTailProb:
    def test_stderr_formula_exact(self):
        e = TailEstimate(1.0, 400, 25)
        assert e.p_hat == 25 / 400
        assert e.stderr == math.sqrt(e.p_hat * (1 - e.p_hat) / 400)

    def test_wilson_at_zero_hits(self):
        # the Wald error is 0 here; the Wilson interval keeps its width
        e = TailEstimate(1.0, 10, 0)
        z2 = 1.959963984540054 ** 2
        assert e.stderr == 0.0
        lo, hi = e.wilson()
        assert lo == 0.0
        assert hi == pytest.approx(z2 / (10 + z2), rel=1e-12)
        assert hi == pytest.approx(0.2775, abs=1e-4)  # the tabulated 95% bound for 0/10

    def test_wilson_at_all_hits(self):
        e = TailEstimate(1.0, 10, 10)
        z2 = 1.959963984540054 ** 2
        assert e.stderr == 0.0
        lo, hi = e.wilson()
        assert hi == 1.0
        assert lo == pytest.approx(10 / (10 + z2), rel=1e-12)

    def test_wilson_brackets_estimate_and_narrows(self):
        wide = TailEstimate(1.0, 400, 25).wilson()
        narrow = TailEstimate(1.0, 40000, 2500).wilson()
        assert wide[0] < 25 / 400 < wide[1]
        assert narrow[1] - narrow[0] < (wide[1] - wide[0]) / 5
        assert TailEstimate(1.0, 400, 25).wilson(z=1.0)[1] < wide[1]
        with pytest.raises(ValueError):
            TailEstimate(1.0, 400, 25).wilson(z=0.0)


class TestHill:
    def test_exact_power_sequence(self):
        n = 100000
        x = (n / np.arange(1, n + 1)) ** 0.5
        est = hill(x, 1000)
        assert est.alpha_hat == pytest.approx(2.0067696350270877, rel=1e-12)
        assert abs(est.alpha_hat - 2.0) < 0.01
        assert est.stderr == est.alpha_hat / math.sqrt(1000)

    def test_constant_log_ratio(self):
        # top-k values all equal base * exp(1/alpha): every log ratio is 1/alpha
        x = np.concatenate([np.ones(400), np.full(60, math.e ** (1 / 1.5))])
        assert hill(x, 60).alpha_hat == pytest.approx(1.5, rel=1e-12)

    def test_pareto_recovery(self):
        rng = np.random.default_rng(3)
        x = (1.0 - rng.random(100000)) ** (-1 / 1.5)
        est = hill(x, 1000)
        assert abs(est.alpha_hat - 1.5) < 3 * est.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            hill([1.0, 2.0], 2)
        with pytest.raises(ValueError, match="positive"):
            hill([1.0, -2.0, 3.0], 1)


class TestBreimanRatio:
    def test_unit_factor_is_one(self):
        ests = breiman_ratio(pareto_sampler(2.0),
                             lambda rng, out: out.fill(1.0),
                             [2.0, 8.0], 20000, seed=2)
        for e in ests:
            assert e.ratio == 1.0 and e.stderr == 0.0

    def test_constant_two_exact_algebra(self):
        # P(2X > u) / P(X > u) = 2^alpha exactly for Pareto X and u >= 2
        ests = breiman_ratio(pareto_sampler(2.0),
                             lambda rng, out: out.fill(2.0),
                             [2.0, 4.0, 16.0], 400000, seed=4)
        for e in ests:
            assert abs(e.ratio - 4.0) < 3 * e.stderr

    def test_lognormal_moment_limit(self):
        ests = breiman_ratio(pareto_sampler(2.0), lognormal_sampler(0.5),
                             [8.0], 400000, seed=6)
        e = ests[0]
        assert abs(e.ratio - math.exp(0.5)) < 4 * e.stderr

    def test_memory_bounded_in_n(self):
        # counts merge per chunk, so nothing of size n is kept
        tracemalloc.start()
        try:
            breiman_ratio(pareto_sampler(2.0), lognormal_sampler(0.5),
                          [2.0, 4.0, 8.0, 16.0, 32.0], 4_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestTailEquivalence:
    def test_monotone_paths_ratio_exactly_one(self):
        # positive jumps, positive drift, no Gaussian part: sup at the endpoint
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], drift=[0.5])
        ests = tail_equivalence(m, ConstantIntegrand([1.0]), 1.0, [2.0, 5.0, 10.0],
                                30000, seed=8, grid_size=64)
        for e in ests:
            assert e.ratio == 1.0

    def test_ratio_at_least_one(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 0.6), ([-1.0], 0.4)],
                      diffusion=[[0.5]], drift=[-0.1])
        ests = tail_equivalence(m, ExpOUIntegrand(1.0, 0.3, 1.0), 1.0,
                                [2.0, 5.0, 10.0], 30000, seed=9, grid_size=64)
        for e in ests:
            if e.ratio is not None:
                assert e.ratio >= 1.0

    def test_undefined_is_flagged(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)])
        ests = tail_equivalence(m, ConstantIntegrand([1.0]), 1.0, [1e9], 200,
                                seed=1, grid_size=16)
        assert ests[0].ratio is None and ests[0].stderr is None
        assert ests[0].denominator_hits == 0

    def test_levels_checked_before_sampling(self, monkeypatch):
        def sampler(*args, **kwargs):
            raise AssertionError("sampled before the levels were checked")

        monkeypatch.setattr(diagnostics, "batch_integral_functionals", sampler)
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)])
        with pytest.raises(ValueError, match="levels must be positive"):
            tail_equivalence(m, ConstantIntegrand([1.0]), 1.0, [2.0, 0.0], 10**9, seed=1)


class TestOneBigJumpCurve:
    def test_undefined_levels_flagged(self):
        m = LevyModel(1, 1e-9, 1.5, [([1.0], 1.0)])
        sup_c, jump_c = one_big_jump_curve(m, None, 0.1, [0.5], 100, seed=3,
                                           grid_size=32)
        assert sup_c.estimates[0] is None and jump_c.estimates[0] is None
        assert sup_c.fitted_slope() is None

    def test_counts_and_levels(self):
        m = LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.2]])
        sup_c, jump_c = one_big_jump_curve(m, ConstantIntegrand([1.0]), 0.1,
                                           [2.0, 4.0], 400, seed=5, grid_size=32)
        for c in (sup_c, jump_c):
            for e in c.estimates:
                if e is not None:
                    assert 0 <= e.hits <= e.n <= 400
        with pytest.raises(ValueError):
            one_big_jump_curve(m, None, 0.1, [4.0, 2.0], 10, 1)

    def test_pure_single_jump_never_strays(self):
        # replicates with exactly one jump and no light part have W == W_approx
        m = LevyModel(1, 1e-9, 1.5, [([1.0], 1.0)])
        # use the integrand route with a forced jump via high conditioning level:
        # with at most one jump ever, every conditioned replicate has distance 0
        sup_c, jump_c = one_big_jump_curve(m, ConstantIntegrand([1.0]), 0.1,
                                           [0.5], 100, seed=11, grid_size=32)
        for c in (sup_c, jump_c):
            e = c.estimates[0]
            assert e is None or e.hits == 0


OU_MODEL = LevyModel(1, 1.0, 1.2, [([1.0], 1.0)], diffusion=[[0.1]])
MIXED_MODEL = LevyModel(1, 2.0, 1.5, [([1.0], 0.7), ([-1.0], 0.3)],
                        diffusion=[[0.5]], drift=[0.3])
AXES_2D = LevyModel(2, 2.0, 1.2, [([1.0, 0.0], 0.25), ([-1.0, 0.0], 0.25),
                                  ([0.0, 1.0], 0.25), ([0.0, -1.0], 0.25)],
                    diffusion=[[0.1, 0.0], [0.0, 0.1]])

SCREEN_CASES = [
    pytest.param(OU_MODEL, ExpOUIntegrand(2.0, 0.25, 1.0), 128, id="exp-ou"),
    pytest.param(MIXED_MODEL, ConstantIntegrand([2.0]), 32, id="constant"),
    pytest.param(MIXED_MODEL, DeterministicIntegrand(1.0, -1.0), 50,
                 id="deterministic"),
    pytest.param(AXES_2D, None, 64, id="raw-2d"),
]


def exact_pair(model, integrand, seed, rep, grid_size):
    """W and its one-jump approximation from the per-replicate samplers."""
    cfg = SimConfig(grid_size, seed, rep)
    x = assemble_levy_path(simulate_small_part(model, cfg), *simulate_big_jumps(model, cfg))
    if integrand is None:
        return x, one_step_approx(x)
    y = simulate_integrand(integrand, cfg, times=x.jump_times)
    return stochastic_integral(y, x), one_jump_integral(y, x)


def exact_functionals(w, wa):
    s = sup_norm(w)
    ja = float(np.linalg.norm(wa.jump_sizes[0])) if len(wa.jump_times) else 0.0
    end_gap = float(np.linalg.norm(w.values[-1] - wa.values[-1]))
    return s, ja, uniform_distance(w, wa), max(end_gap, abs(s - sup_norm(wa)))


# refinement of the reference loop's J1 dynamic program
REFINEMENT = 2


def reference_counts(model, integrand, epsilon, levels, n, seed, grid_size):
    """The estimator's counts, one replicate at a time on CadlagPath objects,
    with the J1 dynamic program deciding whatever the uniform distance (from
    above) and the endpoint and sup-norm gaps (from below) leave open."""
    counts = np.zeros((4, len(levels)), dtype=np.int64)
    for rep in range(n):
        w, wa = exact_pair(model, integrand, seed, rep, grid_size)
        s, ja, udist, lower = exact_functionals(w, wa)
        for i, u in enumerate(levels):
            if not (s > u or ja > u):
                continue
            if udist <= epsilon * u:
                exceeded = False
            elif lower > epsilon * u:
                exceeded = True
            else:
                exceeded = not j1_within(w.scaled(1 / u), wa.scaled(1 / u), epsilon,
                                         REFINEMENT)
            counts[:, i] += [s > u, s > u and exceeded, ja > u, ja > u and exceeded]
    return counts.tolist()


def curve_counts(curves):
    """Rows: sup conditioned, sup exceeding, jump conditioned, jump exceeding."""
    return [[0 if e is None else getattr(e, field) for e in c.estimates]
            for c in curves for field in ("n", "hits")]


class TestTwoPhaseScreening:
    @pytest.mark.parametrize("model, integrand, grid_size", SCREEN_CASES)
    def test_screened_functionals_match_paths(self, model, integrand, grid_size):
        reps = range(300)
        times, right, left, A, tau = diagnostics._screen(model, integrand, 21, reps,
                                                         grid_size)
        s = np.maximum(np.linalg.norm(right, axis=2).max(axis=1),
                       np.linalg.norm(left, axis=2).max(axis=1))
        for r in reps:
            w, wa = exact_pair(model, integrand, 21, r, grid_size)
            m = len(w.grid)
            # the padding repeats the value at time 1
            assert np.all(times[r, m:] == 1.0)
            np.testing.assert_array_equal(times[r, :m], w.grid)
            for got, want in ((right[r], w.values), (left[r], w._left)):
                np.testing.assert_allclose(got[:m], want, rtol=1e-12, atol=1e-12)
                assert np.all(got[m:] == got[m - 1])
            want_s, want_ja = exact_functionals(w, wa)[:2]
            assert s[r] == pytest.approx(want_s, rel=1e-12)
            assert np.linalg.norm(A[r]) == pytest.approx(want_ja, rel=1e-12)
            if len(wa.jump_times):
                assert tau[r] == wa.jump_times[0]
                np.testing.assert_allclose(A[r], wa.jump_sizes[0], rtol=1e-12)
        assert np.count_nonzero(np.any(A != 0, axis=1)) > 100  # most replicates jump

    CURVE_CASES = [
        pytest.param(OU_MODEL, ExpOUIntegrand(2.0, 0.25, 1.0), 0.1, [1.0, 2.0, 4.0, 8.0],
                     id="exp-ou"),
        pytest.param(MIXED_MODEL, ConstantIntegrand([2.0]), 0.05, [1.0, 2.0, 4.0],
                     id="constant"),
        pytest.param(MIXED_MODEL, DeterministicIntegrand(1.0, -1.0), 0.1, [1.0, 2.0, 4.0],
                     id="deterministic"),
        pytest.param(AXES_2D, None, 0.1, [1.0, 2.0, 4.0], id="raw-2d"),
    ]

    @pytest.mark.parametrize("model, integrand, epsilon, levels", CURVE_CASES)
    @pytest.mark.parametrize("mode", ["screened", "partial-block"])
    def test_curves_match_reference_loop(self, monkeypatch, model, integrand, epsilon,
                                         levels, mode):
        n, seed, grid_size = 250, 17, 32
        if mode == "partial-block":
            # blocks that do not divide n, so the last one is partial
            monkeypatch.setattr(diagnostics, "_SCREEN_BLOCK", 40)
        curves = one_big_jump_curve(model, integrand, epsilon, levels, n, seed,
                                    grid_size=grid_size)
        assert curve_counts(curves) == reference_counts(model, integrand, epsilon, levels,
                                                        n, seed, grid_size)

    @pytest.mark.parametrize("model, integrand, epsilon, levels",
                             [c for c in CURVE_CASES if c.id != "exp-ou"])
    def test_jumps_on_grid_match_reference_loop(self, monkeypatch, model, integrand,
                                                epsilon, levels):
        # snapping each replicate's last jump time up to the grid: the exact
        # path merges that grid point, while the screening gives the jump a
        # zero-length piece of its own after it.  exp-OU is left out, since
        # the screening spends a normal on that piece and the exact path not
        n, seed, grid_size = 100, 4, 32
        grid = np.linspace(0.0, 1.0, grid_size + 1)
        draw = levy_sim._draw_jumps

        def snapped(model, rng):
            times, sizes = draw(model, rng)
            if len(times):
                times[-1] = grid[math.ceil(times[-1] * grid_size)]
            return times, sizes

        monkeypatch.setattr(levy_sim, "_draw_jumps", snapped)
        monkeypatch.setattr(diagnostics, "_draw_jumps", snapped)
        times = diagnostics._screen(model, integrand, seed, range(n), grid_size)[0]
        pieces = np.any((np.diff(times, axis=1) == 0) & (times[:, 1:] < 1.0), axis=1)
        assert np.count_nonzero(pieces) > n // 2
        want = reference_counts(model, integrand, epsilon, levels, n, seed, grid_size)
        assert want[0][0] > 0
        curves = one_big_jump_curve(model, integrand, epsilon, levels, n, seed,
                                    grid_size=grid_size)
        assert curve_counts(curves) == want

    def test_equal_jump_times_count_as_one_jump_under_sup(self, monkeypatch):
        # the first two jumps of a replicate at one time are one jump of the
        # path, so both curves equal those of the draws with the pair merged.
        # Kept as two jumps, W would pass through the value after the first,
        # which with jumps of both signs, or in 2-D, can lie outside the
        # segment between the values before and after the pair
        draw = levy_sim._draw_jumps

        def paired(merge):
            def draws(model, rng):
                times, sizes = draw(model, rng)
                if len(times) < 2:
                    return times, sizes
                times[1] = times[0]
                if merge:
                    sizes[1] += sizes[0]
                    return times[1:], sizes[1:]
                return times, sizes
            return draws

        one_sided = LevyModel(1, 3.0, 1.5, [([1.0], 1.0)], diffusion=[[0.5]], drift=[-0.3])
        for model, integrand in [(one_sided, ConstantIntegrand([2.0])),
                                 (MIXED_MODEL, ConstantIntegrand([2.0])), (AXES_2D, None)]:
            curves = []
            for merge in (False, True):
                monkeypatch.setattr(levy_sim, "_draw_jumps", paired(merge))
                monkeypatch.setattr(diagnostics, "_draw_jumps", paired(merge))
                curves.append(curve_counts(one_big_jump_curve(
                    model, integrand, 0.1, [1.0, 2.0, 4.0, 8.0], 2000, 5, grid_size=32)))
            assert curves[0] == curves[1]
            assert curves[0][0][0] > 1000

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.5])
    def test_replicate_without_jumps_exceeds_by_its_sup(self, epsilon):
        # without a jump the approximation is the zero path (padded at tau =
        # 2), so W exceeds exactly when its sup norm is above epsilon * u
        model = LevyModel(1, 1e-12, 1.5, [([1.0], 1.0)], diffusion=[[1.0]])
        levels = [0.25, 0.5, 1.0, 2.0]
        times, right, left, A, tau = diagnostics._screen(model, None, 6, range(200), 32)
        assert not np.any(A) and np.all(tau == 2.0)
        s = np.linalg.norm(right, axis=2).max(axis=1)
        exceeds = diagnostics._exceeds(times, right, left, A, tau, epsilon, levels)
        assert np.array_equal(exceeds, s[:, None] > epsilon * np.array(levels))
        sup_c, jump_c = one_big_jump_curve(model, None, epsilon, levels, 200, 6,
                                           grid_size=32)
        assert all(e is None for e in jump_c.estimates)
        assert [e.n for e in sup_c.estimates] == [np.count_nonzero(s > u) for u in levels]
        assert [e.hits for e in sup_c.estimates] == \
            [np.count_nonzero(s > max(u, epsilon * u)) for u in levels]
        assert curve_counts((sup_c, jump_c)) == reference_counts(model, None, epsilon,
                                                                 levels, 200, 6, 32)


class TestAnalyticPrediction:
    def test_unit_integrand(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        v = analytic_prediction(m, ConstantIntegrand([1.0]), 1.0, 10.0, grid_size=64)
        assert v == pytest.approx(10.0 ** -1.5, rel=1e-12)

    def test_half_horizon(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        v = analytic_prediction(m, ConstantIntegrand([1.0]), 0.5, 10.0, grid_size=64)
        assert v == pytest.approx(0.5 * 10.0 ** -1.5, rel=1e-12)

    def test_exponential_integrand(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        v = analytic_prediction(m, DeterministicIntegrand(1.0, -1.0), 1.0, 10.0,
                                grid_size=4096)
        assert v == pytest.approx(0.016377854262808043, abs=1e-8)

    @pytest.mark.parametrize("n_mc", [0, 1, 257, 2048])
    @pytest.mark.parametrize("integrand", [
        pytest.param({"variant": "constant", "value": [0.7]}, id="constant"),
        pytest.param({"variant": "deterministic", "form": "exp", "scale": 1.0, "rate": -1.0},
                     id="deterministic"),
        pytest.param({"variant": "exp_ou", "rate": 2.0, "vol": 0.3, "initial": 1.0},
                     id="exp-ou"),
    ])
    def test_equals_weighted_mass_of_n_mc_draws(self, integrand, n_mc, tmp_path):
        # a tails run writes the weighted mass of {x_t > 1} of the power-mean
        # path times u**-alpha, whatever count of integrand draws n_mc_inner
        # asks for: parse range-checks the key and the prediction ignores it
        cfg = {"kind": "tails", "seed": 3, "n": 100, "t": 0.75, "levels": [4.0],
               "grid_size": 64, "n_mc_inner": n_mc, "integrand": integrand,
               "model": {"dimension": 1, "big_jump_intensity": 2.0, "radial_alpha": 1.5,
                         "spectral": [{"dir": [1.0], "w": 0.6}, {"dir": [-1.0], "w": 0.4}]},
               "format": "json"}
        if n_mc == 0:
            assert validate(cfg) == ["n_mc_inner must be an integer in [1, 2**63)"]
            return
        run(cfg, out_dir=tmp_path)
        spec = parse(cfg)
        mass = weighted_one_step_mass(spec.model.induced_measure(),
                                      lambda grid: _power_mean(spec.integrand, 1.5, grid),
                                      0.75, 64)
        [row] = json.loads((tmp_path / "tails.json").read_text())["rows"]
        assert row[1] == mass * 4.0 ** -1.5

    @pytest.mark.parametrize("rate, vol, initial, t", [
        (0.0, 0.5, 1.0, 1.0), (2.0, 0.3, 1.0, 0.75), (1.0, 1.0, 0.5, 0.5), (5.0, 0.8, 2.0, 1.0),
    ])
    def test_exp_ou_closed_form_matches_monte_carlo(self, rate, vol, initial, t):
        # the closed-form prediction against the mean weighted mass of 2e5
        # simulated integrand paths on the same grid, within 3 standard errors
        m = RegVarMeasure(1.5, 2.0, [([1.0], 0.6), ([-1.0], 0.4)])
        spec = ExpOUIntegrand(rate, vol, initial)
        grid = np.linspace(0.0, 1.0, 65)
        k = round(t * 64)
        rng = np.random.default_rng(2024)
        masses = []
        for _ in range(4):
            y = levy_sim._integrand_values(spec, grid, rng.standard_normal((50000, 64)))
            g = regvar._weighted_inner_profile(m, y[:, : k + 1, 0])
            masses.append(np.trapezoid(g, grid[: k + 1], axis=1))
        masses = np.concatenate(masses)
        stderr = masses.std(ddof=1) / math.sqrt(len(masses))
        assert abs(analytic_prediction(m, spec, t, 1.0, 64) - masses.mean()) <= 3 * stderr

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_exp_ou_without_vol_predicts_its_constant(self, rate):
        m = RegVarMeasure(1.5, 2.0, [([1.0], 0.6), ([-1.0], 0.4)])
        for t, grid_size in ((0.75, 64), (1.0, 512), (0.5, 4096)):
            assert analytic_prediction(m, ExpOUIntegrand(rate, 0.0, 1.7), t, 3.0, grid_size) \
                == analytic_prediction(m, ConstantIntegrand([1.7]), t, 3.0, grid_size)

    def test_rejects_t_off_the_grid(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        with pytest.raises(ValueError, match="grid time"):
            analytic_prediction(m, ConstantIntegrand([1.0]), 0.3, 10.0, grid_size=64)


class TestMaximalProductBound:
    def test_single_term_same_distribution(self):
        lhs, rhs = maximal_product_bound(
            lambda rng, size: np.ones(size, dtype=int),
            lambda z, mask: np.ones_like(z),
            pareto_sampler(1.5),
            100000, 10.0, seed=2)
        se = math.hypot(lhs.stderr, rhs.stderr)
        assert abs(lhs.p_hat - rhs.p_hat) < 3 * se
        assert lhs.p_hat <= 2 * rhs.p_hat + 3 * se

    def test_zero_sizes(self):
        lhs, rhs = maximal_product_bound(
            lambda rng, size: rng.poisson(2.0, size),
            lambda z, mask: np.ones_like(z),
            lambda rng, out: out.fill(0.0),
            1000, 5.0, seed=3)
        assert lhs.p_hat == 0.0 and rhs.p_hat == 0.0

    def test_poisson_bound_holds(self):
        lhs, rhs = maximal_product_bound(
            lambda rng, size: rng.poisson(2.0, size),
            lambda z, mask: np.ones_like(z),
            pareto_sampler(1.5),
            200000, 20.0, seed=4)
        margin = 3 * math.hypot(lhs.stderr, 2 * rhs.stderr)
        assert lhs.p_hat <= 2 * rhs.p_hat + margin


class TestDoubleJumpTrend:
    def test_tiny_rate_vanishes(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        pts = double_jump_trend(m, 1e-9, 0.75, [100, 1000], 1000, seed=1)
        assert all(p.closed_form < 1e-9 and p.mc_value == 0.0 for p in pts)

    def test_closed_form_quadratic_regime(self):
        # p_n = 1e-3 at n = 1e4; the quadratic term lam^2 p^2 / 2 dominates
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        pts = double_jump_trend(m, 1.0, 0.75, [10 ** 4], 1000, seed=1)
        assert pts[0].closed_form == pytest.approx(10 ** 4 * (1 - (1 + 1e-3) * math.exp(-1e-3)), rel=1e-12)
        assert pts[0].closed_form == pytest.approx(0.005, abs=2e-5)

    def test_strictly_decreasing_and_mc_agrees(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        pts = double_jump_trend(m, 1.0, 0.75, [10 ** 2, 10 ** 3, 10 ** 4], 400000,
                                seed=7)
        closed = [p.closed_form for p in pts]
        assert all(b < a for a, b in zip(closed, closed[1:]))
        for p in pts:
            assert abs(p.mc_value - p.closed_form) < 3 * p.stderr

    def test_beta_domain(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        with pytest.raises(ValueError, match="beta must lie"):
            double_jump_trend(m, 1.0, 0.5, [100], 10, 1)

    def test_memory_bounded_in_lam(self):
        # a chunk's radii are drawn one block of rows at a time, so 50 times
        # the jumps per replicate do not take 50 times the memory
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        peaks = []
        for lam in (1.0, 50.0):
            tracemalloc.start()
            try:
                double_jump_trend(m, lam, 0.75, [100], 1 << 16, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_threads_return_the_same_points(self, monkeypatch):
        # three chunks per entry, and more entries than threads, each long
        # enough that the two threads overlap
        monkeypatch.setattr(diagnostics, "_CHUNK", 40000)
        m = RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
        args = (m, 1.0, 0.75, [10, 100, 1000, 10 ** 4, 10 ** 5], 100000)
        one = double_jump_trend(*args, seed=5, threads=1)
        assert double_jump_trend(*args, seed=5, threads=2) == one
        assert [p.n for p in one] == [10, 100, 1000, 10 ** 4, 10 ** 5]
        assert len({p.mc_value / p.n for p in one}) > 1


# ---------------------------------------------------------------------------
# Scratch-buffer reductions against per-chunk allocating references
# ---------------------------------------------------------------------------

# The chunk size for these tests: 10500 replicates make ten full chunks and a
# partial last one, and the most Poisson(2) jumps of a chunk both grows and
# shrinks from chunk to chunk, so the scratch buffers are grown and sliced.
_SMALL_CHUNK = 1000
_N = 10500


def _spans(n):
    return [(i, lo, min(lo + _SMALL_CHUNK, n)) for i, lo in enumerate(range(0, n, _SMALL_CHUNK))]


def _grows_and_shrinks(kmax):
    return (any(b > a for a, b in zip(kmax, kmax[1:]))
            and any(b < a for a, b in zip(kmax, kmax[1:])))


def breiman_reference(alpha, sigma, levels, n, seed):
    """``breiman_ratio`` with fresh arrays per chunk, Pareto X and lognormal Y."""
    total = 0
    for i, lo, hi in _spans(n):
        x = (1.0 - substream(seed, i, AUX_STREAM).random(hi - lo)) ** (-1.0 / alpha)
        yx = np.exp(sigma * substream(seed, i, AUX_STREAM + 1).standard_normal(hi - lo)) * x
        total = total + np.array([diagnostics._joint_counts(yx, x, u) for u in levels])
    return [diagnostics._delta_ratio(u, *total[k], n) for k, u in enumerate(levels)]


def max_product_reference(lam, alpha, y_builder, n, x_level, seed):
    """``maximal_product_bound`` with fresh arrays per chunk; also returns
    each chunk's most jumps."""
    lhs = rhs = 0
    kmaxes = []
    for i, lo, hi in _spans(n):
        rng = substream(seed, i, AUX_STREAM)
        counts = rng.poisson(lam, hi - lo)
        kmax = max(int(counts.max()), 1)
        kmaxes.append(kmax)
        mask = np.arange(kmax)[None, :] < counts[:, None]
        z = np.where(mask, (1.0 - rng.random((hi - lo, kmax))) ** (-1.0 / alpha), 0.0)
        zt = np.where(mask, (1.0 - rng.random((hi - lo, kmax))) ** (-1.0 / alpha), 0.0)
        yk = np.where(mask, y_builder(z, mask), 0.0)
        lhs += int(np.count_nonzero((yk * z).sum(axis=1) > x_level))
        rhs += int(np.count_nonzero(counts * (yk * zt).max(axis=1) > x_level))
    return (TailEstimate(x_level, n, lhs), TailEstimate(x_level, n, rhs)), kmaxes


def double_jump_reference(measure, lam, beta, n_values, reps, seed):
    """``double_jump_trend`` with fresh arrays per chunk; also returns each
    entry's chunks' most jumps."""
    seq = regvar.ScalingSequence(measure.alpha, measure.intensity_c)
    points, kmaxes = [], []
    for idx, n in enumerate(n_values):
        thr = seq.value(n) ** beta
        p_n = min(1.0, thr ** (-measure.alpha))
        closed = n * (1.0 - (1.0 + lam * p_n) * math.exp(-lam * p_n))
        rng = substream(seed, idx, AUX_STREAM)
        hits = 0
        for _, lo, hi in _spans(reps):
            counts = rng.poisson(lam, hi - lo)
            kmax = max(int(counts.max()), 1)
            kmaxes.append(kmax)
            mask = np.arange(kmax)[None, :] < counts[:, None]
            radii = (1.0 - rng.random((hi - lo, kmax))) ** (-1.0 / measure.alpha)
            hits += int(np.count_nonzero(np.count_nonzero(mask & (radii > thr), axis=1) >= 2))
        p_true = closed / n
        points.append(diagnostics.TrendPoint(int(n), closed, n * hits / reps,
                                             n * math.sqrt(p_true * (1.0 - p_true) / reps)))
    return points, kmaxes


def _prefix_reference(z, mask):
    prev = np.hstack([np.zeros((z.shape[0], 1)), np.cumsum(z, axis=1)[:, :-1]])
    return 1.0 + np.minimum(1.0, prev / 10.0)


# Row budgets of the lemma checks' blocks: the default, blocks with a partial
# last one, one row per block at a chunk's most jumps of 9 (10 // (9 + 1)), and
# a budget below any chunk's most jumps plus one, which also gives one row.
_BUDGETS = (levy_sim._BLOCK_ELEMENTS, 997, 10, 1)


@pytest.mark.parametrize("threads", [1, 2])
class TestScratchReductions:
    """The estimators draw into per-thread scratch buffers, one block of rows
    at a time; every count must equal a per-chunk allocating reference's, at
    any thread count and row budget."""

    def test_breiman_ratio(self, monkeypatch, threads):
        monkeypatch.setattr(diagnostics, "_CHUNK", _SMALL_CHUNK)
        levels = [1.5, 3.0, 6.0]
        x_sampler = lambda rng, out: levy_sim._pareto_radii(rng, 1.5, out=out)
        got = breiman_ratio(x_sampler, experiments._lognormal_y(0.7), levels, _N, 21,
                            threads)
        assert got == breiman_reference(1.5, 0.7, levels, _N, 21)

    @pytest.mark.parametrize("builders", [
        pytest.param((lambda z, mask: 1.0, lambda z, mask: np.ones_like(z)), id="unit"),
        pytest.param((experiments._prefix_factors, _prefix_reference), id="prefix"),
        # a factor matrix that is its argument itself
        pytest.param((lambda z, mask: z, lambda z, mask: z), id="identity"),
    ])
    def test_maximal_product_bound(self, monkeypatch, threads, builders):
        monkeypatch.setattr(diagnostics, "_CHUNK", _SMALL_CHUNK)
        builder, reference_builder = builders
        want, kmax = max_product_reference(2.0, 1.2, reference_builder, _N, 6.0, 31)
        assert _grows_and_shrinks(kmax)
        for budget in _BUDGETS:
            monkeypatch.setattr(levy_sim, "_BLOCK_ELEMENTS", budget)
            got = maximal_product_bound(
                lambda rng, size: rng.poisson(2.0, size), builder,
                lambda rng, out: levy_sim._pareto_radii(rng, 1.2, out=out), _N, 6.0, 31,
                threads)
            assert got == want
        assert 0 < want[0].hits < want[1].hits < _N

    def test_double_jump_trend(self, monkeypatch, threads):
        monkeypatch.setattr(diagnostics, "_CHUNK", _SMALL_CHUNK)
        m = RegVarMeasure(1.5, 2.0, [([1.0], 1.0)])
        want, kmax = double_jump_reference(m, 2.0, 0.75, [10, 100], _N, 41)
        assert _grows_and_shrinks(kmax)
        for budget in _BUDGETS:
            monkeypatch.setattr(levy_sim, "_BLOCK_ELEMENTS", budget)
            assert double_jump_trend(m, 2.0, 0.75, [10, 100], _N, 41, threads) == want
        assert all(p.mc_value > 0 for p in want)


@pytest.mark.parametrize("estimate", [
    pytest.param(lambda: breiman_ratio(pareto_sampler(2.0), pareto_sampler(2.0), [2.0], 0, 1),
                 id="breiman_ratio"),
    pytest.param(lambda: maximal_product_bound(
        lambda rng, size: rng.poisson(1.0, size), lambda z, mask: np.ones_like(z),
        lambda rng, out: rng.random(out=out), 0, 5.0, 1), id="maximal_product_bound"),
    pytest.param(lambda: double_jump_trend(RegVarMeasure(1.5, 1.0, [([1.0], 1.0)]), 1.0,
                                           0.75, [100, 1000], 0, 1), id="double_jump_trend"),
])
def test_no_replicates_rejected(estimate):
    with pytest.raises(ValueError, match="n must be >= 1"):
        estimate()
