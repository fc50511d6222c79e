import math

import numpy as np
import pytest

from bigjump.levy_sim import ConstantIntegrand, DeterministicIntegrand, _power_mean
from bigjump.regvar import RegVarMeasure, ScalingSequence, mu_tail, weighted_one_step_mass

POS = lambda s: s[0] > 0


def two_sided(alpha=1.5, c=1.0, w_pos=0.5):
    return RegVarMeasure(alpha, c, [([1.0], w_pos), ([-1.0], 1.0 - w_pos)])


def one_sided(alpha=1.5, c=1.0):
    return RegVarMeasure(alpha, c, [([1.0], 1.0)])


class TestMeasure:
    def test_tail_power_law(self):
        assert mu_tail(two_sided(alpha=2.0), 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_tail_at_one(self):
        assert mu_tail(one_sided(), 1.0) == 1.0

    def test_tail_spectral_split(self):
        m = two_sided(alpha=2.0, c=3.0)
        assert mu_tail(m, 10.0, POS) == pytest.approx(0.015, abs=1e-15)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            alpha = rng.uniform(0.5, 3.5)
            c = rng.uniform(0.2, 4.0)
            m = two_sided(alpha, c, w_pos=rng.uniform(0.1, 0.9))
            r = rng.uniform(0.2, 8.0)
            base = mu_tail(m, r, POS)
            for u in (0.5, 2.0, 10.0):
                assert abs(mu_tail(m, u * r, POS) - u ** (-alpha) * base) <= 1e-12 * base

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mu_tail(one_sided(), 0.0)
        with pytest.raises(ValueError):
            RegVarMeasure(0.0, 1.0, [([1.0], 1.0)])
        with pytest.raises(ValueError):
            RegVarMeasure(1.0, 1.0, [([1.0], 0.4), ([-1.0], 0.4)])
        with pytest.raises(ValueError):
            RegVarMeasure(1.0, 1.0, [([2.0], 1.0)])
        with pytest.raises(ValueError, match="differ in dimension"):
            RegVarMeasure(1.0, 1.0, [([1.0], 0.5), ([0.0, 1.0], 0.5)])

    @pytest.mark.parametrize("make", [
        lambda: RegVarMeasure(math.nan, 1.0, [([1.0], 1.0)]),
        lambda: RegVarMeasure(1.0, math.nan, [([1.0], 1.0)]),
        lambda: RegVarMeasure(1.0, 1.0, [([1.0], math.nan), ([-1.0], 1.0)]),
        lambda: RegVarMeasure(1.0, 1.0, [([math.nan], 1.0)]),
        lambda: ScalingSequence(math.nan, 1.0),
        lambda: ScalingSequence(1.0, math.nan),
    ], ids=["alpha", "intensity", "weight", "direction", "scaling-alpha",
            "scaling-intensity"])
    def test_nan_rejected(self, make):
        # every guard is written so that a NaN fails it
        with pytest.raises(ValueError):
            make()


class TestScaling:
    def test_values(self):
        assert ScalingSequence(1.0, 1.0).value(100) == 100.0
        assert ScalingSequence(2.0, 1.0).value(100) == 10.0
        assert ScalingSequence(1.5, 2.0).value(1000) == pytest.approx(158.74010519681994, rel=1e-14)

    def test_normalization_exact(self):
        for alpha, c in ((1.5, 1.0), (0.8, 2.5), (3.0, 0.3)):
            m = RegVarMeasure(alpha, c, [([1.0], 1.0)])
            seq = ScalingSequence(alpha, c)
            for n in (1, 10, 10 ** 6):
                assert abs(n * mu_tail(m, seq.value(n)) - 1.0) <= 1e-12

    def test_increasing(self):
        seq = ScalingSequence(1.5, 1.0)
        vals = [seq.value(n) for n in (1, 5, 100, 10 ** 4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def _profile(spec, alpha=1.5):
    return lambda grid: _power_mean(spec, alpha, grid)


class TestWeightedOneStepMass:
    def test_unit_integrand_reproduces_unweighted(self):
        # Y == 1 gives t times the mass of {x > 1}
        m = two_sided(w_pos=0.3)
        for t in (1.0, 0.75, 0.5, 1 / 64):
            mass = weighted_one_step_mass(m, _profile(ConstantIntegrand([1.0])), t, 64)
            assert mass == pytest.approx(t * mu_tail(m, 1.0, POS), rel=1e-13)

    def test_constant_scales_power_law(self):
        # a negative constant moves all mass to the negative atoms
        for y0, m, want in ((3.0, one_sided(), 3.0 ** 1.5),
                            (-3.0, one_sided(), 0.0),
                            (-3.0, two_sided(w_pos=0.3), 0.7 * 3.0 ** 1.5)):
            mass = weighted_one_step_mass(m, _profile(ConstantIntegrand([y0])), 1.0, 64)
            assert mass == pytest.approx(want, rel=1e-13)

    def test_sign_changing_integrand(self):
        # y_v = 1 - 2v: the positive atom counts on [0, 1/2), the negative one
        # on (1/2, 1], each with integral 1/4 of |1 - 2v| at alpha = 1
        m = RegVarMeasure(1.0, 2.0, [([1.0], 0.6), ([-1.0], 0.4)])
        profile = lambda grid: 1.0 - 2.0 * grid
        mass = weighted_one_step_mass(m, profile, 1.0, 64)
        assert mass == pytest.approx(2.0 * (0.6 + 0.4) / 4, rel=1e-14)
        assert weighted_one_step_mass(m, profile, 0.5, 64) == \
            pytest.approx(2.0 * 0.6 / 4, rel=1e-14)

    def test_exponential_integrand_endpoint(self):
        # frozen from the analytic integral of exp(-alpha s) over [0, 1], at
        # level 10 (homogeneity: the mass at u is u**-alpha times that at 1)
        mass = weighted_one_step_mass(one_sided(), _profile(DeterministicIntegrand(1.0, -1.0)),
                                      1.0, 4096)
        assert mass * 10.0 ** -1.5 == pytest.approx(0.016377854262808043, abs=1e-8)

    def test_profile_is_called_once_on_the_grid(self):
        seen = []

        def profile(grid):
            seen.append(grid)
            return np.ones_like(grid)
        weighted_one_step_mass(one_sided(), profile, 0.5, 8)
        assert len(seen) == 1 and np.array_equal(seen[0], np.linspace(0.0, 1.0, 9))

    @pytest.mark.parametrize("t", [0.7, 0.3, 0.0, -0.5, 1.5])
    def test_rejects_t_off_the_grid(self, t):
        with pytest.raises(ValueError, match="grid time"):
            weighted_one_step_mass(two_sided(), _profile(ConstantIntegrand([1.0])), t, 64)

    def test_rejects_multidimensional_measure(self):
        m = RegVarMeasure(1.5, 1.0, [([1.0, 0.0], 1.0)])
        with pytest.raises(ValueError, match="one-dimensional"):
            weighted_one_step_mass(m, _profile(ConstantIntegrand([1.0, 1.0])), 1.0, 64)
