import math

import numpy as np
import pytest

from bigjump.levy_sim import (ConstantIntegrand, DeterministicIntegrand,
                              ExpOUIntegrand, SimConfig, simulate_integrand)
from bigjump.regvar import (EndpointExceedance, RegVarMeasure, ScalingSequence,
                            mu_tail, weighted_one_step_mass)

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


def _const_sampler(value, grid_size=64):
    cfg = SimConfig(grid_size=grid_size, seed=1)
    return lambda rng: simulate_integrand(ConstantIntegrand(value), cfg)


class TestWeightedOneStepMass:
    def test_unit_integrand_reproduces_unweighted(self):
        # zero-variance case: Y == 1 must match t times the cone mass, on and
        # off the grid, with and without a direction predicate
        m = two_sided()
        regions = [EndpointExceedance(1.0, 2.0), EndpointExceedance(0.5, 2.0, POS),
                   EndpointExceedance(0.7, 3.0), EndpointExceedance(0.3, 1.5, POS)]
        for region in regions:
            est = weighted_one_step_mass(m, _const_sampler([1.0]), region, 40, seed=3)
            assert est.value == pytest.approx(region.t * mu_tail(m, region.u, region.predicate),
                                              abs=1e-12)
            assert est.stderr == 0.0

    def test_constant_scales_power_law(self):
        m = one_sided()
        y0 = 3.0
        est = weighted_one_step_mass(m, _const_sampler([y0]),
                                     EndpointExceedance(1.0, 2.0, POS), 20, seed=3)
        assert est.value == pytest.approx(y0 ** 1.5 * 2.0 ** -1.5, rel=1e-12)

    def test_exponential_integrand_endpoint(self):
        # frozen from the analytic integral of exp(-alpha s) over [0, 1]
        m = one_sided()
        cfg = SimConfig(grid_size=4096, seed=1)
        sampler = lambda rng: simulate_integrand(
            DeterministicIntegrand.exponential(1.0, -1.0), cfg)
        est = weighted_one_step_mass(m, sampler, EndpointExceedance(1.0, 10.0, POS),
                                     4, seed=5)
        assert est.value == pytest.approx(0.016377854262808043, abs=1e-8)
        assert est.stderr == 0.0

    def test_seed_determinism_and_error_decay(self):
        m = one_sided()
        spec = ExpOUIntegrand(rate=1.0, vol=0.6, initial=1.0)

        def sampler(rng):
            return simulate_integrand(spec, SimConfig(64, 9, int(rng.integers(2 ** 62)) % 2 ** 61))

        region = EndpointExceedance(1.0, 2.0)
        a = weighted_one_step_mass(m, sampler, region, 300, seed=17)
        b = weighted_one_step_mass(m, sampler, region, 300, seed=17)
        assert a == b
        c = weighted_one_step_mass(m, sampler, region, 3000, seed=17)
        shrink = a.stderr / c.stderr
        assert math.sqrt(10) / 2 < shrink < math.sqrt(10) * 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_one_step_mass(two_sided(), _const_sampler([1.0]),
                                   EndpointExceedance(1.0, 1.0), 0, seed=1)
