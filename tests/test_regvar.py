import math

import numpy as np
import pytest

from bigjump.levy_sim import (ConstantIntegrand, DeterministicIntegrand,
                              ExpOUIntegrand, SimConfig, simulate_integrand)
from bigjump.regvar import (EndpointExceedance, RadialCone, RegVarMeasure,
                            RunningSupExceedance, ScalingSequence, SupExceedance,
                            mu_tail, one_step_mass, weighted_one_step_mass)

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

    def test_json_round_trip_bit_stable(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        m = RegVarMeasure(rng.uniform(0.5, 3), rng.uniform(0.1, 5),
                          [(v, 0.25), ((-v).tolist(), 0.75)])
        m2 = RegVarMeasure.from_json(m.to_json())
        assert m2.alpha == m.alpha and m2.intensity_c == m.intensity_c
        for (s1, w1), (s2, w2) in zip(m.spectral, m2.spectral):
            assert w1 == w2 and np.array_equal(s1, s2)
        assert m.to_json() == m2.to_json()


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


class TestOneStepMass:
    def test_sup_exceedance(self):
        # a one-step path has sup norm |y| whatever the step time
        assert one_step_mass(one_sided(), SupExceedance(2.0)) == pytest.approx(
            2.0 ** -1.5, abs=1e-15)

    def test_endpoint_matches_cone_at_t1(self):
        m = one_sided()
        assert one_step_mass(m, EndpointExceedance(1.0, 2.0, POS)) == pytest.approx(
            mu_tail(m, 2.0, POS), abs=1e-15)

    def test_endpoint_linear_in_t(self):
        m = one_sided()
        full = one_step_mass(m, EndpointExceedance(1.0, 2.0, POS))
        assert one_step_mass(m, EndpointExceedance(0.5, 2.0, POS)) == pytest.approx(
            0.5 * full, abs=1e-15)
        ts = [0.1, 0.3, 0.6, 0.9, 1.0]
        vals = [one_step_mass(m, EndpointExceedance(t, 2.0, POS)) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v == pytest.approx(t * full, abs=1e-15) for t, v in zip(ts, vals))

    def test_running_sup_positive_directions_only(self):
        m = two_sided()
        up = one_step_mass(m, RunningSupExceedance(1.0, 2.0))
        assert up == pytest.approx(0.5 * 2.0 ** -1.5, abs=1e-15)

    def test_radial_cone(self):
        m = two_sided(alpha=2.0, c=3.0)
        assert one_step_mass(m, RadialCone(10.0, POS)) == pytest.approx(0.015, abs=1e-15)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="descriptor"):
            one_step_mass(one_sided(), "not a set")


def _const_sampler(value, grid_size=64):
    cfg = SimConfig(grid_size=grid_size, seed=1)
    return lambda rng: simulate_integrand(ConstantIntegrand(value), cfg)


class TestWeightedOneStepMass:
    def test_unit_integrand_reproduces_unweighted(self):
        # zero-variance case: Y == 1 must match the closed form on every kind
        m = two_sided()
        regions = [SupExceedance(2.0), EndpointExceedance(0.5, 2.0, POS),
                   RunningSupExceedance(0.7, 3.0), RadialCone(1.5, POS)]
        for region in regions:
            est = weighted_one_step_mass(m, _const_sampler([1.0]), region, 40, seed=3)
            assert est.value == pytest.approx(one_step_mass(m, region), abs=1e-12)
            assert est.stderr == 0.0

    def test_constant_scales_power_law(self):
        m = one_sided()
        y0 = 3.0
        est = weighted_one_step_mass(m, _const_sampler([y0]),
                                     EndpointExceedance(1.0, 2.0, POS), 20, seed=3)
        assert est.value == pytest.approx(y0 ** 1.5 * 2.0 ** -1.5, rel=1e-12)

    def test_exponential_integrand_running_sup(self):
        # frozen from the analytic integral of exp(-alpha s) over [0, 1]
        m = one_sided()
        cfg = SimConfig(grid_size=4096, seed=1)
        sampler = lambda rng: simulate_integrand(
            DeterministicIntegrand.exponential(1.0, -1.0), cfg)
        est = weighted_one_step_mass(m, sampler, RunningSupExceedance(1.0, 10.0, POS),
                                     4, seed=5)
        assert est.value == pytest.approx(0.016377854262808043, abs=1e-8)
        assert est.stderr == 0.0

    def test_seed_determinism_and_error_decay(self):
        m = one_sided()
        spec = ExpOUIntegrand(rate=1.0, vol=0.6, initial=1.0)

        def sampler(rng):
            return simulate_integrand(spec, SimConfig(64, 9, int(rng.integers(2 ** 62))))

        region = SupExceedance(2.0)
        a = weighted_one_step_mass(m, sampler, region, 300, seed=17)
        b = weighted_one_step_mass(m, sampler, region, 300, seed=17)
        assert a == b
        c = weighted_one_step_mass(m, sampler, region, 3000, seed=17)
        shrink = a.stderr / c.stderr
        assert math.sqrt(10) / 2 < shrink < math.sqrt(10) * 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_one_step_mass(two_sided(), _const_sampler([1.0]),
                                   SupExceedance(1.0), 0, seed=1)
