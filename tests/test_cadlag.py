import numpy as np
import pytest

from bigjump import cadlag
from bigjump.cadlag import (CadlagPath, j1_distance, j1_within, one_step_approx,
                            sup_norm, uniform_distance)
from bigjump.levy_sim import (LevyModel, SimConfig, assemble_levy_path, simulate_big_jumps,
                              simulate_small_part)


def random_step_path(rng, max_jumps=3, d=1, lattice=None):
    k = int(rng.integers(1, max_jumps + 1))
    if lattice:
        times = np.sort(rng.choice(np.arange(1, lattice), size=k, replace=False)) / lattice
    else:
        times = np.sort(rng.uniform(0.05, 0.95, size=k))
    sizes = rng.uniform(-2.0, 2.0, size=(k, d))
    sizes[np.abs(sizes) < 0.3] = 0.5
    grid = np.unique(np.concatenate([[0.0, 1.0], times]))
    vals = np.zeros((len(grid), d))
    for t, s in zip(times, sizes):
        vals[grid >= t] += s
    return CadlagPath.from_samples(grid, vals, list(zip(times, sizes)))


class TestConstruction:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.0, 0.5]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 1)))

    def test_jump_must_be_on_grid(self):
        with pytest.raises(ValueError, match="grid"):
            CadlagPath(np.array([0.0, 1.0]), np.zeros((2, 1)),
                       np.array([0.5]), np.array([[1.0]]))

    def test_jump_is_exact_discontinuity(self):
        p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [3.0], [3.0]]),
                       np.array([0.5]), np.array([[2.0]]))
        assert p.left_limit_at(0.5) == pytest.approx(1.0)
        assert p.value_at(0.5) == 3.0
        # drift on [0, 0.5) interpolates linearly toward the left limit
        assert p.value_at(0.25) == pytest.approx(0.5)


class TestFunctionals:
    def test_sup_norm_zero(self):
        assert sup_norm(CadlagPath.zero(2)) == 0.0

    def test_sup_norm_unit_step(self):
        assert sup_norm(CadlagPath.step(0.5, [1.0])) == 1.0

    def test_sup_norm_sign_insensitive(self):
        p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[-3.0], [2.0], [2.0]]),
                       np.array([0.5]), np.array([[5.0]]))
        assert sup_norm(p) == 3.0

    def test_sup_norm_sees_left_limits(self):
        # drifts from 0 down to -4, then jumps up to 1: the sup is the left limit
        p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [1.0]]),
                       np.array([0.5]), np.array([[5.0]]))
        assert sup_norm(p) == 4.0

    def test_largest_jump_time(self):
        p = CadlagPath.from_samples([0, 0.2, 0.7, 1.0], [[0], [3], [8], [8]],
                                    [(0.2, [3.0]), (0.7, [5.0])])
        assert one_step_approx(p).jump_times.tolist() == [0.7]

    def test_largest_jump_tie_takes_first(self):
        p = CadlagPath.from_samples([0, 0.2, 0.7, 1.0], [[0], [5], [10], [10]],
                                    [(0.2, [5.0]), (0.7, [5.0])])
        assert one_step_approx(p).jump_times.tolist() == [0.2]

    def test_largest_jump_no_jumps(self):
        grid = np.linspace(0, 1, 9)
        assert len(one_step_approx(CadlagPath(grid, grid[:, None])).jump_times) == 0

    def test_one_step_approx_idempotent_on_steps(self):
        x = CadlagPath.step(0.37, [2.0, -1.0])
        a = one_step_approx(x)
        assert np.array_equal(a.grid, x.grid)
        assert np.array_equal(a.values, x.values)

    def test_one_step_approx_continuous_to_zero(self):
        grid = np.linspace(0, 1, 33)
        x = CadlagPath(grid, np.cos(grid)[:, None])
        assert sup_norm(one_step_approx(x)) == 0.0

    def test_one_step_approx_extracts_largest_and_drops_drift(self):
        grid = np.array([0.0, 0.2, 0.7, 1.0])
        vals = np.array([[0.1], [3.3], [8.6], [8.9]])
        x = CadlagPath(grid, vals, np.array([0.2, 0.7]), np.array([[3.0], [5.0]]))
        a = one_step_approx(x)
        assert a.jump_times.tolist() == [0.7]
        assert a.value_at(0.9) == pytest.approx(5.0)
        assert a.value_at(0.5) == 0.0
        # repeated application changes nothing, and the jump time survives
        b = one_step_approx(a)
        assert np.array_equal(b.values, a.values)
        assert np.array_equal(b.jump_times, a.jump_times)


class TestJ1:
    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = random_step_path(rng)
            assert j1_distance(x, x) == 0.0

    def test_time_shift(self):
        a = CadlagPath.step(0.3, [1.0])
        b = CadlagPath.step(0.4, [1.0])
        assert j1_distance(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_height_mismatch(self):
        a = CadlagPath.step(0.5, [1.0])
        b = CadlagPath.step(0.5, [2.0])
        assert j1_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            x = random_step_path(rng, max_jumps=2)
            y = random_step_path(rng, max_jumps=2)
            assert j1_distance(x, y, refinement=1) <= uniform_distance(x, y) + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = random_step_path(rng)
            y = random_step_path(rng)
            assert abs(j1_distance(x, y, 2) - j1_distance(y, x, 2)) <= 1e-9

    def test_triangle_inequality_on_steps(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y, z = (random_step_path(rng, max_jumps=2) for _ in range(3))
            dxz = j1_distance(x, z, 2)
            assert dxz <= j1_distance(x, y, 2) + j1_distance(y, z, 2) + 1e-6

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = random_step_path(rng, max_jumps=2)
            y = random_step_path(rng, max_jumps=2)
            d = j1_distance(x, y, 2)
            for u in (0.1, 10.0):
                du = j1_distance(x.scaled(u), y.scaled(u), 2)
                assert du <= max(u * d, d) + 1e-12

    def test_within_matches_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = random_step_path(rng)
            y = random_step_path(rng)
            d = j1_distance(x, y, 2)
            for eps in (0.8 * d + 1e-12, 1.2 * d + 1e-12):
                assert j1_within(x, y, eps, 2) == (d <= eps)

    def test_gaussian_like_paths_upper_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            x, y = _gaussian_like_pair(rng)
            d = j1_distance(x, y, refinement=4)
            assert 0.0 <= d <= uniform_distance(x, y) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            j1_distance(CadlagPath.zero(1), CadlagPath.zero(2))


# ---------------------------------------------------------------------------
# Differential test: the batched dynamic program against the scalar one
# ---------------------------------------------------------------------------

def _reference_sides_at(path, times):
    """The scalar program's ``CadlagPath._sides_at``."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    g, V, L = path.grid, path.values, path._left
    m = len(g)
    idx = np.searchsorted(g, t, side="right")
    idx = np.minimum(np.maximum(idx - 1, 0), m - 1)
    exact = g[idx] == t
    nxt = np.minimum(idx + 1, m - 1)
    span = g[nxt] - g[idx]
    frac = np.where(span > 0, (t - g[idx]) / np.where(span > 0, span, 1.0), 0.0)
    interior = V[idx] + frac[:, None] * (L[nxt] - V[idx])
    right = np.where(exact[:, None], V[idx], interior)
    left = np.where(exact[:, None], L[idx], interior)
    return left, right


def _reference_anchors(x, y, refinement):
    pts = []
    level = 2
    while len(pts) < refinement:
        pts.extend(k / level for k in range(1, level, 2))
        level *= 2
    return np.unique(np.concatenate([
        np.array([0.0, 1.0]), x.jump_times, y.jump_times, np.array(pts[:refinement])]))


def _reference_interior(grid, a, b):
    return slice(int(np.searchsorted(grid, a, side="right")),
                 int(np.searchsorted(grid, b, side="left")))


def _reference_seg_cost(x, y, anchors, i, j, k, l):
    """Affine stretch (p_i, q_j) -> (p_k, q_l); interior events only."""
    gx, gy = x.grid, y.grid
    p0, q0, p1, q1 = anchors[i], anchors[j], anchors[k], anchors[l]
    slope = (q1 - q0) / (p1 - p0)
    cost = 0.0
    sl = _reference_interior(gx, p0, p1)
    if sl.stop > sl.start:
        yl, yr = _reference_sides_at(y, q0 + (gx[sl] - p0) * slope)
        c = np.maximum(np.linalg.norm(x._left[sl] - yl, axis=1),
                       np.linalg.norm(x.values[sl] - yr, axis=1))
        cost = float(c.max())
    sl = _reference_interior(gy, q0, q1)
    if sl.stop > sl.start:
        xl, xr = _reference_sides_at(x, p0 + (gy[sl] - q0) / slope)
        c = np.maximum(np.linalg.norm(xl - y._left[sl], axis=1),
                       np.linalg.norm(xr - y.values[sl], axis=1))
        cost = max(cost, float(c.max()))
    return cost


def _reference_sweep_cost(fixed_value, path, a, b):
    """sup |fixed - path(v)| over v in [a, b], right value at a, left at b."""
    sl = _reference_interior(path.grid, a, b)
    ra = _reference_sides_at(path, np.array([a]))[1]
    lb = _reference_sides_at(path, np.array([b]))[0]
    cost = max(float(np.linalg.norm(fixed_value - ra[0])),
               float(np.linalg.norm(fixed_value - lb[0])))
    if sl.stop > sl.start:
        cost = max(cost, float(np.linalg.norm(path._left[sl] - fixed_value, axis=1).max()),
                   float(np.linalg.norm(path.values[sl] - fixed_value, axis=1).max()))
    return cost


def _reference_j1_dp(x, y, refinement):
    """The scalar dynamic program: one ``seg_cost`` call per affine-stretch
    source and two ``sweep_cost`` calls per anchor pair and side."""
    anchors = _reference_anchors(x, y, refinement)
    K = len(anchors)
    XL, XR = _reference_sides_at(x, anchors)
    YL, YR = _reference_sides_at(y, anchors)
    tdist = np.abs(anchors[None, :] - anchors[:, None])
    nodeL = np.maximum(tdist, np.linalg.norm(XL[:, None, :] - YL[None, :, :], axis=2))
    nodeR = np.maximum(tdist, np.linalg.norm(XR[:, None, :] - YR[None, :, :], axis=2))
    fL = np.full((K, K), np.inf)
    fR = np.full((K, K), np.inf)
    fR[0, 0] = nodeR[0, 0]
    for i in range(K):
        for j in range(K):
            if i > 0 and j > 0:
                best = fL[i, j]
                for i0 in range(i):
                    for j0 in range(j):
                        prev = fR[i0, j0]
                        if prev >= best:
                            continue
                        c = max(prev, _reference_seg_cost(x, y, anchors, i0, j0, i, j),
                                nodeL[i, j])
                        if c < best:
                            best = c
                fL[i, j] = best
            fR[i, j] = min(fR[i, j], max(fL[i, j], nodeR[i, j]))
            for f, xv, yv, node in ((fL, XL, YL, nodeL), (fR, XR, YR, nodeR)):
                cur = f[i, j]
                if cur == np.inf:
                    continue
                if j + 1 < K:
                    c = max(cur, _reference_sweep_cost(xv[i], y, anchors[j], anchors[j + 1]),
                            node[i, j + 1])
                    if c < f[i, j + 1]:
                        f[i, j + 1] = c
                if i + 1 < K:
                    c = max(cur, _reference_sweep_cost(yv[j], x, anchors[i], anchors[i + 1]),
                            node[i + 1, j])
                    if c < f[i + 1, j]:
                        f[i + 1, j] = c
    return float(fR[K - 1, K - 1])


def _noisy_jump_pair(rng, d=1, points=33):
    """Random-walk noise on a uniform grid plus one or two jumps; y's jumps sit
    up to 0.05 away from x's, with slightly different sizes and fresh noise."""
    k = int(rng.integers(1, 3))
    tx = np.sort(rng.uniform(0.05, 0.95, k))
    ty = np.sort(np.clip(tx + rng.uniform(-0.05, 0.05, k), 0.01, 0.99))
    sizes = rng.uniform(0.5, 2.0, (k, d)) * rng.choice([-1.0, 1.0], (k, d))
    paths = []
    for times, sz in ((tx, sizes), (ty, sizes + rng.normal(0.0, 0.1, (k, d)))):
        grid = np.union1d(np.linspace(0, 1, points), times)
        vals = np.cumsum(rng.normal(0.0, 0.05, (len(grid), d)), axis=0)
        vals[0] = 0.0
        for t, s in zip(times, sz):
            vals[grid >= t] += s
        paths.append(CadlagPath.from_samples(grid, vals, list(zip(times, sz))))
    return paths


def _gaussian_like_pair(rng, points=65):
    grid = np.linspace(0, 1, points)
    vx = np.cumsum(rng.standard_normal(points))[:, None] / 8.0
    vy = vx + rng.standard_normal((points, 1)) * 0.05
    vx[0] = vy[0] = 0.0
    return CadlagPath(grid, vx), CadlagPath(grid, vy)


def _levy_path_pairs(count):
    """(W / u, WA / u) for the first ``count`` replicates with a big jump of
    the 2-D four-direction raw Levy process at seed 808, at levels 2, 4, ..., 32."""
    model = LevyModel(2, 2.0, 1.2, [([1.0, 0.0], 0.25), ([-1.0, 0.0], 0.25),
                                    ([0.0, 1.0], 0.25), ([0.0, -1.0], 0.25)],
                      diffusion=[[0.1, 0.0], [0.0, 0.1]])
    pairs, rep = [], 0
    while len(pairs) < 5 * count:
        cfg = SimConfig(128, 808, rep)
        times, sizes = simulate_big_jumps(model, cfg)
        rep += 1
        if not len(times):
            continue
        w = assemble_levy_path(simulate_small_part(model, cfg), times, sizes)
        wa = one_step_approx(w)
        pairs += [(w.scaled(1.0 / u), wa.scaled(1.0 / u)) for u in (2.0, 4.0, 8.0, 16.0, 32.0)]
    return pairs


class TestJ1Differential:
    """``j1_distance`` is bit-equal to the scalar dynamic program, and
    ``j1_within`` agrees with it at thresholds just below, at and just above
    the value."""

    @staticmethod
    def check(x, y, refinement):
        d = _reference_j1_dp(x, y, refinement)
        assert j1_distance(x, y, refinement) == d
        for eps in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
            assert j1_within(x, y, eps, refinement) == (d <= eps)

    @pytest.mark.parametrize("refinement", [1, 2, 4])
    def test_random_step_pairs(self, refinement):
        rng = np.random.default_rng(808 + refinement)
        for _ in range(8):
            self.check(random_step_path(rng, lattice=1000), random_step_path(rng, lattice=1000),
                       refinement)

    def test_two_dimensional_step_pairs(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(4):
                self.check(random_step_path(rng, d=d), random_step_path(rng, d=d), 2)

    def test_gaussian_like_paths(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            self.check(*_gaussian_like_pair(rng), 4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_noisy_jump_pairs(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(6):
            self.check(*_noisy_jump_pair(rng, d), 2)

    @pytest.mark.parametrize("batch", [5, cadlag._BATCH_POINTS])
    def test_stretch_costs_match_scalar(self, batch, monkeypatch):
        # every source and target at once, gathered in batches of 5 points
        # too, so that a batch often holds a single over-long stretch
        monkeypatch.setattr(cadlag, "_BATCH_POINTS", batch)
        rng = np.random.default_rng(17)
        for d in (1, 2):
            x, y = _noisy_jump_pair(rng, d)
            anchors = _reference_anchors(x, y, 4)
            bounds = (np.searchsorted(x.grid, anchors, side="right"),
                      np.searchsorted(x.grid, anchors, side="left"),
                      np.searchsorted(y.grid, anchors, side="right"),
                      np.searchsorted(y.grid, anchors, side="left"))
            K = len(anchors)
            for i in range(1, K):
                i0, j0, j = (np.array(v) for v in zip(*[
                    (a, b, c) for a in range(i) for c in range(1, K) for b in range(c)]))
                got = cadlag._stretch_costs(x, y, anchors, bounds, i0, j0, i, j)
                want = [_reference_seg_cost(x, y, anchors, a, b, i, c)
                        for a, b, c in zip(i0, j0, j)]
                assert np.array_equal(got, want)

    def test_sweep_tables_match_scalar(self):
        rng = np.random.default_rng(19)
        for d in (1, 2, 3):
            x, y = _noisy_jump_pair(rng, d)
            anchors = _reference_anchors(x, y, 4)
            XL, XR = x._sides_at(anchors)
            YL, YR = y._sides_at(anchors)
            for fixed, path, (left, right) in ((XL, y, (YL, YR)), (XR, y, (YL, YR)),
                                               (YL, x, (XL, XR)), (YR, x, (XL, XR))):
                got = cadlag._sweep_table(fixed, path, anchors, right, left)
                want = [[_reference_sweep_cost(f, path, a, b)
                         for a, b in zip(anchors, anchors[1:])] for f in fixed]
                assert np.array_equal(got, want)

    def test_levy_path_and_one_jump_approximation(self):
        for x, y in _levy_path_pairs(2):
            self.check(x, y, 2)
            # the one-big-jump diagnostic's refinement and epsilon
            assert j1_within(x, y, 0.1, 16) == (j1_distance(x, y, 16) <= 0.1)

    def test_sides_at_matches_scalar_program(self):
        rng = np.random.default_rng(3)
        x = random_step_path(rng, max_jumps=3, d=2)
        g, _ = _gaussian_like_pair(rng)
        for path in (x, g, CadlagPath.step(0.5, [1.0])):
            ts = np.concatenate([path.grid, rng.uniform(-0.2, 1.2, 50), [0.0, 1.0, 1.5, -0.5]])
            for new, ref in zip(path._sides_at(ts), _reference_sides_at(path, ts)):
                assert np.array_equal(new, ref)
