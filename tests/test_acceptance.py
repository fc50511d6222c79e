"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  The Monte Carlo configurations (levels and
replicate counts) are calibrated by pilot runs so each criterion has a clear
margin at its stated tolerance; all randomness is counter-based and seeded, so
the suite is deterministic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines in a passing run.
"""

import math
import time

import numpy as np
import pytest

import bigjump as bj
from batch_helpers import batch_arrays

PASSED = "PASS"
FAILED = "FAIL"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {PASSED if ok else FAILED} -- {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: exact cone homogeneity
# ---------------------------------------------------------------------------

def test_criterion_1_homogeneity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        dirs = rng.standard_normal((3, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        w = rng.dirichlet(np.ones(3))
        m = bj.RegVarMeasure(float(rng.uniform(0.4, 3.5)), float(rng.uniform(0.2, 4.0)),
                             list(zip(dirs, w)))
        pick = rng.standard_normal(d)
        pred = lambda s, pick=pick: float(s @ pick) > 0
        r = float(rng.uniform(0.3, 6.0))
        base = bj.mu_tail(m, r, pred)
        for u in (0.5, 2.0, 10.0):
            scaled = bj.mu_tail(m, u * r, pred)
            expect = u ** (-m.alpha) * base
            if base > 0:
                worst = max(worst, abs(scaled - expect) / base)
    elapsed = time.perf_counter() - start
    report("1 (cone homogeneity)", worst <= 1e-12 and elapsed < 1.0,
           f"max relative defect {worst:.2e} over 100 cones x 3 scales in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: analytic tail prediction at one million replicates
# ---------------------------------------------------------------------------

def test_criterion_2_analytic_tail_reproduction():
    # alpha = 1.5, c = rate = 1, positive jumps only, Y_s = exp(-s), t = 1;
    # the limit prediction is ((1 - e^-1.5) / 1.5) * u^-1.5
    const = (1.0 - math.exp(-1.5)) / 1.5
    assert const == pytest.approx(0.5179132265677134, rel=1e-14)
    model = bj.LevyModel(1, 1.0, 1.5, [([1.0], 1.0)])
    integrand = bj.DeterministicIntegrand(1.0, -1.0)
    measure = model.induced_measure()

    start = time.perf_counter()
    endpoint, _ = batch_arrays(model, integrand, 1.0, 10 ** 6, seed=202, grid_size=128,
                               running_sup=False)
    ratios = []
    for u in (5.0, 10.0, 20.0):
        pred = bj.analytic_prediction(measure, integrand, 1.0, u, grid_size=4096)
        assert pred == pytest.approx(const * u ** -1.5, rel=1e-7)
        ratios.append(float((endpoint > u).mean()) / pred)
    elapsed = time.perf_counter() - start
    gaps = [abs(r - 1.0) for r in ratios]
    ok = (0.8 <= ratios[2] <= 1.2) and gaps[0] > gaps[1] > gaps[2] and elapsed < 600
    report("2 (analytic tail, 1e6 replicates)", ok,
           f"empirical/analytic at u=5,10,20: "
           f"{ratios[0]:.4f}, {ratios[1]:.4f}, {ratios[2]:.4f} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 3: tail equivalence of running sup and endpoint
# ---------------------------------------------------------------------------

def test_criterion_3_tail_equivalence():
    model = bj.LevyModel(1, 1.0, 1.5, [([1.0], 1.0)], diffusion=[[0.5]])
    ests = bj.tail_equivalence(model, bj.ConstantIntegrand([1.0]), 1.0,
                               [5.0, 10.0, 20.0, 40.0, 80.0, 120.0],
                               300000, seed=111, grid_size=512)
    all_ge_one = all(e.ratio >= 1.0 for e in ests if e.ratio is not None)
    top = max((e for e in ests if e.denominator_hits >= 200), key=lambda e: e.u)
    # stderr 0 happens when sup and endpoint exceedances coincide: ratio is 1
    z = 0.0 if top.ratio == 1.0 else abs(top.ratio - 1.0) / top.stderr
    ok = all_ge_one and z <= 3.0
    report("3 (tail equivalence)", ok,
           f"ratio >= 1 everywhere: {all_ge_one}; at u={top.u} "
           f"(den hits {top.denominator_hits}) ratio={top.ratio:.5f}, |z|={z:.2f} <= 3")


# ---------------------------------------------------------------------------
# criterion 4: one-big-jump conditional distance curves
# ---------------------------------------------------------------------------

def _check_curve(name: str, curve) -> tuple[bool, str]:
    slope = curve.fitted_slope()
    eligible = [(u, e) for u, e in zip(curve.levels, curve.estimates)
                if e is not None and e.n >= 200]
    if slope is None or not eligible:
        return False, f"{name}: not enough defined points"
    u_top, e_top = max(eligible, key=lambda p: p[0])
    ok = slope <= 0.0 and e_top.p_hat < 0.05
    return ok, (f"{name}: slope={slope:.4f}, p={e_top.p_hat:.4f} "
                f"at u={u_top} ({e_top.n} hits)")


def test_criterion_4_one_big_jump_curves():
    model = bj.LevyModel(1, 1.0, 1.2, [([1.0], 1.0)], diffusion=[[0.1]])
    levels = [4.0, 8.0, 16.0, 32.0, 64.0, 140.0, 280.0]
    integrand = bj.ExpOUIntegrand(rate=2.0, vol=0.25, initial=1.0)
    sup_i, jump_i = bj.one_big_jump_curve(model, integrand, 0.1, levels,
                                          250000, seed=404, grid_size=128)
    sup_r, jump_r = bj.one_big_jump_curve(model, None, 0.1, levels,
                                          250000, seed=405, grid_size=128)
    results = [_check_curve(n, c) for n, c in
               (("integral|sup", sup_i), ("integral|jump", jump_i),
                ("path|sup", sup_r), ("path|jump", jump_r))]
    ok = all(r[0] for r in results)
    report("4 (one-big-jump curves)", ok, "; ".join(r[1] for r in results))


# ---------------------------------------------------------------------------
# criterion 5: Breiman product-tail ratios
# ---------------------------------------------------------------------------

def test_criterion_5_breiman():
    # samplers fill the chunk's array ``out`` in place
    pareto2 = lambda rng, out: np.copyto(out, (1.0 - rng.random(out.shape)) ** -0.5)
    levels = [2.0, 4.0, 8.0, 16.0, 32.0]
    const = bj.breiman_ratio(pareto2, lambda rng, out: out.fill(2.0),
                             levels, 10 ** 6, seed=505)
    # exact Pareto algebra: P(2X > u) / P(X > u) = 4 for every u >= 2
    const_ok = all(abs(e.ratio - 4.0) <= 3 * e.stderr for e in const)

    logn = bj.breiman_ratio(
        pareto2, lambda rng, out: np.copyto(out, np.exp(0.5 * rng.standard_normal(out.shape))),
        levels, 10 ** 6, seed=506)
    top = max((e for e in logn if e.denominator_hits >= 500), key=lambda e: e.u)
    target = math.exp(0.5)
    logn_ok = abs(top.ratio - target) <= 0.1 * target
    report("5 (Breiman ratios)", const_ok and logn_ok,
           f"constant factor: ratio-4 within 3 stderr at all levels: {const_ok}; "
           f"lognormal at u={top.u}: ratio={top.ratio:.4f} vs {target:.4f} "
           f"(den hits {top.denominator_hits})")


# ---------------------------------------------------------------------------
# criterion 6: Hill recovery coverage
# ---------------------------------------------------------------------------

def test_criterion_6_hill_recovery():
    n, k, reps = 10 ** 5, 10 ** 3, 200
    details = []
    ok = True
    for alpha in (0.8, 1.5, 3.0):
        rng = np.random.default_rng(606)
        covered = 0
        for _ in range(reps):
            x = (1.0 - rng.random(n)) ** (-1.0 / alpha)
            est = bj.hill(x, k)
            if abs(est.alpha_hat - alpha) <= 3 * est.stderr:
                covered += 1
        ok = ok and covered >= 0.95 * reps
        details.append(f"alpha={alpha}: {covered}/{reps}")
    report("6 (Hill coverage)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: vanishing rate of double big jumps
# ---------------------------------------------------------------------------

def test_criterion_7_double_jump_trend():
    measure = bj.RegVarMeasure(1.5, 1.0, [([1.0], 1.0)])
    pts = bj.double_jump_trend(measure, 1.0, 0.75,
                               [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5],
                               2 * 10 ** 6, seed=707)
    closed = [p.closed_form for p in pts]
    decreasing = all(b < a for a, b in zip(closed, closed[1:]))
    agree = all(abs(p.mc_value - p.closed_form) <= 3 * p.stderr for p in pts)
    report("7 (double-jump rate trend)", decreasing and agree,
           f"closed form {['%.3g' % c for c in closed]} strictly decreasing: "
           f"{decreasing}; MC within 3 stderr at each n: {agree}")


# ---------------------------------------------------------------------------
# criterion 8: J1 distance against the brute-force lattice oracle
# ---------------------------------------------------------------------------

def lattice_j1(x, y, n=1000):
    """Independent brute force: minimax over monotone paths on an n x n grid
    of time pairs (piecewise-linear time changes sampled at 1/n resolution).

    Cell (i, j) costs max(|t_i - t_j|, |x(t_i) - y(t_j)|) and the path value
    is D(i, j) = max(cost, min(D(i-1, j), D(i, j-1), D(i-1, j-1))).  The cells
    of anti-diagonal k = i + j depend only on diagonals k - 1 and k - 2, so
    each diagonal is one vectorized step over rows i, with cells off the
    lattice held at +inf."""
    ts = np.linspace(0.0, 1.0, n + 1)
    X = x._sides_at(ts)[1]
    Y = y._sides_at(ts)[1]
    node = np.maximum(np.abs(ts[:, None] - ts[None, :]),
                      np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2))
    # diag[k, i] = node[i, k - i]
    i = np.arange(n + 1)
    diag = np.full((2 * n + 1, n + 1), np.inf)
    diag[i[:, None] + i[None, :], i[:, None]] = node
    prev2, prev1 = np.full(n + 1, np.inf), diag[0]
    best = np.empty(n + 1)
    for k in range(1, 2 * n + 1):
        best[0] = prev1[0]
        np.minimum(prev1[:-1], prev1[1:], out=best[1:])
        np.minimum(best[1:], prev2[:-1], out=best[1:])
        prev2, prev1 = prev1, np.maximum(diag[k], best)
    return float(prev1[n])


def _random_step(rng, max_jumps=3, lattice=1000):
    k = int(rng.integers(1, max_jumps + 1))
    times = np.sort(rng.choice(np.arange(1, lattice), size=k, replace=False)) / lattice
    sizes = rng.uniform(-2.0, 2.0, size=(k, 1))
    sizes[np.abs(sizes) < 0.3] = 0.5
    grid = np.unique(np.concatenate([[0.0, 1.0], times]))
    vals = np.zeros((len(grid), 1))
    for t, s in zip(times, sizes):
        vals[grid >= t] += s
    return bj.CadlagPath.from_samples(grid, vals, list(zip(times, sizes)))


def test_criterion_8_j1_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        x = _random_step(rng)
        y = _random_step(rng)
        worst = max(worst, abs(bj.j1_distance(x, y, refinement=2) - lattice_j1(x, y)))
    oracle_ok = worst <= 1e-3

    self_ok = all(bj.j1_distance(x, x, refinement=1) == 0.0
                  for x in (_random_step(rng) for _ in range(100)))
    bound_ok = True
    for _ in range(1000):
        x = _random_step(rng)
        y = _random_step(rng)
        if bj.j1_distance(x, y, refinement=1) > bj.uniform_distance(x, y) + 1e-12:
            bound_ok = False
    report("8 (J1 vs brute-force oracle)", oracle_ok and self_ok and bound_ok,
           f"max |dp - oracle| = {worst:.2e} over 100 pairs; d(x,x)=0: {self_ok}; "
           f"d <= uniform on 1000 pairs: {bound_ok}")


# ---------------------------------------------------------------------------
# criterion 9: stochastic integral correctness
# ---------------------------------------------------------------------------

def test_criterion_9_integral_correctness():
    model = bj.LevyModel(1, 2.0, 1.5, [([1.0], 0.7), ([-1.0], 0.3)],
                         diffusion=[[0.5]], drift=[0.3])
    exact = True
    for rep in range(10):
        cfg = bj.SimConfig(4096, 909, rep)
        x = bj.simulate_levy_path(model, cfg)
        y = bj.simulate_integrand(bj.ConstantIntegrand([1.0]), cfg, times=x.jump_times)
        w = bj.stochastic_integral(y, x)
        if not (np.array_equal(w.jump_times, x.jump_times)
                and np.array_equal(w.jump_sizes, x.jump_sizes)):
            exact = False
        if np.abs(w._sides_at(x.grid)[1] - x.values).max() > 1e-12:
            exact = False

    errors = []
    for gs in (512, 1024, 2048):
        grid = np.linspace(0, 1, gs + 1)
        xd = bj.CadlagPath(grid, grid[:, None])
        yd = bj.CadlagPath(grid, grid[:, None])
        w = bj.stochastic_integral(yd, xd)
        errors.append(abs(float(w.values[-1, 0]) - 0.5))
    order_ok = all(e1 / e2 >= 2.0 / 1.5 and e1 / e2 <= 2.0 * 1.5
                   for e1, e2 in zip(errors, errors[1:]))
    report("9 (integral correctness)", exact and order_ok,
           f"unit integrand bit-exact jumps and <=1e-12 grid values: {exact}; "
           f"left-endpoint errors {['%.2e' % e for e in errors]} halve per refinement: "
           f"{order_ok}")


# ---------------------------------------------------------------------------
# criterion 10: decoupled maximal-product tail bound
# ---------------------------------------------------------------------------

def test_criterion_10_maximal_product_bound():
    # fills the chunk's (trials, most terms) array ``out`` in place
    pareto15 = lambda rng, out: np.copyto(out, (1.0 - rng.random(out.shape)) ** (-1.0 / 1.5))
    unit = lambda z, mask: np.ones_like(z)

    def prefix(z, mask):
        # Y_k depends on Z_1..Z_{k-1} only: shift the cumulative sums right
        prev = np.hstack([np.zeros((z.shape[0], 1)), np.cumsum(z, axis=1)[:, :-1]])
        return 1.0 + np.minimum(1.0, prev / 10.0)

    configs = [("Poisson(1), unit factors", 1.0, unit),
               ("Poisson(2), unit factors", 2.0, unit),
               ("Poisson(2), predictable factors", 2.0, prefix)]
    details = []
    ok = True
    for i, (label, lam, builder) in enumerate(configs):
        lhs, rhs = bj.maximal_product_bound(
            lambda rng, size, lam=lam: rng.poisson(lam, size), builder, pareto15,
            10 ** 6, 20.0, seed=1010 + i)
        margin = 3.0 * math.hypot(lhs.stderr, 2.0 * rhs.stderr)
        good = lhs.p_hat <= 2.0 * rhs.p_hat + margin
        ok = ok and good
        details.append(f"{label}: lhs={lhs.p_hat:.5f} <= 2*rhs+3se="
                       f"{2 * rhs.p_hat + margin:.5f} ({good})")
    report("10 (maximal-product bound)", ok, "; ".join(details))
