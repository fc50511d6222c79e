"""The benchmark's workloads: fixed lists of `bigjump run` configs.

A workload is a list of (name, config) pairs.  Its shape (kind, model,
levels, replicate counts) is fixed; the workload seed and the pass number
only move the Monte Carlo seed of each config, so every pass asks for the
same amount of simulation on a fresh sample.  A benchmark run repeats passes
on fresh samples, so that its median averages over the seed-to-seed
variation of the work (on ``obj-2d-j1`` the number of J1 dynamic programs)
as well as over the machine's.  The first pass at ``DEFAULT_SEED`` keeps each
config's base seed, which is the seed the golden digests in ``golden.json``
were recorded at.

Why each workload exists (the layers it stresses):

- ``obj-ou``: one-big-jump with the criterion-4 model and an exp-OU
  integrand.  Nearly all time goes to the per-replicate path machinery
  (CadlagPath construction, integrals, functionals); the J1 dynamic program
  almost never runs and only about a quarter of the replicates meet a
  conditioning event.  Two-phase screening and process parallelism show here.
- ``obj-2d-j1``: the same estimator on a 2-D raw driver with four axis
  directions; about two thirds of replicates are conditioned and the J1
  dynamic program takes most of the time.  J1 work shows here, screening
  should show little.
- ``tails-readme``: the README ``tails`` example with both Monte Carlo
  sizes (``n`` and the default ``n_mc_inner`` of 2048) cut to a quarter, which
  keeps the split between the vectorised batch sampler and the analytic
  prediction's inner Monte Carlo; no cadlag functionals, no J1.
- ``reduce-write``: the chunked vectorised reductions (Breiman ratios, the
  maximal-product bound, the double-jump trend, tail equivalence with the
  batch exp-OU kernel) and trajectory output writing.  Breiman keeps
  (levels x n) indicator arrays, so its memory grows with n.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0
# Pass r at workload seed s maps the base seed b to b + SEED_STRIDE * s + r;
# a run makes far fewer than SEED_STRIDE passes, so no two (s, r) share seeds.
SEED_STRIDE = 1000

_MODEL_OU = {"dimension": 1, "big_jump_intensity": 1.0, "radial_alpha": 1.2,
             "spectral": [{"dir": [1.0], "w": 1.0}],
             "diffusion": [[0.1]], "drift": [0.0]}

_MODEL_2D = {"dimension": 2, "big_jump_intensity": 2.0, "radial_alpha": 1.2,
             "spectral": [{"dir": [1.0, 0.0], "w": 0.25}, {"dir": [-1.0, 0.0], "w": 0.25},
                          {"dir": [0.0, 1.0], "w": 0.25}, {"dir": [0.0, -1.0], "w": 0.25}],
             "diffusion": [[0.1, 0.0], [0.0, 0.1]], "drift": [0.0, 0.0]}

_MODEL_README = {"dimension": 1, "big_jump_intensity": 1.0, "radial_alpha": 1.5,
                 "spectral": [{"dir": [1.0], "w": 1.0}],
                 "diffusion": [[0.0]], "drift": [0.0]}

_MODEL_DIFF = {"dimension": 1, "big_jump_intensity": 1.0, "radial_alpha": 1.5,
               "spectral": [{"dir": [1.0], "w": 1.0}],
               "diffusion": [[0.5]], "drift": [0.0]}

_MODEL_PATHS = {"dimension": 1, "big_jump_intensity": 2.0, "radial_alpha": 1.5,
                "spectral": [{"dir": [1.0], "w": 0.7}, {"dir": [-1.0], "w": 0.3}],
                "diffusion": [[0.5]], "drift": [0.3]}

_EXP_OU = {"variant": "exp_ou", "rate": 2.0, "vol": 0.3, "initial": 1.0}

# Base configs; "seed" is the base seed at DEFAULT_SEED.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "obj-ou": [
        ("obj_ou", {"kind": "one-big-jump", "seed": 404, "n": 2000, "epsilon": 0.1,
                    "levels": [4.0, 8.0, 16.0, 32.0, 64.0, 140.0, 280.0],
                    "grid_size": 128, "refinement": 4,
                    "model": _MODEL_OU, "integrand": _EXP_OU}),
    ],
    "obj-2d-j1": [
        ("obj_2d_j1", {"kind": "one-big-jump", "seed": 808, "n": 1500, "epsilon": 0.1,
                       "levels": [2.0, 4.0, 8.0, 16.0, 32.0],
                       "grid_size": 128, "refinement": 16,
                       "model": _MODEL_2D, "integrand": None}),
    ],
    "tails-readme": [
        ("tails", {"kind": "tails", "seed": 42, "n": 250000, "n_mc_inner": 512, "t": 1.0,
                   "levels": [5.0, 10.0, 20.0], "grid_size": 512,
                   "model": _MODEL_README,
                   "integrand": {"variant": "deterministic", "form": "exp",
                                 "scale": 1.0, "rate": -1.0},
                   "format": "csv"}),
    ],
    "reduce-write": [
        ("breiman", {"kind": "breiman", "seed": 505, "n": 40000000,
                     "levels": [2.0, 4.0, 8.0, 16.0, 32.0],
                     "breiman": {"alpha": 2.0, "y": {"kind": "lognormal", "sigma": 0.5}}}),
        ("lemma", {"kind": "lemma-checks", "seed": 707,
                   "lemma_checks": {"alpha": 1.5, "lam": 1.0, "beta": 0.75, "x_level": 20.0,
                                    "n_values": [100, 1000, 10000, 100000],
                                    "reps": 500000, "n_trials": 500000}}),
        ("tail_eq", {"kind": "tail-equivalence", "seed": 111, "n": 30000, "t": 1.0,
                     "levels": [5.0, 10.0, 20.0, 40.0], "grid_size": 512,
                     "model": _MODEL_DIFF, "integrand": _EXP_OU}),
        ("paths", {"kind": "paths", "seed": 909, "n_paths": 8, "grid_size": 512,
                   "model": _MODEL_PATHS, "integrand": _EXP_OU}),
    ],
}


def configs(workload: str, seed: int = DEFAULT_SEED, rep: int = 0,
            scale: float = 1.0) -> list[tuple[str, dict]]:
    """The workload's configs for pass ``rep`` at a workload seed.

    ``scale`` shrinks every replicate count (for the benchmark's self-tests);
    the benchmark itself always runs at scale 1.
    """
    out = []
    for name, base in WORKLOADS[workload]:
        cfg = copy.deepcopy(base)
        cfg["seed"] = base["seed"] + SEED_STRIDE * seed + rep
        if scale != 1.0:
            for holder, key in _replicate_counts(cfg):
                holder[key] = max(1, int(holder[key] * scale))
        out.append((name, cfg))
    return out


def _replicate_counts(cfg: dict) -> list[tuple[dict, str]]:
    keys = [(cfg, k) for k in ("n", "n_paths") if k in cfg]
    sec = cfg.get("lemma_checks")
    if sec is not None:
        keys += [(sec, "reps"), (sec, "n_trials")]
    return keys
