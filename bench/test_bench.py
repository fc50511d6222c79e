"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

The counts below come from the traced run and must repeat exactly, so that
they can be cited as counts rather than timings.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import (Runner, conditioning_fractions, fingerprint, golden_problems,  # noqa: E402
                 layer_metrics, sanity_problems, traced_run, write_configs)
from workloads import DEFAULT_SEED, configs  # noqa: E402

EXACT_COUNTS = ("cadlag.paths_built", "rng.substream.calls", "cadlag.j1_within.calls",
                "regvar.weighted_one_step_mass.draws", "diagnostics.cond_sup_frac",
                "diagnostics.cond_jump_frac")


@pytest.mark.parametrize("workload, scale, nonzero", [
    ("obj-ou", 0.1, ("cadlag.paths_built", "rng.substream.calls", "diagnostics.cond_sup_frac")),
    ("obj-2d-j1", 0.1, ("cadlag.j1_within.calls", "diagnostics.cond_jump_frac")),
    ("tails-readme", 0.05, ("regvar.weighted_one_step_mass.draws",)),
])
def test_traced_counts_repeat_exactly(tmp_path, workload, scale, nonzero):
    cfgs = configs(workload, DEFAULT_SEED, scale=scale)
    cfg_paths = write_configs(cfgs, tmp_path)
    runner = Runner(time.monotonic() + 600)
    seen = []
    for k in range(2):
        results = [traced_run(runner, name, path, tmp_path / f"t{k}") for name, path in cfg_paths]
        assert all(child.code == 0 for _, child, _, _ in results)
        files = {name: f for name, _, f, _ in results}
        metrics = layer_metrics([s for *_, s in results], conditioning_fractions(cfgs, files),
                                0, 0.0, 0.0)
        seen.append(({m: metrics[m][0] for m in EXACT_COUNTS}, files))
    assert seen[0] == seen[1]
    assert all(seen[0][0][m] > 0 for m in nonzero)


TAILS = (b"# config_hash=0\n"
         b"u,analytic,p_hat,stderr,hits,n,ratio\n"
         b"5.0,0.0463236003752588,0.07123,0.0002572086450724392,71230,1000000,1.537661136504484\n")


def test_golden_tolerates_last_bits_of_the_prediction_only():
    golden = {"tails.csv": fingerprint("tails.csv", TAILS)}
    drifted = TAILS.replace(b"0.0463236003752588", b"0.04632360037525881")
    assert golden_problems(golden, {"tails.csv": drifted}) == []
    moved = TAILS.replace(b"0.0463236003752588", b"0.04632361")
    assert golden_problems(golden, {"tails.csv": moved})
    hits = TAILS.replace(b"71230", b"71231")
    assert golden_problems(golden, {"tails.csv": hits})


def test_sanity_flags_bad_estimates():
    assert sanity_problems({"tails.csv": TAILS}) == []
    assert sanity_problems({"tails.csv": TAILS.replace(b"0.07123", b"1.5")})
    assert sanity_problems({"tails.csv": TAILS.replace(b"0.07123", b"nan")})
    curve = b"# c\nu,estimate,stderr,n_conditioning\n4.0,,,0\n8.0,,,0\n"
    assert sanity_problems({"one_big_jump_sup.csv": curve})
