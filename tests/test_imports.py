"""What each command loads, and the package's names resolved on first use."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bigjump
from test_experiments_cli import (EXP_OU, PATHS, breiman_config, lemma_config,
                                  obj_config, tails_config)

# every name the package exported when its init imported each module
EXPORTS = {
    "cadlag": ["CadlagPath", "j1_distance", "j1_within", "one_step_approx", "sup_norm",
               "uniform_distance"],
    "diagnostics": ["ConditionalDistanceCurve", "HillEstimate", "RatioEstimate",
                    "TailEstimate", "TrendPoint", "analytic_prediction", "breiman_ratio",
                    "double_jump_trend", "hill", "maximal_product_bound",
                    "one_big_jump_curve", "tail_equivalence"],
    "experiments": ["RunManifest", "ValidationError", "config_hash", "run", "validate"],
    "levy_sim": ["ConstantIntegrand", "DeterministicIntegrand", "ExpOUIntegrand",
                 "IntegrandSpec", "LevyModel", "SimConfig", "assemble_levy_path",
                 "batch_integral_functionals", "one_jump_integral", "simulate_big_jumps",
                 "simulate_integrand", "simulate_levy_path", "simulate_small_part",
                 "stochastic_integral"],
    "regvar": ["RegVarMeasure", "ScalingSequence", "mu_tail", "weighted_one_step_mass"],
}
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(bigjump.__file__).resolve().parents[1])

# Runs ``python -m bigjump.cli`` as a process does, entry and exit included,
# and prints the package modules it loaded to stderr at exit.
PROBE = ("import atexit, runpy, sys\n"
         "atexit.register(lambda: print(*sorted(m for m in sys.modules\n"
         "    if m.startswith('bigjump.')), file=sys.stderr))\n"
         "runpy.run_module('bigjump.cli', run_name='__main__', alter_sys=True)\n")

SMALL = {
    "breiman": breiman_config(),
    "lemma-checks": lemma_config(n_values=[100], reps=1000, n_trials=1000),
    "tail-equivalence": tails_config(kind="tail-equivalence", n=200, integrand=EXP_OU),
    "paths": PATHS,
    "one-big-jump": obj_config(n=20),
    "tails": tails_config(n=200, levels=[5.0]),
}


def loaded(tmp_path, command, kind):
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps(SMALL[kind]))
    args = [command, str(cfg)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / kind)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


class TestLoadedModules:
    @pytest.mark.parametrize("kind", ["breiman", "lemma-checks", "tail-equivalence", "paths",
                                      "one-big-jump"])
    def test_validate_loads_no_estimator_or_path_metric(self, tmp_path, kind):
        modules = loaded(tmp_path, "validate", kind)
        assert "bigjump.experiments" in modules
        assert not modules & {"bigjump.diagnostics", "bigjump.cadlag"}

    def test_validate_tails_loads_the_prediction(self, tmp_path):
        assert "bigjump.diagnostics" in loaded(tmp_path, "validate", "tails")

    @pytest.mark.parametrize("kind", ["tails", "breiman", "lemma-checks", "tail-equivalence",
                                      "one-big-jump"])
    def test_run_loads_no_path_metric(self, tmp_path, kind):
        modules = loaded(tmp_path, "run", kind)
        assert "bigjump.diagnostics" in modules
        assert "bigjump.cadlag" not in modules

    def test_run_paths_loads_the_path_metrics(self, tmp_path):
        assert "bigjump.cadlag" in loaded(tmp_path, "run", "paths")


class TestPackageNames:
    def test_each_old_export_is_the_module_object(self):
        for module, names in EXPORTS.items():
            mod = __import__(f"bigjump.{module}", fromlist=names)
            for name in names:
                assert getattr(bigjump, name) is getattr(mod, name), name
                assert name in dir(bigjump)
        assert sorted(bigjump.__all__) == sorted(n for names in EXPORTS.values()
                                                 for n in names)

    def test_modules_resolve_as_attributes(self):
        for module in EXPORTS:
            assert getattr(bigjump, module) is sys.modules[f"bigjump.{module}"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'simulate'"):
            bigjump.simulate

    def test_readme_quick_start_names_resolve(self):
        start = README.read_text().split("## Library quick start", 1)[1]
        code = re.search(r"^```python\n(.*?)^```", start, re.M | re.S).group(1)
        names = set(re.findall(r"\bbj\.(\w+)", code))
        assert names
        for name in names:
            assert getattr(bigjump, name) is not None

    def test_cli_keeps_run_and_validate(self):
        from bigjump import cli, experiments
        assert cli.run is experiments.run and cli.validate is experiments.validate
