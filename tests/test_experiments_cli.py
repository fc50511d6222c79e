import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bigjump import cli, diagnostics, levy_sim
from bigjump.experiments import _KINDS, ValidationError, config_hash, parse, run, validate

MODEL = {"dimension": 1, "big_jump_intensity": 1.0, "radial_alpha": 1.5,
         "spectral": [{"dir": [1.0], "w": 1.0}],
         "diffusion": [[0.0]], "drift": [0.0]}
TWO_SIDED = dict(MODEL, spectral=[{"dir": [1.0], "w": 0.7}, {"dir": [-1.0], "w": 0.3}])
UNIT_Y = {"variant": "constant", "value": [1.0]}


def tails_config(**over):
    cfg = {"kind": "tails", "seed": 42, "n": 20000, "t": 1.0,
           "levels": [5.0, 10.0], "grid_size": 64, "model": MODEL,
           "integrand": UNIT_Y, "format": "csv"}
    cfg.update(over)
    return cfg


def lemma_config(**over):
    sec = {"alpha": 1.5, "lam": 1.0, "beta": 0.75, "x_level": 20.0,
           "n_values": [100, 1000], "reps": 20000, "n_trials": 20000}
    sec.update(over)
    return {"kind": "lemma-checks", "seed": 3, "format": "csv",
            "lemma_checks": sec}


MODEL_2D = {"dimension": 2, "big_jump_intensity": 2.0, "radial_alpha": 1.2,
            "spectral": [{"dir": [1.0, 0.0], "w": 0.5}, {"dir": [0.0, 1.0], "w": 0.5}],
            "diffusion": [[0.1, 0.0], [0.0, 0.1]], "drift": [0.0, 0.0]}
EXP_OU = {"variant": "exp_ou", "rate": 2.0, "vol": 0.3, "initial": 1.0}


def obj_config(**over):
    cfg = {"kind": "one-big-jump", "seed": 5, "n": 50, "epsilon": 0.1,
           "levels": [2.0, 4.0], "grid_size": 32, "refinement": 2, "model": MODEL,
           "integrand": None, "format": "csv"}
    cfg.update(over)
    return cfg


def breiman_config(**over):
    cfg = {"kind": "breiman", "seed": 1, "n": 1000, "levels": [2.0, 4.0],
           "breiman": {"alpha": 2.0, "y": {"kind": "lognormal", "sigma": 0.5}}}
    cfg.update(over)
    return cfg


PATHS = {"kind": "paths", "seed": 7, "n_paths": 1, "grid_size": 32,
         "model": MODEL, "integrand": UNIT_Y}

# (config, its one error, id): sizes whose arrays would not fit in memory
CAPPED_CONFIGS = [
    *((cfg, "grid_size must be an integer in [2, 4096]", f"{cfg['kind']}-grid-{size}")
      for size in (4097, 2 ** 40)
      for cfg in (tails_config(grid_size=size), obj_config(grid_size=size),
                  dict(PATHS, grid_size=size))),
    *((tails_config(kind=kind, n=n), f"n must be an integer in [1, 16777216] for {kind}",
       f"{kind}-n-{n}")
      for n in (2 ** 24 + 1, 2 ** 62) for kind in ("tails", "tail-equivalence")),
    (lemma_config(lam=101), "lemma_checks.lam must lie in (0, 100]", "lam-101"),
    (lemma_config(lam=1e300), "lemma_checks.lam must lie in (0, 100]", "lam-1e300"),
]

# alpha 2, constant integrand 10, t = 1/512: the prediction at level 1 is
# 100/512, and u**-alpha = 1e306 at u = 1e-153
TINY_LEVEL = tails_config(n=200, t=1 / 512, grid_size=512, levels=[1e-153, 1.0],
                          model=dict(MODEL, radial_alpha=2.0),
                          integrand=dict(UNIT_Y, value=[10.0]), format="json")

VALID_CONFIGS = [
    pytest.param(tails_config(n=200, levels=[5.0], n_mc_inner=8), id="tails"),
    pytest.param(breiman_config(), id="breiman"),
    pytest.param(obj_config(model=MODEL_2D), id="one-big-jump"),
    pytest.param(tails_config(kind="tail-equivalence", n=200, integrand=EXP_OU),
                 id="tail-equivalence"),
    pytest.param(lemma_config(reps=1000, n_trials=1000), id="lemma-checks"),
    pytest.param(PATHS, id="paths"),
    pytest.param(TINY_LEVEL, id="tails-tiny-level"),
]

BAD_CONFIGS = [
    pytest.param(tails_config(model=dict(MODEL, dimension=2,
                                         spectral=[{"dir": [1.0, 0.0], "w": 1.0}],
                                         diffusion=[[0.0, 0.0], [0.0, 0.0]],
                                         drift=[0.0, 0.0])),
                 id="tails-2d-model"),
    pytest.param(tails_config(t=0.3, grid_size=512), id="t-off-grid"),
    pytest.param(tails_config(n_mc_inner=0), id="n-mc-inner-zero"),
    pytest.param(tails_config(n_mc_inner="x"), id="n-mc-inner-string"),
    pytest.param(obj_config(model=MODEL_2D, refinement="x"), id="refinement-string"),
    pytest.param(tails_config(grid_szie=64), id="unknown-key"),
    pytest.param(tails_config(model=dict(MODEL, difusion=[[0.5]])), id="unknown-model-key"),
    pytest.param(breiman_config(breiman={"alpha": 2.0, "y": 3}), id="breiman-y-number"),
    pytest.param([tails_config()], id="config-list"),
    pytest.param(tails_config(n=True), id="bool-count"),
    pytest.param(obj_config(model=MODEL_2D, integrand=EXP_OU), id="integrand-dimension"),
    pytest.param(lemma_config(n_values=[100, "x"]), id="lemma-section-value"),
    pytest.param(dict(lemma_config(), lemma_checks=[1]), id="section-list"),
    pytest.param(tails_config(integrand=[1.0]), id="integrand-list"),
    pytest.param(tails_config(model=dict(MODEL, spectral=[{"dir": 1.0, "w": 1.0}])),
                 id="model-scalar-direction"),
    pytest.param(obj_config(epsilon=float("nan")), id="epsilon-nan"),
    pytest.param(tails_config(model=dict(MODEL, big_jump_intensity=float("nan"))),
                 id="intensity-nan"),
    pytest.param(obj_config(model=dict(MODEL, radial_alpha=float("nan"))), id="alpha-nan"),
    pytest.param(tails_config(integrand=dict(EXP_OU, vol=float("nan"))), id="vol-nan"),
    pytest.param(tails_config(integrand={"variant": "deterministic", "form": "exp",
                                         "scale": float("inf"), "rate": -1.0}),
                 id="scale-inf"),
    pytest.param(breiman_config(seed=2 ** 64 - 1), id="seed-out-of-range"),
    pytest.param(tails_config(integrand={"variant": "deterministic", "form": "exp",
                                         "scale": 1.0, "rate": 800.0}),
                 id="rate-overflow"),
    pytest.param(tails_config(integrand=dict(EXP_OU, rate=800.0)), id="ou-rate-overflow"),
    pytest.param(tails_config(integrand=dict(EXP_OU, rate=1.0, vol=1000.0)),
                 id="ou-vol-overflow"),
    # every number inside a section follows the top-level rules
    pytest.param(tails_config(model=dict(MODEL, big_jump_intensity=True)),
                 id="intensity-bool"),
    pytest.param(obj_config(model=dict(MODEL, radial_alpha=float("inf"))), id="alpha-inf"),
    pytest.param(tails_config(model=dict(TWO_SIDED, spectral=[
        {"dir": [1.0], "w": float("nan")}, {"dir": [-1.0], "w": 1.0}])), id="weight-nan"),
    pytest.param(tails_config(model=dict(MODEL, spectral=[{"dir": [float("nan")], "w": 1.0}])),
                 id="direction-nan"),
    pytest.param(tails_config(model=dict(MODEL, spectral=[
        {"dir": [1.0], "w": 1.0, "wieght": 1.0}])), id="unknown-atom-key"),
    pytest.param(tails_config(model=dict(MODEL, dimension=1.0)), id="dimension-float"),
    pytest.param(tails_config(model=dict(MODEL, diffusion=[[True]])), id="diffusion-bool"),
    pytest.param(tails_config(integrand=dict(EXP_OU, initial=True)), id="ou-initial-bool"),
    pytest.param(tails_config(model=dict(MODEL, big_jump_intensity=1e300)),
                 id="intensity-beyond-poisson"),
    pytest.param(tails_config(model=dict(TWO_SIDED, spectral=[
        {"dir": [1.0], "w": 0.5}, {"dir": [0.0, 1.0], "w": 0.5}])),
                 id="directions-of-two-dimensions"),
    pytest.param(tails_config(integrand=dict(UNIT_Y, value=[[1.0]])), id="constant-value-nested"),
    # the samplers hold every jump in memory: 1e15 would ask for 7 PiB
    pytest.param(tails_config(model=dict(MODEL, big_jump_intensity=1e15)),
                 id="intensity-1e15"),
    pytest.param(tails_config(model=dict(MODEL, big_jump_intensity=1001)),
                 id="intensity-above-cap"),
    # predictions beyond float range: E Y**10 = exp(800) at vol 4, and
    # u**-alpha at a tiny level
    pytest.param(tails_config(model=dict(MODEL, radial_alpha=10.0),
                              integrand=dict(EXP_OU, rate=0.0, vol=4.0)),
                 id="prediction-overflow"),
    pytest.param(tails_config(levels=[1e-300]), id="prediction-overflow-at-level"),
    *(pytest.param(config, id=name) for config, _, name in CAPPED_CONFIGS),
]


class TestValidate:
    def test_valid_minimal(self):
        assert validate(tails_config()) == []

    def test_beta_message(self):
        errors = validate(lemma_config(beta=0.4))
        assert any("beta must lie in (1/2, 1)" in e for e in errors)

    def test_empty_levels(self):
        errors = validate(tails_config(levels=[]))
        assert any("levels" in e for e in errors)

    @pytest.mark.parametrize("config, message", [
        (breiman_config(seed=2 ** 64 - 1), "seed must be an integer in [-2**63, 2**63)"),
        (breiman_config(seed=-2 ** 63 - 1), "seed must be an integer in [-2**63, 2**63)"),
        (breiman_config(n=2 ** 63), "n must be an integer in [1, 2**63)"),
        (lemma_config(n_values=[100, 2 ** 63]),
         "lemma_checks.n_values must be a nonempty list of integers in [1, 2**63)"),
    ], ids=["seed-above", "seed-below", "count", "n-values"])
    def test_integer_messages_name_the_range(self, config, message):
        assert validate(config) == [message]

    @pytest.mark.parametrize("config, message",
                             [pytest.param(c, m, id=name) for c, m, name in CAPPED_CONFIGS])
    def test_caps_name_their_key(self, config, message):
        assert validate(config) == [message]

    @pytest.mark.parametrize("config", [breiman_config(n=2 ** 62), obj_config(n=2 ** 62)],
                             ids=["breiman", "one-big-jump"])
    def test_chunked_kinds_take_any_n(self, config):
        # they reduce per chunk and hold nothing of length n
        assert validate(config) == []

    @pytest.mark.parametrize("config", [
        breiman_config(breiman={"alpha": 2 ** 64, "y": {"kind": "const", "value": 2.0}}),
        lemma_config(x_level=2 ** 64, reps=1000, n_trials=1000),
        tails_config(levels=[2.0, 2 ** 64], n=200),
    ], ids=["breiman-alpha", "x-level", "levels"])
    def test_integers_beyond_64_bits_read_as_reals(self, config, tmp_path):
        # an int reads as a real when its float value is finite, in validate
        # and run alike
        assert validate(config) == []
        assert run(config, out_dir=tmp_path).outputs

    @pytest.mark.parametrize("config, message", [
        (breiman_config(breiman={"alpha": 10 ** 400, "y": {"kind": "const", "value": 2.0}}),
         "breiman.alpha must be a finite number"),
        (lemma_config(x_level=-10 ** 400), "lemma_checks.x_level must be a finite number"),
        (tails_config(levels=[2.0, 10 ** 400]), "levels must be a finite number"),
    ], ids=["breiman-alpha", "x-level", "levels"])
    def test_integers_too_large_for_a_float(self, config, message, tmp_path):
        assert validate(config) == [message]
        with pytest.raises(ValidationError) as exc:
            run(config, out_dir=tmp_path)
        assert exc.value.errors == [message]

    def test_overflowing_exponential_rejected(self):
        exp_y = {"variant": "deterministic", "form": "exp", "scale": 3.0, "rate": 709.0}
        errors = validate(tails_config(integrand=exp_y))
        assert len(errors) == 1 and "overflows on [0, 1]" in errors[0]
        # the same rate with a smaller scale stays finite, and so does any
        # decaying rate; tails still rejects the first, since its prediction
        # raises exp(709) to the power alpha = 1.5
        assert validate(tails_config(kind="tail-equivalence",
                                     integrand=dict(exp_y, scale=1.0))) == []
        assert validate(tails_config(integrand=dict(exp_y, scale=1.0))) == [
            "the limit prediction at level 5.0 overflows"]
        assert validate(tails_config(integrand=dict(exp_y, rate=-800.0))) == []

    def test_tiny_level_writes_its_finite_prediction(self, tmp_path):
        # a bound of twice the integrand's peak rejected this config, though
        # the prediction written at u = 1e-153 is finite
        run(TINY_LEVEL, out_dir=tmp_path)
        rows = json.loads((tmp_path / "tails.json").read_text())["rows"]
        assert repr(rows[0][1]) == "1.9531249999999996e+305"

    @pytest.mark.parametrize("t, accepted", [(1 / 512, 5), (1.0, 4)])
    def test_prediction_overflow_is_exactly_an_infinite_prediction(self, t, accepted,
                                                                   tmp_path):
        # at t = 1 the prediction at level 1 is 100, so level 1e-154 overflows
        # in the product, not in u**-alpha
        verdicts = []
        for k in range(150, 157):
            cfg = dict(TINY_LEVEL, t=t, levels=[10.0 ** -k])
            spec = parse(dict(cfg, levels=[1.0]))
            with np.errstate(over="ignore"):
                pred = (diagnostics.analytic_prediction(spec.model.induced_measure(),
                                                        spec.integrand, t, 1.0, 512)
                        * np.float64(10.0 ** -k) ** -2.0)
            errors = validate(cfg)
            assert errors == ([] if np.isfinite(pred) else
                              [f"the limit prediction at level {10.0 ** -k} overflows"])
            if not errors:
                run(cfg, out_dir=tmp_path / str(k))
                rows = json.loads((tmp_path / str(k) / "tails.json").read_text())["rows"]
                assert rows[0][1] == pred
            verdicts.append(not errors)
        assert verdicts == [True] * accepted + [False] * (7 - accepted)

    def test_exp_ou_just_inside_the_rate_bound_writes_finite_values(self, tmp_path):
        # rate 709 with vol 1.2 passes and vol 1.3 overflows exp(rate * t) in
        # _ou_exponent; past the bound the prediction was NaN and the sup
        # curve empty
        ou = dict(EXP_OU, rate=709.0, vol=1.2)
        assert validate(tails_config(integrand=dict(ou, vol=1.3)))
        for cfg in (tails_config(n=2000, n_mc_inner=16, integrand=ou, format="json"),
                    obj_config(n=200, levels=[1.0, 2.0], integrand=ou, format="json")):
            out = tmp_path / cfg["kind"]
            for name in run(cfg, out_dir=out).outputs:
                rows = json.loads((out / name).read_text())["rows"]
                assert all(v is not None and math.isfinite(v) for row in rows for v in row)

    def test_reports_all_violations_at_once(self):
        cfg = tails_config(levels=[3.0, 2.0], n=0, t=7.0)
        errors = validate(cfg)
        assert len(errors) >= 3

    def test_unknown_kind(self):
        assert validate({"kind": "nope"}) == ["kind must be one of tails, breiman, "
                                              "one-big-jump, tail-equivalence, "
                                              "lemma-checks, paths"]

    @pytest.mark.parametrize("config", BAD_CONFIGS)
    def test_no_validation_drift(self, config, tmp_path, capsys):
        # run must reject exactly what validate rejects, with the same errors
        errors = validate(config)
        assert errors
        with pytest.raises(ValidationError) as exc:
            run(config, out_dir=tmp_path / "out")
        assert exc.value.errors == errors
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "cli")]) == 1
        assert all(line.startswith("error: ")
                   for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("config", VALID_CONFIGS)
    def test_valid_config_runs(self, config, tmp_path):
        assert validate(config) == []
        manifest = run(config, out_dir=tmp_path)
        assert manifest.outputs
        assert all((tmp_path / name).exists() for name in manifest.outputs)


class TestRun:
    def test_tails_contains_analytic_prediction(self, tmp_path):
        manifest = run(tails_config(), out_dir=tmp_path)
        lines = (tmp_path / "tails.csv").read_text().splitlines()
        # unit integrand at u = 10: prediction c * t * u^-1.5
        row = dict(zip(lines[1].split(","), lines[3].split(",")))
        assert row["u"] == "10.0"
        assert float(row["analytic"]) == pytest.approx(10.0 ** -1.5, rel=1e-12)
        assert f"# config_hash={manifest.config_hash}" in lines[0]
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("model, integrand", [
        pytest.param(MODEL, UNIT_Y, id="constant"),
        pytest.param(TWO_SIDED, {"variant": "deterministic", "form": "exp",
                                 "scale": 2.0, "rate": -1.0}, id="deterministic-two-sided"),
        pytest.param(MODEL, {"variant": "deterministic", "form": "exp",
                             "scale": -2.0, "rate": -1.0}, id="negative-scale"),
        pytest.param(TWO_SIDED, EXP_OU, id="exp-ou-two-sided"),
    ])
    def test_tails_prediction_is_one_mass_scaled_per_level(self, tmp_path, model, integrand):
        # the limit measure is homogeneous: each level's prediction is the
        # one at level 1 times u**-alpha, bit for bit
        cfg = tails_config(n=2000, t=0.75, levels=[2.0, 5.0, 10.0], n_mc_inner=32,
                           model=model, integrand=integrand, format="json")
        run(cfg, out_dir=tmp_path)
        rows = json.loads((tmp_path / "tails.json").read_text())["rows"]
        spec = parse(cfg)
        measure = spec.model.induced_measure()
        predict = lambda u: diagnostics.analytic_prediction(measure, spec.integrand, 0.75,
                                                            u, 64)
        at_one = predict(1.0)
        for u, analytic, *_, ratio in rows:
            assert analytic == predict(u) == at_one * u ** -measure.alpha
            assert (ratio is None) == (analytic == 0.0)
        # only a negative scale on a one-sided measure leaves no mass
        assert (at_one == 0.0) == (integrand.get("scale", 1.0) < 0)

    def test_rerun_bit_identical(self, tmp_path):
        cfg = tails_config(n=5000)
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "tails.csv").read_bytes() == \
               (tmp_path / "b" / "tails.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        run(tails_config(n=5000), out_dir=tmp_path / "a")
        run(tails_config(n=5000, seed=43), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "tails.csv").read_bytes() != \
               (tmp_path / "b" / "tails.csv").read_bytes()

    def test_config_hash_stable(self):
        cfg = tails_config()
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
        assert config_hash(cfg) != config_hash(tails_config(seed=1))

    def test_json_format(self, tmp_path):
        run(tails_config(format="json", n=2000), out_dir=tmp_path)
        doc = json.loads((tmp_path / "tails.json").read_text())
        assert doc["columns"][0] == "u"
        assert len(doc["rows"]) == 2

    def test_lemma_checks_outputs(self, tmp_path):
        manifest = run(lemma_config(), out_dir=tmp_path)
        assert set(manifest.outputs) == {"max_product_bound.csv",
                                         "double_jump_trend.csv"}
        trend = (tmp_path / "double_jump_trend.csv").read_text().splitlines()
        assert trend[1] == "n,closed_form,mc_value,stderr"

    def test_one_big_jump_outputs(self, tmp_path):
        cfg = {"kind": "one-big-jump", "seed": 5, "n": 800, "epsilon": 0.1,
               "levels": [2.0, 4.0], "grid_size": 32, "model": MODEL,
               "integrand": None, "format": "csv"}
        manifest = run(cfg, out_dir=tmp_path)
        assert "one_big_jump_sup.csv" in manifest.outputs
        text = (tmp_path / "one_big_jump_sup.csv").read_text()
        assert "n_conditioning" in text

    def test_paths_deterministic(self, tmp_path):
        cfg = {"kind": "paths", "seed": 7, "n_paths": 2, "grid_size": 32,
               "model": MODEL, "integrand": UNIT_Y, "format": "csv"}
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        for name in ("path_000.csv", "path_001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_paths_json_format(self, tmp_path):
        cfg = {"kind": "paths", "seed": 7, "n_paths": 1, "grid_size": 32,
               "model": MODEL, "integrand": UNIT_Y, "format": "json"}
        manifest = run(cfg, out_dir=tmp_path)
        assert list(manifest.outputs) == ["path_000.json"]
        doc = json.loads((tmp_path / "path_000.json").read_text())
        assert doc["columns"] == ["t", "x0", "y0", "w0", "w_approx0"]
        assert len(doc["rows"]) >= 33

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_runners_write_nothing(self, kind, fmt, tmp_path, monkeypatch):
        # a runner yields its tables and run writes them: the runner alone,
        # run in an empty directory, leaves it empty, and its stems are the
        # names of the files run writes
        config = dict({"tails": tails_config(n=200),
                       "breiman": breiman_config(),
                       "one-big-jump": obj_config(),
                       "tail-equivalence": tails_config(kind="tail-equivalence", n=200),
                       "lemma-checks": lemma_config(reps=1000, n_trials=1000),
                       "paths": dict(PATHS, n_paths=2)}[kind], format=fmt)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        tables = list(_KINDS[kind][1](parse(config), 1))
        assert list(work.iterdir()) == []
        manifest = run(config, out_dir=tmp_path / "out")
        assert tuple(f"{table[0]}.{fmt}" for table in tables) == manifest.outputs


class TestCli:
    def _write(self, tmp_path, cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_run_success(self, tmp_path, capsys):
        rc = cli.main(["run", self._write(tmp_path, tails_config(n=2000)),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert (tmp_path / "out" / "tails.csv").exists()
        assert manifest["seed"] == 42

    def test_validate_ok_and_errors(self, tmp_path, capsys):
        assert cli.main(["validate", self._write(tmp_path, tails_config())]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        bad = self._write(tmp_path, lemma_config(beta=0.4))
        assert cli.main(["validate", bad]) == 1
        assert "beta must lie in (1/2, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate", "--threads", "2"],
                                      ["validate", "--out-dir", "x"],
                                      ["paths", "--threads", "2"]],
                             ids=["validate-threads", "validate-out-dir", "paths-threads"])
    def test_subcommand_rejects_flags_it_ignores(self, tmp_path, argv):
        cfg = self._write(tmp_path, tails_config())
        with pytest.raises(SystemExit) as exc:
            cli.main(argv[:1] + [cfg] + argv[1:])
        assert exc.value.code == 2

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["validate", str(p)]) == 1
        assert "malformed config" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = self._write(tmp_path, tails_config(n=2000))
        assert cli.main(["run", cfg, "--seed", "7",
                         "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(["run", cfg, "--seed", "7",
                         "--out-dir", str(tmp_path / "b")]) == 0
        assert cli.main(["run", cfg, "--seed", "8",
                         "--out-dir", str(tmp_path / "c")]) == 0
        read = lambda d: (tmp_path / d / "tails.csv").read_bytes()
        assert read("a") == read("b") != read("c")

    @pytest.mark.parametrize("kind", ["tails", "tail-equivalence", "breiman",
                                      "lemma-checks", "one-big-jump"])
    def test_threads_write_identical_files(self, tmp_path, monkeypatch, kind):
        # five batches or chunks, so two threads share them; one-big-jump
        # ignores --threads
        monkeypatch.setattr(levy_sim, "_BATCH", 1000)
        monkeypatch.setattr(diagnostics, "_CHUNK", 1000)
        if kind == "one-big-jump":
            cfg = obj_config(n=300, model=MODEL_2D)
        elif kind == "breiman":
            cfg = breiman_config(n=4500, levels=[1.5, 2.0, 4.0])
        elif kind == "lemma-checks":
            # three entries of different n, each read through five chunks
            cfg = lemma_config(n_values=[10, 100, 1000], reps=4500, n_trials=4500)
        else:
            cfg = tails_config(kind=kind, n=4500, levels=[2.0, 5.0, 10.0],
                               model=dict(MODEL, diffusion=[[0.5]]), integrand=EXP_OU)
            if kind == "tails":
                cfg["n_mc_inner"] = 16
        path = self._write(tmp_path, cfg)
        for threads in ("1", "2"):
            assert cli.main(["run", path, "--threads", threads,
                             "--out-dir", str(tmp_path / threads)]) == 0
        files = lambda d: {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()
                           if p.name != "manifest.json"}
        assert files("1") and files("1") == files("2")

    def test_paths_subcommand(self, tmp_path):
        cfg = self._write(tmp_path, {"seed": 2, "grid_size": 32, "model": MODEL,
                                     "integrand": UNIT_Y})
        rc = cli.main(["paths", cfg, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "path_000.csv").exists()

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = self._write(tmp_path, tails_config(n=2000))
        rc = cli.main(["run", cfg, "--out-dir", str(blocker / "sub")])
        assert rc == 3

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        def boom(config, out_dir=".", threads=1):
            raise RuntimeError("simulated failure")
        monkeypatch.setattr(cli, "run", boom)
        rc = cli.main(["run", self._write(tmp_path, tails_config(n=100))])
        assert rc == 2


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_tails_example_validates(self):
        examples = [json.loads(block) for block in
                    re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)]
        tails = [config for config in examples if config.get("kind") == "tails"]
        assert len(tails) == 1
        assert validate(tails[0]) == []

    def test_key_table_names_every_kind(self):
        kinds = re.findall(r"^\| `([^`]+)` \|", README.read_text(), re.M)
        assert kinds == list(_KINDS)
