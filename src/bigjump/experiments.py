"""Config-driven experiment campaigns with reproducible manifests.

A single JSON document describes one experiment (kind, model, integrand,
levels, replicate budget, seed, output format).  :func:`parse` turns it into
the typed spec of its kind in one step, with one reader for the top level and
every section: each key is read by one rule wherever it appears, and a section
such as ``model`` goes to the constructor of its variant.  It resolves every
default and reports every violated invariant at once.  :func:`validate`
returns those violations and :func:`run` runs the spec, so the two accept
exactly the same configs.  A kind's runner computes its output tables from the
spec alone and yields them; :func:`run` writes each as it comes, in the config's
format and with the config hash, and returns a manifest.  Rerunning with an
identical config and seed reproduces the estimate files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

import numpy as np

from . import __version__
from ._rng import scratch
from .diagnostics import (_MAX_LAM, RatioEstimate, TailEstimate, analytic_prediction,
                          breiman_ratio, double_jump_trend,
                          maximal_product_bound, one_big_jump_curve,
                          tail_equivalence)
from .levy_sim import (_MAX_GRID_SIZE, _MAX_N, ConstantIntegrand, DeterministicIntegrand,
                       ExpOUIntegrand, LevyModel, SimConfig, _pareto_radii,
                       batch_integral_functionals, one_jump_integral, simulate_integrand,
                       simulate_levy_path, stochastic_integral)
from .regvar import RegVarMeasure, _grid_index


class ValidationError(ValueError):
    """Carries the complete list of violated config invariants."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    version: str
    duration_seconds: float
    outputs: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "outputs": list(self.outputs)}


# ---------------------------------------------------------------------------
# The parse step: report all violations at once, never partially run
# ---------------------------------------------------------------------------

class _Invalid(Exception):
    """A value breaks its key's invariant; the message follows the key name."""


def _is_int(v) -> bool:
    # 64 bits, so that no float conversion or array size downstream overflows
    return isinstance(v, int) and not isinstance(v, bool) and -2 ** 63 <= v < 2 ** 63


def _is_real(v, ndim: int = 0) -> bool:
    """Whether ``v`` is ``ndim`` levels of lists around ints or floats with
    finite float values; an int too large for a float raises _Invalid."""
    if ndim:
        return isinstance(v, list) and all(_is_real(u, ndim - 1) for u in v)
    if isinstance(v, float):
        return math.isfinite(v)
    if not isinstance(v, int) or isinstance(v, bool):
        return False
    try:
        float(v)
    except OverflowError:
        raise _Invalid("must be a finite number") from None
    return True


def _reader(ok: Callable[[object], bool], message: str,
            convert: Callable = lambda v: v) -> Callable:
    def read(v):
        if not ok(v):
            raise _Invalid(message)
        return convert(v)
    return read


def _count(minimum: int) -> Callable:
    return _reader(lambda v: _is_int(v) and v >= minimum,
                   f"must be an integer in [{minimum}, 2**63)")


def _real(ok: Callable[[float], bool], message: str) -> Callable:
    return _reader(lambda v: _is_real(v) and ok(v), message, float)


_NUMBER = _real(lambda v: True, "must be a finite number")
_POSITIVE = _real(lambda v: v > 0, "must be positive")

# How each key is read, wherever it appears, sections included.
_READERS: dict[str, Callable] = {
    "kind": lambda v: v,  # parse checks it before choosing the schema
    "seed": _reader(_is_int, "must be an integer in [-2**63, 2**63)"),
    "format": _reader(lambda v: v in ("csv", "json"), "must be 'csv' or 'json'"),
    "grid_size": _reader(lambda v: _is_int(v) and 2 <= v <= _MAX_GRID_SIZE,
                         f"must be an integer in [2, {_MAX_GRID_SIZE}]"),
    "n": _count(1), "n_mc_inner": _count(1),
    "refinement": _count(0), "n_paths": _count(1), "epsilon": _POSITIVE,
    "t": _real(lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    # kept as given: tails and breiman write each level verbatim
    "levels": _reader(lambda v: isinstance(v, list) and v
                      and all(_is_real(u) and u > 0 for u in v)
                      and all(a < b for a, b in zip(v, v[1:])),
                      "must be a nonempty strictly increasing list of positive numbers", tuple),
    "alpha": _POSITIVE,
    "lam": _real(lambda v: 0 < v <= _MAX_LAM, f"must lie in (0, {_MAX_LAM:g}]"),
    "beta": _real(lambda v: 0.5 < v < 1, "must lie in (1/2, 1)"), "x_level": _POSITIVE,
    "n_values": _reader(lambda v: isinstance(v, list) and v
                        and all(_is_int(k) and k >= 1 for k in v),
                        "must be a nonempty list of integers in [1, 2**63)", tuple),
    "reps": _count(1), "n_trials": _count(1),
    "dimension": _count(1), "big_jump_intensity": _POSITIVE, "radial_alpha": _POSITIVE,
    "spectral": _reader(lambda v: isinstance(v, list) and all(
                            isinstance(a, dict) and set(a) == {"dir", "w"}
                            and _is_real(a["dir"], 1) and _is_real(a["w"]) for a in v),
                        "must be a list of atoms {dir: list of finite numbers, "
                        "w: finite number}", lambda v: [(a["dir"], a["w"]) for a in v]),
    "diffusion": _reader(lambda v: _is_real(v, 2), "must be a list of lists of finite numbers"),
    "drift": _reader(lambda v: _is_real(v, 1), "must be a list of finite numbers"),
    "value": _reader(lambda v: _is_real(v) or _is_real(v, 1),
                     "must be a finite number or a list of finite numbers"),
    "form": _reader(lambda v: v == "exp", "must be 'exp'"),
    "scale": _NUMBER, "rate": _NUMBER, "vol": _NUMBER, "initial": _NUMBER, "sigma": _POSITIVE,
}


def _relations(schema: dict, v: dict) -> list[str]:
    """Invariants tying keys together, checked on the keys that parsed."""
    errors = []
    model, integrand = v.get("model"), v.get("integrand")
    if model is not None and integrand is not None:
        dim = len(integrand.value) if isinstance(integrand, ConstantIntegrand) else 1
        if dim != model.dimension:
            errors.append(f"integrand dimension {dim} differs from model dimension "
                          f"{model.dimension}")
    if "t" in schema:  # the kinds that reduce the batch sampler's endpoint values
        if model is not None and model.dimension != 1:
            errors.append(f"{v['kind']} experiments support one-dimensional models only")
        if v.get("n") is not None and v["n"] > _MAX_N:
            errors.append(f"n must be an integer in [1, {_MAX_N}] for {v['kind']}")
        t, gs = v.get("t"), v.get("grid_size")
        if t is not None and gs is not None:
            try:
                _grid_index(t, gs)
            except ValueError as exc:
                errors.append(str(exc))
        levels = v.get("levels")
        if v["kind"] == "tails" and not errors and None not in (model, integrand, t, gs, levels):
            # the prediction _run_tails writes at the lowest level, its largest
            with np.errstate(over="ignore"):
                pred, = _tail_predictions(model, integrand, t, gs, levels[:1])
            if not np.isfinite(pred):
                errors.append(f"the limit prediction at level {levels[0]} overflows")
    return errors


def _read(schema: dict, obj, errors: list[str], where: str = "",
          known: Optional[frozenset] = None, build: Callable = SimpleNamespace):
    """What ``build`` makes of the keys ``schema`` reads from the mapping
    ``obj``, or None when a violation was appended to ``errors``."""
    if not isinstance(obj, dict):
        errors.append(f"{where or 'config'} must be a JSON object")
        return None
    prefix = f"{where}." if where else ""
    before = len(errors)
    values = {}
    for key, default in schema.items():
        raw = obj.get(key)
        if raw is None:
            if default is _REQUIRED:
                errors.append(f"{prefix}{key} is required")
            else:
                values[key] = default
        elif key in _SECTIONS:
            values[key] = _read_section(raw, errors, prefix + key, *_SECTIONS[key])
        else:
            try:
                values[key] = _READERS[key](raw)
            except _Invalid as exc:
                errors.append(f"{prefix}{key} {exc}")
    unknown = set(obj) - (known or set(schema))
    errors.extend(f"unknown key {prefix}{key}" for key in sorted(unknown))
    errors.extend(_relations(schema, values))
    if len(errors) > before:
        return None
    try:
        return build(**values)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        errors.append(f"{where} is invalid: {exc}")
        return None


def _read_section(obj, errors: list[str], where: str, selector: Optional[str],
                  variants: dict) -> object:
    """What the constructor of ``obj``'s variant builds from it, or None (see _read)."""
    # a non-object takes any schema, which rejects it
    variant = obj.get(selector) if isinstance(obj, dict) else next(iter(variants))
    if variant not in tuple(variants):  # a tuple, since variant may be unhashable
        errors.append(f"{where}.{selector} must be one of {', '.join(variants)}")
        return None
    schema, build = variants[variant]
    return _read(schema, obj, errors, where, frozenset(schema) | {selector}, build)


def parse(config: dict) -> SimpleNamespace:
    """The parsed spec of ``config``: every key of its kind as a typed value,
    defaults resolved.  Raises ValidationError with every violation.

    Besides the keys of its own kind, a config may hold keys that another
    kind reads; those are ignored, so ``bigjump paths`` runs any config that
    has the keys ``paths`` requires (a model and an integrand).
    """
    if not isinstance(config, dict):
        raise ValidationError(["config must be a JSON object"])
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError([f"kind must be one of {', '.join(_KINDS)}"])
    errors: list[str] = []
    spec = _read(_KINDS[kind][0], config, errors, known=_TOP_LEVEL_KEYS)
    if errors:
        raise ValidationError(errors)
    return spec


def validate(config: dict) -> list[str]:
    """Full invariant check without running; returns every violation."""
    try:
        parse(config)
    except ValidationError as exc:
        return exc.errors
    return []


# ---------------------------------------------------------------------------
# Output writing: repr floats for bit-stable reruns
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else str(v)  # str of a float is its repr


def _write_rows(out: Path, digest: str, fmt: str, stem: str, header: list[str],
                rows: list[list], note: str = "") -> str:
    """Write ``out/stem.fmt``; returns the file name."""
    path = out / f"{stem}.{fmt}"
    if fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(f"# config_hash={digest}\n")
            if note:
                fh.write(f"# {note}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        doc = {"config_hash": digest, "columns": header, "rows": rows}
        if note:
            doc["note"] = note
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path.name


def _ratio_rows(estimates: list[RatioEstimate]) -> list[list]:
    return [[e.u, e.ratio, e.stderr, e.numerator_hits, e.denominator_hits, e.n]
            for e in estimates]


_RATIO_HEADER = ["u", "ratio", "stderr", "numerator_hits", "denominator_hits", "n"]


# ---------------------------------------------------------------------------
# Runners: (spec, threads) -> generator of (stem, header, rows[, note]) tables
# ---------------------------------------------------------------------------

def _tail_predictions(model: LevyModel, integrand, t: float, grid_size: int, levels) -> list:
    """The limit prediction of P(W_t > u) at each level u: the limit measure is
    homogeneous, so one prediction at level 1 times u**-alpha serves all."""
    measure = model.induced_measure()
    mass = analytic_prediction(measure, integrand, t, 1.0, grid_size)
    return [float(mass * np.float64(u) ** -measure.alpha) for u in levels]


def _run_tails(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    hits = np.sum(batch_integral_functionals(
        spec.model, spec.integrand, spec.t, spec.n, spec.seed,
        lambda endpoint, _: [np.count_nonzero(endpoint > u) for u in spec.levels],
        grid_size=spec.grid_size, threads=threads, running_sup=False), axis=0)
    preds = _tail_predictions(spec.model, spec.integrand, spec.t, spec.grid_size,
                              spec.levels)
    rows = []
    for u, k, pred in zip(spec.levels, hits, preds):
        est = TailEstimate(float(u), spec.n, int(k))
        ratio = est.p_hat / pred if pred > 0 else None
        rows.append([u, pred, est.p_hat, est.stderr, est.hits, spec.n, ratio])
    yield "tails", ["u", "analytic", "p_hat", "stderr", "hits", "n", "ratio"], rows


def _run_breiman(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    x_sampler = lambda rng, out: _pareto_radii(rng, spec.breiman.alpha, out=out)
    ests = breiman_ratio(x_sampler, spec.breiman.y, spec.levels, spec.n, spec.seed,
                         threads)
    yield "breiman", _RATIO_HEADER, _ratio_rows(ests)


def _run_one_big_jump(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    sup_curve, jump_curve = one_big_jump_curve(
        spec.model, spec.integrand, spec.epsilon, spec.levels, spec.n, spec.seed,
        grid_size=spec.grid_size)
    for curve in (sup_curve, jump_curve):
        rows = [[u, None if e is None else e.p_hat, None if e is None else e.stderr,
                 0 if e is None else e.n]
                for u, e in zip(curve.levels, curve.estimates)]
        slope = curve.fitted_slope()
        note = (f"conditioning={curve.conditioning} epsilon={curve.epsilon} "
                f"slope={'' if slope is None else repr(slope)} "
                f"nonincreasing_trend={'' if slope is None else str(slope <= 0).lower()}")
        yield (f"one_big_jump_{curve.conditioning}",
               ["u", "estimate", "stderr", "n_conditioning"], rows, note)


def _run_tail_equivalence(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    ests = tail_equivalence(spec.model, spec.integrand, spec.t, spec.levels, spec.n,
                            spec.seed, grid_size=spec.grid_size, threads=threads)
    yield "tail_equivalence", _RATIO_HEADER, _ratio_rows(ests)


def _prefix_factors(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The lemma checks' predictable factors: 1 + min(1, (sum of the earlier
    entries of the row) / 10), in this thread's scratch buffer."""
    y = scratch("lemma.prefix", z.shape)
    y[:, 0] = 0.0
    np.cumsum(z[:, :-1], axis=1, out=y[:, 1:])
    y /= 10.0
    np.minimum(1.0, y, out=y)
    y += 1.0
    return y


def _run_lemma_checks(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    sec = spec.lemma_checks
    alpha, lam = sec.alpha, sec.lam
    z_sampler = lambda rng, out: _pareto_radii(rng, alpha, out=out)
    rows = []
    for label, y_builder in (("unit", lambda z, mask: 1.0), ("prefix", _prefix_factors)):
        lhs, rhs = maximal_product_bound(
            lambda rng, size: rng.poisson(lam, size), y_builder, z_sampler,
            sec.n_trials, sec.x_level, spec.seed, threads)
        margin = 3.0 * np.hypot(lhs.stderr, 2.0 * rhs.stderr)
        rows.append([label, lhs.u, lhs.p_hat, lhs.stderr, rhs.p_hat, rhs.stderr,
                     str(lhs.p_hat <= 2.0 * rhs.p_hat + margin).lower()])
    yield ("max_product_bound", ["y_construction", "x", "lhs", "lhs_stderr", "rhs",
                                 "rhs_stderr", "within_bound"], rows)

    measure = RegVarMeasure(alpha, lam, [([1.0], 1.0)])
    trend = double_jump_trend(measure, lam, sec.beta, sec.n_values, sec.reps, spec.seed,
                              threads)
    yield ("double_jump_trend", ["n", "closed_form", "mc_value", "stderr"],
           [[p.n, p.closed_form, p.mc_value, p.stderr] for p in trend])


def _run_paths(spec: SimpleNamespace, threads: int) -> Iterator[tuple]:
    header = ["t"] + [f"{name}{k}" for name in ("x", "y", "w", "w_approx")
                      for k in range(spec.model.dimension)]
    for rep in range(spec.n_paths):
        cfg = SimConfig(spec.grid_size, spec.seed, rep)
        x = simulate_levy_path(spec.model, cfg)
        y = simulate_integrand(spec.integrand, cfg, times=x.jump_times)
        w = stochastic_integral(y, x)
        wa = one_jump_integral(y, x)
        # x, y and w share one grid, the uniform grid and x's jump times
        rows = np.hstack([w.grid[:, None], x.values, y.values, w.values,
                          wa._sides_at(w.grid)[1]]).tolist()
        yield f"path_{rep:03d}", header, rows


# What each kind reads: key -> default or _REQUIRED.  An absent key and null
# both take the default.
_REQUIRED = object()
_COMMON = {"kind": _REQUIRED, "seed": _REQUIRED, "format": "csv"}
_SIMULATION = {**_COMMON, "model": _REQUIRED, "integrand": _REQUIRED, "grid_size": 512}
_TAIL_EQUIVALENCE = {**_SIMULATION, "levels": _REQUIRED, "n": _REQUIRED, "t": 1.0}

# kind -> (schema, runner); error messages list the kinds in this order.
_KINDS: dict[str, tuple[dict, Callable[[SimpleNamespace, int], Iterator[tuple]]]] = {
    "tails": ({**_TAIL_EQUIVALENCE, "n_mc_inner": 2048}, _run_tails),
    "breiman": ({**_COMMON, "levels": _REQUIRED, "n": _REQUIRED, "breiman": _REQUIRED},
                _run_breiman),
    "one-big-jump": ({**_SIMULATION, "integrand": None, "grid_size": 256,
                      "levels": _REQUIRED, "n": _REQUIRED, "epsilon": _REQUIRED,
                      "refinement": 4}, _run_one_big_jump),
    "tail-equivalence": (_TAIL_EQUIVALENCE, _run_tail_equivalence),
    "lemma-checks": ({**_COMMON, "lemma_checks": _REQUIRED}, _run_lemma_checks),
    "paths": ({**_SIMULATION, "n_paths": _REQUIRED}, _run_paths),
}
_TOP_LEVEL_KEYS = frozenset(key for schema, _ in _KINDS.values() for key in schema)


# The breiman.y variants build ``BatchSampler``s, which fill their ``out`` in place.
def _const_y(value) -> Callable:
    if np.ndim(value) or not value > 0:
        raise ValueError("value must be a positive number")
    return lambda rng, out: out.fill(float(value))


def _lognormal_y(sigma: float) -> Callable:
    def fill(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.standard_normal(out=out)
        out *= sigma
        np.exp(out, out=out)
    return fill


# How each section is read: key -> (the key that names its variant, None for
# a single variant; variant -> (schema, constructor)).  The constructor takes
# the schema's keys as keyword arguments.
_SECTIONS: dict[str, tuple[Optional[str], dict]] = {
    "model": (None, {None: ({"dimension": _REQUIRED, "big_jump_intensity": _REQUIRED,
                             "radial_alpha": _REQUIRED, "spectral": _REQUIRED,
                             "diffusion": None, "drift": None}, LevyModel)}),
    "integrand": ("variant", {
        "constant": ({"value": _REQUIRED}, ConstantIntegrand),
        "deterministic": ({"form": _REQUIRED, "scale": _REQUIRED, "rate": _REQUIRED},
                          lambda form, scale, rate: DeterministicIntegrand(scale, rate)),
        "exp_ou": ({"rate": _REQUIRED, "vol": _REQUIRED, "initial": _REQUIRED},
                   ExpOUIntegrand)}),
    "breiman": (None, {None: ({"alpha": _REQUIRED, "y": _REQUIRED}, SimpleNamespace)}),
    "y": ("kind", {"const": ({"value": _REQUIRED}, _const_y),
                   "lognormal": ({"sigma": _REQUIRED}, _lognormal_y)}),
    "lemma_checks": (None, {None: ({
        "alpha": _REQUIRED, "lam": _REQUIRED, "beta": 0.75, "x_level": _REQUIRED,
        "n_values": _REQUIRED, "reps": _REQUIRED, "n_trials": _REQUIRED}, SimpleNamespace)}),
}


def run(config: dict, out_dir: str | Path = ".", threads: int = 1) -> RunManifest:
    """Parse, write each table the kind's runner yields, then a manifest.json."""
    spec = parse(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)
    start = time.perf_counter()
    outputs = tuple(_write_rows(out, digest, spec.format, *table)
                    for table in _KINDS[spec.kind][1](spec, threads))
    manifest = RunManifest(digest, spec.seed, __version__,
                           time.perf_counter() - start, outputs)
    (out / "manifest.json").write_text(json.dumps(manifest.to_dict(), indent=1),
                                       encoding="utf-8")
    return manifest
