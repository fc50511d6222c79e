"""Traced `bigjump` run: spans around every layer's public functions.

    python3 bench/tracer.py SUMMARY.json SPANS.jsonl run CONFIG --out-dir DIR

The wrappers are installed from here, outside the package: each wrapped
function (and ``CadlagPath.__post_init__``, one span per path built) is
replaced by a wrapper in every ``bigjump`` module that bound it, so calls
through ``from .x import f`` names are traced too.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 at the top).  Spans stay in memory until the run ends; then all of
them go to SPANS.jsonl and a per-name summary to SUMMARY.json.

The run is single-threaded (the benchmark traces at ``--threads 1``), so one
stack of open spans is enough.  ``tracemalloc`` runs only inside the calls
whose peak allocation is reported, since tracing every allocation would slow
the per-replicate Python code several times over.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time
import tracemalloc

# (module, function) pairs wrapped in the traced run, by layer.
TARGETS = (
    ("_rng", "substream"),
    ("levy_sim", "simulate_big_jumps"),
    ("levy_sim", "simulate_small_part"),
    ("levy_sim", "assemble_levy_path"),
    ("levy_sim", "simulate_integrand"),
    ("levy_sim", "stochastic_integral"),
    ("levy_sim", "one_jump_integral"),
    ("levy_sim", "batch_integral_functionals"),
    ("cadlag", "sup_norm"),
    ("cadlag", "uniform_distance"),
    ("cadlag", "one_step_approx"),
    ("cadlag", "j1_within"),
    ("regvar", "weighted_one_step_mass"),
    ("diagnostics", "one_big_jump_curve"),
    ("diagnostics", "analytic_prediction"),
    ("diagnostics", "breiman_ratio"),
    ("diagnostics", "maximal_product_bound"),
    ("diagnostics", "double_jump_trend"),
    ("diagnostics", "tail_equivalence"),
    ("experiments", "validate"),
    ("experiments", "run"),
    ("cli", "main"),
)
PATH_SPAN = "cadlag.CadlagPath"
PEAK_TRACED = ("levy_sim.batch_integral_functionals", "diagnostics.breiman_ratio")
DRAWS = "regvar.weighted_one_step_mass.draws"


class Tracer:
    """Span recorder; ``install`` swaps the package's functions for wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.peak_mb: dict[str, float] = {}
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
        return wrapper

    def _with_peak(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
        return wrapper

    def _counting_draws(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(measure, integrand_sampler, *args, **kwargs):
            def sampler(rng):
                counters[DRAWS] += 1
                return integrand_sampler(rng)
            return fn(measure, sampler, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        import bigjump.cli  # noqa: F401 - loads every layer
        from bigjump.cadlag import CadlagPath

        modules = [m for n, m in sys.modules.items()
                   if n == "bigjump" or n.startswith("bigjump.")]
        for mod_name, fn_name in TARGETS:
            orig = getattr(importlib.import_module(f"bigjump.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            fn = orig
            if name in PEAK_TRACED:
                fn = self._with_peak(name, fn)
            if name == "regvar.weighted_one_step_mass":
                fn = self._counting_draws(fn)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        CadlagPath.__post_init__ = self._wrap(PATH_SPAN, CadlagPath.__post_init__)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; per (name,
        parent name): calls and seconds; every J1 decision's duration."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: collections.Counter = collections.Counter()
        incl: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        by_parent: dict[str, list] = {}
        j1_ms = []
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child_s[i]
            key = f"{name}<{spans[parent][0] if parent >= 0 else ''}"
            entry = by_parent.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += dur
            if name == "cadlag.j1_within":
                j1_ms.append(dur * 1e3)
        return {"calls": dict(calls), "s": dict(incl), "self_s": dict(self_s),
                "by_parent": by_parent, "j1_within_ms": j1_ms,
                "peak_mb": self.peak_mb, "counters": dict(self.counters),
                "spans": len(spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    import bigjump.cli
    code = bigjump.cli.main(cli_args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
