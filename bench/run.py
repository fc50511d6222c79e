"""bigjump benchmark: `bigjump run` workloads, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from ``src``
(no install needed).  Workloads and why each exists are in ``workloads.py``.
The workload seed sets the configs' Monte Carlo seeds; the program only sees
the generated config files.  Every child runs one at a time (closed loop) and
uses at most two threads.

``--trace 0`` (end to end, untraced) prints

- ``setup_s``: median wall time of fresh ``bigjump validate`` processes on the
  workload's configs (interpreter start, import, JSON parse, validation),
  after one untimed warm-up;
- ``run_s`` / ``run_2t_s``: wall time of the workload's ``bigjump run``
  children at ``--threads 1`` / ``--threads 2``, process start to exit,
  summed over its configs; the 1t/2t pair runs once, then repeats on fresh
  samples (the next config seeds, see ``workloads.py``) while another pair
  fits in ``--seconds``, and the medians are reported;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the ``--threads 1`` children;
- ``ops_ok_frac``: operations that succeeded over operations attempted.

``--trace 1`` runs the configs untraced and then under ``tracer.py``, and
prints the per-layer numbers of the first traced pass and ``cli.import_s``.
The untraced/traced pass pair repeats while another fits in ``--seconds``;
the tracing overhead is the median over the pairs of traced over untraced
wall time, minus one, floored at 0 (a faster traced pass is noise).

An operation is one ``validate`` or ``run`` child.  It fails if it exits
non-zero, if its estimate files fail the check (on the default seed's first
pass: the golden digests in ``golden.json``, recorded once from the seed
program; at
any seed: finite values, probabilities in [0, 1], conditioning hits at the
lowest level), if its ``--threads 2`` files differ from its ``--threads 1``
files, or if traced files differ from untraced ones.  The last stdout line is
the result JSON; the line before it records the machine.  Every timed sample,
spans and per-child details stay under ``.bench_run``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS, configs  # noqa: E402

DEADLINE_S = 170.0
SETUP_REPEATS = 6
IMPORT_REPEATS = 3
# Columns that may drift in the last bits (the analytic prediction and the
# ratio derived from it); compared at this relative tolerance.
TOLERANT = {"tails.csv": ("analytic", "ratio")}
REL_TOL = 1e-10
PROBABILITY_COLUMNS = {"estimate", "p_hat", "lhs", "rhs"}
TEXT_COLUMNS = {"y_construction", "within_bound"}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str


class Runner:
    """Starts children one at a time, each killed at the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def child(self, args: list[str], log: Path) -> Child:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Child(-1, 0.0, 0.0, "")
        with log.open("w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                                    stderr=err, env=self.env, cwd=ROOT, text=True)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out)

    def cli(self, *args: str, log: Path) -> Child:
        return self.child(["-m", "bigjump.cli", *args], log)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def estimate_files(out_dir: Path) -> dict[str, bytes]:
    """Every output file except the manifest (which holds a duration)."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def _table(data: bytes) -> tuple[list[str], list[str], list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows[0], rows[1:]


def sanity_problems(files: dict[str, bytes]) -> list[str]:
    """Checks that hold at every seed."""
    if not files:
        return ["no estimate files"]
    problems = []
    for name, data in files.items():
        _, header, body = _table(data)
        if not body:
            problems.append(f"{name}: no rows")
        for row in body:
            for col, cell in zip(header, row):
                if cell == "" or col in TEXT_COLUMNS:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    problems.append(f"{name}: {col}={cell!r} is not a number")
                    continue
                if not math.isfinite(v):
                    problems.append(f"{name}: {col}={cell} is not finite")
                elif col in PROBABILITY_COLUMNS and not 0.0 <= v <= 1.0:
                    problems.append(f"{name}: {col}={cell} outside [0, 1]")
        if name.startswith("one_big_jump_") and body:
            if int(body[0][header.index("n_conditioning")]) <= 0:
                problems.append(f"{name}: no conditioning hits at the lowest level")
    return problems


def fingerprint(name: str, data: bytes) -> dict:
    """SHA-256 of the file, with tolerant columns blanked and kept as floats."""
    cols = TOLERANT.get(name)
    if not cols:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    comments, header, body = _table(data)
    idx = [header.index(c) for c in cols]
    values = {c: [float(row[i]) if row[i] else None for row in body] for c, i in zip(cols, idx)}
    for row in body:
        for i in idx:
            row[i] = ""
    canon = "\n".join(comments + [",".join(r) for r in [header] + body])
    return {"sha256": hashlib.sha256(canon.encode()).hexdigest(), "tolerant": values}


def golden_problems(expected: dict, files: dict[str, bytes]) -> list[str]:
    if sorted(expected) != sorted(files):
        return [f"files {sorted(files)} != golden {sorted(expected)}"]
    problems = []
    for name, data in files.items():
        got, want = fingerprint(name, data), expected[name]
        if got["sha256"] != want["sha256"]:
            problems.append(f"{name}: digest differs from golden")
        for col, vals in want.get("tolerant", {}).items():
            for a, b in zip(got["tolerant"][col], vals):
                if (a is None) != (b is None) or (b is not None and not math.isclose(
                        a, b, rel_tol=REL_TOL, abs_tol=0.0)):
                    problems.append(f"{name}: {col}={a!r} vs golden {b!r}")
    return problems


def output_problems(workload: str, cfg_name: str, files: dict[str, bytes],
                    golden: dict, golden_seed: bool) -> list[str]:
    problems = sanity_problems(files)
    if golden_seed:
        expected = golden.get(workload, {}).get(cfg_name)
        if expected is None:
            problems.append("no golden digests recorded")
        else:
            problems += golden_problems(expected, files)
    return problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Ledger:
    """Every operation with its timing, and the reason for each failure."""

    def __init__(self):
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def op(self, label: str, child: Child, problems: list[str]) -> bool:
        if child.code == -1 and child.wall_s == 0.0:
            problems = ["not started: deadline passed"] + problems
        elif child.code != 0:
            problems = [f"exit code {child.code}"] + problems
        self.ops.append({"op": label, "wall_s": child.wall_s, "maxrss_mb": child.maxrss_mb,
                         "problems": problems})
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems


def plain_run(runner: Runner, name: str, path: Path, out_root: Path,
              threads: int) -> tuple[str, Child, dict[str, bytes]]:
    out_root.mkdir(exist_ok=True)
    child = runner.cli("run", str(path), "--threads", str(threads),
                       "--out-dir", str(out_root / name), log=out_root / f"{name}.log")
    return name, child, estimate_files(out_root / name)


def traced_run(runner: Runner, name: str, path: Path, out_root: Path
               ) -> tuple[str, Child, dict[str, bytes], dict | None]:
    """`run --threads 1` under tracer.py, with the tracer's summary."""
    out_root.mkdir(exist_ok=True)
    summary = out_root / f"{name}.summary.json"
    child = runner.child([str(BENCH / "tracer.py"), str(summary),
                          str(out_root / f"{name}.spans.jsonl"), "run", str(path),
                          "--threads", "1", "--out-dir", str(out_root / name)],
                         out_root / f"{name}.log")
    data = json.loads(summary.read_text(encoding="utf-8")) if child.code == 0 else None
    return name, child, estimate_files(out_root / name), data


def run_pass(runner: Runner, cfg_paths: list[tuple[str, Path]], out_root: Path,
             threads: int) -> list[tuple[str, Child, dict[str, bytes]]]:
    return [plain_run(runner, name, path, out_root, threads) for name, path in cfg_paths]


def window_full(started: float, reps: int, seconds: float) -> bool:
    """True when another pass of the average length would end after the window."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / reps > seconds


def measure_end_to_end(runner: Runner, ledger: Ledger, workload: str, seed: int,
                       cfg_paths: list[tuple[str, Path]], seconds: float, work: Path,
                       golden: dict, samples: dict) -> dict:
    logs = work / "logs"
    logs.mkdir()
    runner.cli("validate", str(cfg_paths[0][1]), log=logs / "warmup.log")
    setup = []
    for k in range(SETUP_REPEATS):
        name, path = cfg_paths[k % len(cfg_paths)]
        child = runner.cli("validate", str(path), log=logs / f"validate{k}.log")
        ok = ledger.op(f"validate {name}", child,
                       [] if child.stdout.strip() == "ok" else ["did not print ok"])
        if ok:
            setup.append(child.wall_s)

    run_1t, run_2t, rss = [], [], []
    started = time.perf_counter()
    rep = 0
    while True:
        paths = cfg_paths if rep == 0 else write_configs(configs(workload, seed, rep),
                                                          work / f"r{rep}")
        one = run_pass(runner, paths, work / f"r{rep}_1t", 1)
        two = run_pass(runner, paths, work / f"r{rep}_2t", 2)
        pass_ok = True
        for (name, c1, f1), (_, c2, f2) in zip(one, two):
            pass_ok &= ledger.op(f"run {name} 1t", c1, output_problems(
                workload, name, f1, golden, seed == DEFAULT_SEED and rep == 0))
            pass_ok &= ledger.op(f"run {name} 2t", c2,
                                 [] if f2 == f1 else ["--threads 2 files differ from 1t"])
        run_1t.append(sum(c.wall_s for _, c, _ in one))
        run_2t.append(sum(c.wall_s for _, c, _ in two))
        rss.append(max(c.maxrss_mb for _, c, _ in one))
        rep += 1
        if not pass_ok or window_full(started, rep, seconds):
            break

    samples.update(setup_s=setup, run_s=run_1t, run_2t_s=run_2t)
    metrics = {}
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    if run_1t:
        metrics["run_s"] = (statistics.median(run_1t), "s")
        metrics["run_2t_s"] = (statistics.median(run_2t), "s")
        metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


def _quantile_ms(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(summaries: list[dict], cond: tuple[float, float], output_bytes: int,
                  import_s: float, overhead: float) -> dict:
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    by_parent: dict[str, list] = {}
    peak: dict[str, float] = {}
    counters: dict[str, int] = {}
    j1_ms: list[float] = []
    for s in summaries:
        for src, dst in ((s["calls"], calls), (s["s"], incl), (s["self_s"], self_s),
                         (s["counters"], counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (c, t) in s["by_parent"].items():
            entry = by_parent.setdefault(k, [0, 0.0])
            entry[0] += c
            entry[1] += t
        for k, v in s["peak_mb"].items():
            peak[k] = max(peak.get(k, 0.0), v)
        j1_ms += s["j1_within_ms"]

    def total(*names: str) -> float:
        return float(sum(incl.get(n, 0.0) for n in names))

    def under(name: str, parent: str) -> list:
        return by_parent.get(f"{name}<{parent}", [0, 0.0])

    integrand = "levy_sim.simulate_integrand"
    in_curve = under(integrand, "diagnostics.one_big_jump_curve")
    in_mass = under(integrand, "regvar.weighted_one_step_mass")
    return {
        "rng.substream.calls": (calls.get("_rng.substream", 0), "count"),
        "rng.substream.s": (total("_rng.substream"), "s"),
        "levy_sim.replicate_sim.s": (total("levy_sim.simulate_big_jumps",
                                           "levy_sim.simulate_small_part",
                                           "levy_sim.assemble_levy_path"), "s"),
        "levy_sim.simulate_integrand.calls": (calls.get(integrand, 0), "count"),
        "levy_sim.simulate_integrand.s": (total(integrand), "s"),
        "levy_sim.simulate_integrand.curve.calls": (in_curve[0], "count"),
        "levy_sim.simulate_integrand.curve.s": (in_curve[1], "s"),
        "levy_sim.simulate_integrand.weighted_mass.calls": (in_mass[0], "count"),
        "levy_sim.simulate_integrand.weighted_mass.s": (in_mass[1], "s"),
        "levy_sim.integral.s": (total("levy_sim.stochastic_integral",
                                      "levy_sim.one_jump_integral"), "s"),
        "levy_sim.batch_integral_functionals.s":
            (total("levy_sim.batch_integral_functionals"), "s"),
        "levy_sim.batch_integral_functionals.peak_mb":
            (peak.get("levy_sim.batch_integral_functionals", 0.0), "MB"),
        "cadlag.paths_built": (calls.get("cadlag.CadlagPath", 0), "count"),
        "cadlag.paths_built.s": (total("cadlag.CadlagPath"), "s"),
        "cadlag.functionals.s": (total("cadlag.sup_norm", "cadlag.uniform_distance",
                                       "cadlag.one_step_approx"), "s"),
        "cadlag.j1_within.calls": (calls.get("cadlag.j1_within", 0), "count"),
        "cadlag.j1_within.s": (total("cadlag.j1_within"), "s"),
        "cadlag.j1_within.p50_ms": (_quantile_ms(j1_ms, 0.5), "ms"),
        "cadlag.j1_within.p90_ms": (_quantile_ms(j1_ms, 0.9), "ms"),
        "regvar.weighted_one_step_mass.s": (total("regvar.weighted_one_step_mass"), "s"),
        "regvar.weighted_one_step_mass.draws":
            (counters.get("regvar.weighted_one_step_mass.draws", 0), "count"),
        "diagnostics.one_big_jump_curve.self_s":
            (self_s.get("diagnostics.one_big_jump_curve", 0.0), "s"),
        "diagnostics.cond_sup_frac": (cond[0], "ratio"),
        "diagnostics.cond_jump_frac": (cond[1], "ratio"),
        "diagnostics.analytic_prediction.self_s":
            (self_s.get("diagnostics.analytic_prediction", 0.0), "s"),
        "diagnostics.reductions.s": (total("diagnostics.breiman_ratio",
                                           "diagnostics.maximal_product_bound",
                                           "diagnostics.double_jump_trend",
                                           "diagnostics.tail_equivalence"), "s"),
        "diagnostics.breiman_ratio.peak_mb": (peak.get("diagnostics.breiman_ratio", 0.0), "MB"),
        "experiments.validate.s": (total("experiments.validate"), "s"),
        "experiments.run.self_s": (self_s.get("experiments.run", 0.0), "s"),
        "experiments.output_bytes": (output_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def conditioning_fractions(cfgs: list[tuple[str, dict]],
                           files: dict[str, dict[str, bytes]]) -> tuple[float, float]:
    """Lowest-level n_conditioning / n of the one-big-jump configs."""
    hits = {"sup": 0, "jump": 0}
    n = 0
    for name, cfg in cfgs:
        if cfg["kind"] != "one-big-jump":
            continue
        n += cfg["n"]
        for label in hits:
            data = files[name].get(f"one_big_jump_{label}.csv")
            if data is not None:
                _, header, body = _table(data)
                hits[label] += int(body[0][header.index("n_conditioning")])
    return (hits["sup"] / n, hits["jump"] / n) if n else (0.0, 0.0)


def measure_layers(runner: Runner, ledger: Ledger, workload: str, seed: int,
                   cfgs: list[tuple[str, dict]], cfg_paths: list[tuple[str, Path]],
                   seconds: float, work: Path, golden: dict, samples: dict) -> dict:
    logs = work / "logs"
    logs.mkdir()
    # the first import is a warm-up (bytecode caches)
    imports = [runner.child(["-c", "import bigjump"], logs / f"import{k}.log")
               for k in range(IMPORT_REPEATS + 1)][1:]
    ratios, first = [], None
    started = time.perf_counter()
    rep = 0
    while True:
        plain, traced = [], []
        for name, path in cfg_paths:
            # each traced run right after its untraced twin, so drifts in
            # machine speed touch both alike
            plain.append(plain_run(runner, name, path, work / f"r{rep}_untraced", 1))
            traced.append(traced_run(runner, name, path, work / f"r{rep}_traced"))
        pass_ok = True
        for (name, c1, f1), (_, ct, ft, _) in zip(plain, traced):
            pass_ok &= ledger.op(f"run {name} untraced", c1, output_problems(
                workload, name, f1, golden, seed == DEFAULT_SEED))
            pass_ok &= ledger.op(f"run {name} traced", ct,
                                 [] if ft == f1 else ["traced files differ from untraced"])
        if not pass_ok:
            return {}
        if first is None:
            first = ([s for *_, s in traced], {name: f for name, _, f in plain})
        ratios.append(sum(c.wall_s for _, c, _, _ in traced) /
                      sum(c.wall_s for _, c, _ in plain))
        rep += 1
        if window_full(started, rep, seconds):
            break
    if any(c.code != 0 for c in imports):
        return {}
    samples.update(traced_over_untraced=ratios)
    summaries, files = first
    return layer_metrics(summaries, conditioning_fractions(cfgs, files),
                         sum(len(b) for f in files.values() for b in f.values()),
                         statistics.median(c.wall_s for c in imports),
                         max(0.0, statistics.median(ratios) - 1.0))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = ""
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def load_1min() -> float | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def write_configs(cfgs: list[tuple[str, dict]], work: Path) -> list[tuple[str, Path]]:
    (work / "cfg").mkdir(parents=True)
    paths = []
    for name, cfg in cfgs:
        path = work / "cfg" / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        paths.append((name, path))
    return paths


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bigjump" / "__init__.py").is_file():
        print(f"error: no bigjump sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    runner = Runner(time.monotonic() + DEADLINE_S)
    facts = machine_facts()
    facts["load_1min_start"] = load_1min()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    work = fresh_dir(WORK / args.workload)
    cfgs = configs(args.workload, args.seed)
    cfg_paths = write_configs(cfgs, work)
    ledger = Ledger()
    samples: dict = {}
    if args.trace:
        metrics = measure_layers(runner, ledger, args.workload, args.seed, cfgs, cfg_paths,
                                 args.seconds, work, golden, samples)
    else:
        metrics = measure_end_to_end(runner, ledger, args.workload, args.seed, cfg_paths,
                                     args.seconds, work, golden, samples)
        metrics["ops_ok_frac"] = (1.0 - len(ledger.failures) / max(len(ledger.ops), 1),
                                  "ratio")
    facts["load_1min_end"] = load_1min()

    failed = len(ledger.failures)
    result = {"correct": failed == 0 and bool(metrics), "attempted": max(len(ledger.ops), 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "machine": facts, "ops": ledger.ops, "samples": samples, **result}, indent=1),
        encoding="utf-8")
    for failure in ledger.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
