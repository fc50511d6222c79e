"""Command-line entry point.

Subcommands:
    run <config.json>       run the experiment described by the config
    validate <config.json>  check the config without running
    paths <config.json>     dump sample trajectories for plotting

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ValidationError, run, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bigjump",
                                     description="heavy-tail simulation and verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "paths"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name != "validate":
            p.add_argument("--out-dir", default=".")
        if name == "run":
            p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(f"cannot read config: {exc}", EXIT_IO)
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail(f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                     EXIT_VALIDATION)
    if isinstance(config, dict):  # anything else fails validation below
        if args.seed is not None:
            config["seed"] = args.seed
        if args.command == "paths":
            config["kind"] = "paths"
            config.setdefault("n_paths", 4)

    if args.command == "validate":
        errors = validate(config)
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        print("ok")
        return EXIT_OK

    threads = getattr(args, "threads", 1)
    if threads < 1:
        return _fail("--threads must be >= 1", EXIT_VALIDATION)
    try:
        manifest = run(config, out_dir=args.out_dir, threads=threads)
    except ValidationError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        return _fail(f"I/O failure: {exc}", EXIT_IO)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit code 2
        return _fail(f"runtime failure: {exc}", EXIT_RUNTIME)
    print(json.dumps(manifest.to_dict(), indent=1))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
