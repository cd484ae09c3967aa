"""Command line interface.

Subcommands:
  skorokhod   solve one deterministic Skorokhod problem from a path file
  simulate    emit one scheme trajectory
  converge    Euler convergence study across partition levels -> errors.csv
  compare     Yosida / modified-Yosida comparison against fine Euler -> errors.csv
  verify      randomized property suite -> JSON report

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NonConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


@functools.cache  # parse_args leaves the parser as it was; in-process callers share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsde",
        description="Skorokhod problems and jump SDEs driven by maximal "
                    "monotone operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--trajectories", type=int, default=None,
                       help="trajectory count override")
        p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                       help="output format override")
        p.add_argument("--workers", type=int, default=None,
                       help="worker process count override")

    p = sub.add_parser("skorokhod", help="solve one deterministic problem from a path file")
    common(p)
    p.add_argument("--path", required=True, help="input step path (csv or jsonl)")
    p.add_argument("--substeps", type=int, default=None, help="flow substeps override")

    p = sub.add_parser("simulate", help="emit one scheme trajectory")
    common(p)
    p.add_argument("--scheme", choices=("euler", "yosida", "modified_yosida"),
                   default="euler")
    p.add_argument("--trajectory", type=int, default=0,
                   help="trajectory index: the realization is compare's row of it on the finest "
                        "level, not the restriction of converge's reference row")
    p.add_argument("--level", type=int, default=None,
                   help="partition level (default: finest configured)")
    p.add_argument("--yosida-n", type=float, default=None,
                   help="stiffness level for Yosida schemes (default: finest configured)")

    p = sub.add_parser("converge", help="Euler convergence study")
    common(p)

    p = sub.add_parser("compare", help="compare schemes on shared realizations")
    common(p)

    p = sub.add_parser("verify", help="randomized property suite")
    common(p)
    p.add_argument("--samples", type=int, default=2000,
                   help="random samples per property")

    return parser


def _load(args) -> ExperimentConfig:
    level, n = getattr(args, "level", None), getattr(args, "yosida_n", None)
    return load_config(
        args.config, seed=args.seed, out_dir=args.out, trajectories=args.trajectories,
        format=args.format, workers=args.workers, flow_substeps=getattr(args, "substeps", None),
        levels=None if level is None else (level,),
        yosida_levels=None if n is None else (n,),
    )


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_components(cfg, out_path, components: dict, meta: dict):
    from .paths import write_step_path_csv, write_step_path_jsonl

    with open(out_path, "w", encoding="utf-8") as fh:
        formatted = {}  # csv columns equal to the previous component's are formatted once
        for i, (name, path) in enumerate(components.items()):
            # the first component carries the meta, and in csv the header
            if cfg.format == "csv":
                write_step_path_csv(path, fh, name, None if i else meta, header=not i,
                                    formatted=formatted)
            else:
                write_step_path_jsonl(path, fh, name, None if i else meta)


def _cmd_skorokhod(args) -> int:
    from .config import build_operator, build_projection
    from .paths import read_step_path_csv, read_step_path_jsonl
    from .skorokhod import solve_step

    cfg = _load(args)
    op = build_operator(cfg.operator)
    proj = build_projection(cfg.projection)
    read = read_step_path_jsonl if args.path.endswith(".jsonl") else read_step_path_csv
    # a malformed file, or a path the operator cannot take (its dimension, a
    # y_0 outside the domain, a step too short to resolve), is bad input
    with open(args.path, "r", encoding="utf-8") as fh:
        try:
            sol = solve_step(op, proj, read(fh), flow_substeps=cfg.flow_substeps)
        except ValueError as exc:
            raise ConfigError("--path", str(exc)) from exc
    out_dir = _ensure_out(cfg)
    out_path = os.path.join(out_dir, f"solution.{cfg.format}")
    meta = {"operator": json.dumps(cfg.operator, sort_keys=True),
            "projection": json.dumps(cfg.projection, sort_keys=True),
            "flow_substeps": cfg.flow_substeps}
    components = {"x": sol.x, "k": sol.k.total, "kc": sol.k.continuous, "kd": sol.k.jump}
    _write_components(cfg, out_path, components, meta)
    print(out_path)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    """One scheme run on trajectory ``--trajectory`` of ``levels[-1]``.  Its driver
    realization is the one the ``compare`` study simulates for that trajectory,
    as both sample ``levels[-1]`` directly.  ``converge`` reads ``levels[-1]``
    off its finer reference grid instead, which equals it only at the times
    that are nodes of both bridge trees (``drivers``)."""
    from .drivers import simulate
    from .harness import _Context
    from .paths import uniform_partition

    if not 0 <= args.trajectory < 2**64:  # the stream keys an index modulo 2**64
        raise ConfigError("--trajectory", "must lie in [0, 2**64)")
    cfg = _load(args)
    ctx = _Context(cfg)
    # validate bounds the jumps on the finer reference grid; simulate samples on levels[-1]
    cfg.check_jumps(ctx.driver, cfg.levels[-1])
    part = uniform_partition(cfg.horizon, cfg.levels[-1])
    realization = simulate(ctx.driver, part, cfg.seed, args.trajectory)
    out = ctx.run_scheme(args.scheme, realization)
    out_dir = _ensure_out(cfg)
    out_path = os.path.join(out_dir, f"trajectory_{out.scheme}.{cfg.format}")
    meta = {
        "scheme": out.scheme,
        "params": json.dumps(out.params, sort_keys=True),
        "seed": cfg.seed,
        "trajectory": args.trajectory,
        "operator": json.dumps(cfg.operator, sort_keys=True),
        "projection": json.dumps(cfg.projection, sort_keys=True),
        "coefficient": json.dumps(cfg.coefficient, sort_keys=True),
    }
    _write_components(cfg, out_path, {"x": out.x, "k": out.k.total}, meta)
    print(out_path)
    return EXIT_OK


def _cmd_study(args) -> int:
    from .harness import compare_schemes, run_convergence

    cfg = _load(args)
    table = (run_convergence if args.command == "converge" else compare_schemes)(cfg)
    out_path = os.path.join(_ensure_out(cfg), "errors.csv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table.to_csv())
    print(out_path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .harness import verify_suite

    if args.samples < 1:
        raise ConfigError("--samples", "must be >= 1")
    cfg = _load(args)
    report = verify_suite(cfg, samples=args.samples)
    text = json.dumps({name: res.as_dict() for name, res in sorted(report.items())},
                      indent=2, sort_keys=True)
    print(text)
    with open(os.path.join(_ensure_out(cfg), "verify.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


_COMMANDS = {
    "skorokhod": _cmd_skorokhod,
    "simulate": _cmd_simulate,
    "converge": _cmd_study,
    "compare": _cmd_study,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
