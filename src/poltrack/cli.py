"""Command-line interface.

Subcommands: ``run`` executes a config file, ``preset`` runs a named scenario,
``table`` emits the estimator-error table, ``summary`` recomputes statistics
from an emitted CSV, and ``config --print-defaults`` dumps the built-in
defaults.  Exit codes: 0 on success, 2 on configuration errors, 3 on runtime
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    PRESET_NAMES,
    ScenarioConfig,
    Summary,
    config_to_ini,
    emit_sample_size_table,
    parse_config,
    preset_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
    summarize,
    summary_to_text,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poltrack",
        description="Polarization-basis tracking simulator for BB84 QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p):
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--no-control", action="store_true", help="disable feedback control")
        p.add_argument(
            "--replicas", type=int, default=1,
            help="run N seed-varied instances concurrently",
        )

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", type=Path)
    add_run_options(p_run)

    p_preset = sub.add_parser("preset", help="run a named preset scenario")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--full", action="store_true", help="hardware-scale link and batch sizes")
    add_run_options(p_preset)

    p_table = sub.add_parser("table", help="emit the estimator-error sample-size table")
    p_table.add_argument("--mu", type=float, default=0.1)
    p_table.add_argument("--eta", type=float, default=0.1)
    p_table.add_argument("--qber", type=str, default="0.01,0.02,0.03",
                         help="comma-separated error rates")
    p_table.add_argument("--b", type=str,
                         default="250,500,1000,2500,5000,10000,25000,50000,100000",
                         help="comma-separated sample sizes")
    p_table.add_argument("--out", type=Path, default=Path("table.csv"))

    p_summary = sub.add_parser("summary", help="summarize an emitted series CSV")
    p_summary.add_argument("csv", type=Path)

    p_config = sub.add_parser("config", help="configuration helpers")
    p_config.add_argument("--print-defaults", action="store_true", required=True,
                          help="dump the built-in default config")
    return parser


def _write_run_outputs(out_dir: Path, cfg: ScenarioConfig) -> Summary:
    out_dir.mkdir(parents=True, exist_ok=True)
    series, summary = run_scenario(cfg)
    (out_dir / "series.csv").write_text(series_to_csv(series), encoding="utf-8")
    (out_dir / "summary.txt").write_text(summary_to_text(summary), encoding="utf-8")
    (out_dir / "config.resolved").write_text(config_to_ini(cfg), encoding="utf-8")
    return summary


def _run_replica(args: tuple[ScenarioConfig, Path]) -> Summary:
    cfg, out_dir = args
    return _write_run_outputs(out_dir, cfg)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute(cfg: ScenarioConfig, out_dir: Path, replicas: int) -> None:
    if replicas <= 1:
        summary = _write_run_outputs(out_dir, cfg)
        print(f"wrote {out_dir / 'series.csv'}")
        print(summary_to_text(summary), end="")
        return

    jobs = [
        (replace(cfg, seed=cfg.seed + i), out_dir / f"replica_{i:02d}")
        for i in range(replicas)
    ]
    # one worker per usable core at most; the replicas are CPU-bound
    with ProcessPoolExecutor(max_workers=min(replicas, _usable_cpus())) as pool:
        summaries = list(pool.map(_run_replica, jobs))
    lines = []
    for i, s in enumerate(summaries):
        lines.append(
            f"replica_{i:02d}: mean_qber = {s.mean_qber:.9g}  std_qber = {s.std_qber:.9g}"
        )
    grand = sum(s.mean_qber for s in summaries) / len(summaries)
    lines.append(f"mean_of_means = {grand:.9g}")
    (out_dir / "aggregate.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {replicas} replicas under {out_dir}")
    print("\n".join(lines))


def _run(cfg: ScenarioConfig, args: argparse.Namespace, default_out: Path) -> None:
    """Check the run flags, apply them to ``cfg`` and execute it.

    Every ``ScenarioConfig`` is checked when built; checking ``--seed`` here
    names the flag rather than ``scenario.seed``.
    """
    if args.replicas < 1:
        raise ConfigError("--replicas: must be at least 1")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        cfg = replace(cfg, seed=args.seed)
    if args.no_control:
        cfg = replace(cfg, control_enabled=False)
    _execute(cfg, args.out if args.out is not None else default_out, args.replicas)


def _grid(flag: str, text: str, convert) -> tuple:
    """The comma-separated values of a ``poltrack table`` grid flag."""
    try:
        return tuple(convert(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                text = args.config.read_text(encoding="utf-8")
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return 2
            _run(parse_config(text), args, Path(f"runs/{args.config.stem}"))
            return 0

        if args.command == "preset":
            _run(preset_config(args.name, full=args.full), args, Path(f"runs/{args.name}"))
            return 0

        if args.command == "table":
            qber_values = _grid("--qber", args.qber, float)
            b_values = _grid("--b", args.b, int)
            checks = (
                ("--mu", 0.0 < args.mu < math.inf, "must be positive and finite"),
                ("--eta", 0.0 < args.eta <= 1.0, "must be in (0, 1]"),
                ("--qber", all(0.0 <= q <= 1.0 for q in qber_values),
                 "every entry must be in [0, 1]"),
                ("--b", all(b >= 1 for b in b_values), "every entry must be at least 1"),
            )
            errors = [f"{flag}: {message}" for flag, ok, message in checks if not ok]
            if errors:
                raise ConfigError("\n".join(errors))
            emit_sample_size_table(args.mu, args.eta, qber_values, b_values, args.out)
            print(f"wrote {args.out}")
            return 0

        if args.command == "summary":
            series = series_from_csv(args.csv.read_text(encoding="utf-8"))
            print(summary_to_text(summarize(series)), end="")
            return 0

        if args.command == "config":  # --print-defaults is required
            print(config_to_ini(ScenarioConfig()), end="")
            return 0

        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
