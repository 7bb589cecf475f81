"""``python -m repro.perf`` — hot-path throughput benchmark.

Times records/second for a scheme × workload matrix and writes
``BENCH_hotpath.json`` (JSON, see :func:`repro.perf.harness.run_benchmark`
for the schema) so the throughput trajectory is tracked across PRs.
``--engine`` selects the engine mode being timed (all modes produce
bit-identical simulation results; only wall time differs).

``--compare OLD.json NEW.json`` switches to A/B mode: no benchmark runs,
the two payloads are diffed cell by cell with a noise band (``--noise``)
so only real regressions/improvements are flagged.

``--count-ops`` runs each cell once under opcode tracing and prints the
bytecodes and Python calls per record, per layer (see
:mod:`repro.perf.opcount`): counts that do not drift with host speed.

``--smoke`` runs a tiny record budget — it exists for CI, where the point
is catching hot-path regressions loudly and cheaply, not producing stable
absolute numbers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.dramcache.variants import available_scheme_names
from repro.perf.compare import (
    DEFAULT_NOISE,
    compare_payloads,
    format_comparison,
    load_payload,
)
from repro.perf.harness import (
    DEFAULT_NUM_CORES,
    DEFAULT_RECORDS_PER_CORE,
    DEFAULT_SCALE,
    DEFAULT_SCHEMES,
    DEFAULT_WORKLOADS,
    BenchCell,
    run_benchmark,
    validate_matrix,
    write_report,
)
from repro.perf.opcount import count_ops, format_opcount
from repro.sim.engine import DEFAULT_ENGINE_MODE, ENGINE_MODES
from repro.workloads.registry import available_workloads

SMOKE_RECORDS_PER_CORE = 500
DEFAULT_OUTPUT = "BENCH_hotpath.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark per-record simulation throughput (records/sec).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "available schemes and variants:\n  "
            + "\n  ".join(available_scheme_names())
            + "\n\navailable workloads:\n  "
            + "\n  ".join(available_workloads())
            + "\n  trace:<path>.rtrace (replay a captured trace, "
            "see python -m repro.trace)"
        ),
    )
    parser.add_argument("--schemes", nargs="+", default=None,
                        help=f"schemes or variants to time (default: {' '.join(DEFAULT_SCHEMES)}; "
                             "see the list below, validated before any cell runs)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help=f"workloads to time (default: {' '.join(DEFAULT_WORKLOADS)}; "
                             "registry names or trace:<path> replays)")
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS_PER_CORE,
                        help=f"trace records per core per cell (default {DEFAULT_RECORDS_PER_CORE})")
    parser.add_argument("--cores", type=int, default=DEFAULT_NUM_CORES,
                        help=f"simulated cores (default {DEFAULT_NUM_CORES})")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=f"workload footprint scale (default {DEFAULT_SCALE})")
    parser.add_argument("--engine", choices=list(ENGINE_MODES), default=DEFAULT_ENGINE_MODE,
                        help=f"engine mode to time (default {DEFAULT_ENGINE_MODE}; all modes "
                             "are bit-identical, only wall time differs)")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per cell; best time is reported (default 3)")
    parser.add_argument("--preset", choices=["scaled", "tiny", "paper"], default="scaled",
                        help="system configuration preset (default scaled)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI smoke mode: {SMOKE_RECORDS_PER_CORE} records/core, 1 repeat")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each cell (one extra untimed run) and report the "
                             "hottest functions by cumulative time")
    parser.add_argument("--profile-top", type=int, default=15, metavar="N",
                        help="functions to keep per profile (default 15)")
    parser.add_argument("--quiet", action="store_true", help="suppress the per-cell table")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                        help="compare two benchmark payloads cell by cell instead of "
                             "running a benchmark; ratios outside the noise band are flagged")
    parser.add_argument("--count-ops", action="store_true",
                        help="instead of timing, run each cell once under opcode tracing and "
                             "print bytecodes and Python calls per record, per layer")
    parser.add_argument("--noise", type=float, default=DEFAULT_NOISE, metavar="FRAC",
                        help=f"half-width of the --compare noise band (default {DEFAULT_NOISE})")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            report = compare_payloads(
                load_payload(old_path), load_payload(new_path), noise=args.noise
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_comparison(report, old_path, new_path))
        return 0
    records = args.records
    repeats = args.repeats
    if args.smoke:
        records = min(records, SMOKE_RECORDS_PER_CORE)
        repeats = 1

    def progress(cell: BenchCell) -> None:
        if not args.quiet:
            print(
                f"{cell.scheme:10s} {cell.workload:10s} "
                f"{cell.records:>8d} rec  {cell.best_seconds:8.3f} s  "
                f"{cell.records_per_sec:>12,.0f} rec/s  "
                f"gen {cell.generation_fraction:5.1%}"
            )

    schemes = args.schemes if args.schemes else list(DEFAULT_SCHEMES)
    workloads = args.workloads if args.workloads else list(DEFAULT_WORKLOADS)
    try:
        # Only name validation is caught here: a failure mid-benchmark is a
        # bug and should surface with its traceback, not a two-line error.
        validate_matrix(schemes, workloads, records_per_core=records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.count_ops:
        for scheme in schemes:
            for workload in workloads:
                print(format_opcount(count_ops(
                    scheme, workload, records, num_cores=args.cores, scale=args.scale,
                    seed=args.seed, preset=args.preset, engine_mode=args.engine,
                )))
        return 0

    if not args.quiet:
        print(f"# hot-path benchmark: {records} records/core, "
              f"{args.cores} cores, {repeats} repeat(s), preset={args.preset}, "
              f"engine={args.engine}")
    payload = run_benchmark(
        schemes=schemes,
        workloads=workloads,
        records_per_core=records,
        num_cores=args.cores,
        scale=args.scale,
        seed=args.seed,
        repeats=repeats,
        preset=args.preset,
        progress=progress,
        profile_top=args.profile_top if args.profile else None,
        engine_mode=args.engine,
    )
    write_report(payload, args.output)
    aggregate = payload["aggregate"]
    print(
        f"geomean {aggregate['geomean_records_per_sec']:,.0f} rec/s over "
        f"{len(payload['cells'])} cells "
        f"({aggregate['total_records']} records in {aggregate['total_wall_seconds']:.1f} s)"
    )
    for name, split in payload["workload_time_split"].items():
        print(
            f"  {name}: generation {split['generation_seconds']:.3f} s, "
            f"simulation {split['simulation_seconds']:.3f} s "
            f"({split['generation_fraction']:.1%} generating records)"
        )
    if "profile" in payload:
        print(f"\n# top {payload['profile']['top']} functions by cumulative time "
              "(summed over all cells)")
        print(f"{'cumtime':>9s} {'tottime':>9s} {'ncalls':>10s}  function")
        for row in payload["profile"]["functions"]:
            print(f"{row['cumtime']:9.3f} {row['tottime']:9.3f} "
                  f"{row['ncalls']:>10d}  {row['function']}")
    print(f"wrote {args.output}")
    return 0
