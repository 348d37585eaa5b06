"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro features                 # Table I
    python -m repro validate                 # Fig. 2
    python -m repro fig3 --configs C1,C6     # Fig. 3 (subset)
    python -m repro fig4                     # Fig. 4
    python -m repro fig5                     # Fig. 5
    python -m repro fig6                     # Fig. 6
    python -m repro faults --seed 1234       # fault-injection campaign
    python -m repro trace characterize examples/sample_msr.csv
    python -m repro trace replay examples/sample_msr.csv --precondition steady
    python -m repro trace sweep examples/sample_msr.csv --configs C1,C6
    python -m repro trace convert trace.blkparse trace.txt --to native
    python -m repro ftl schemes
    python -m repro ftl sweep --schemes pagemap,dftl --workers 4
    python -m repro tenants run --tenants 3 --policy wrr
    python -m repro run --config ssd.cfg --workload SW --commands 1000
    python -m repro profile --workload SR --trace-out trace.json
    python -m repro calibrate --check        # fit + verify --fidelity fast
    python -m repro explore --configs C1,C2,C6,C8
    python -m repro campaign run camp/ --experiment fig3 --workers 4
    python -m repro campaign report camp/ --where "latency_us.p99<=2000"
    python -m repro reliability run rel/ --replicas 64 --workers 4
    python -m repro report --out report.md   # everything, as markdown

Every subcommand prints the same rows/series the paper's tables and
figures report.  Each shared job has one helper: ``_architecture``
loads ``--config`` (fast levels calibrated), ``_iozone`` and
``_trace_workload`` build the workloads, ``runner_from_args`` builds
every sweep or campaign runner, ``cmd_experiment`` runs fig3/fig4/fig5
standalone or as a campaign, ``_finish`` is the output tail of every
fan-out command (with ``--json``, stdout is exactly one document), and
``main`` turns user-input errors into a one-line exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import (CampaignError, DesignSpaceExplorer, ResourceCostModel,
                   SweepPoint, SweepRunner, TABLE2_LABELS,
                   calibrated_fidelity, faults_campaign, fig3_sweep,
                   fig4_sweep, fig5_wearout_sweep, print_progress,
                   render_breakdown_table, render_columns, render_json,
                   render_series_table, render_speed_table, render_table,
                   render_validation_table, run_validation, speed_sweep,
                   table2_configs, table3_configs,
                   verify_ssdexplorer_column)
from .core.calibrate import DEFAULT_CACHE_DIR
from .host.workload import IOZONE_SUITE
from .kernel import load_file
from .ssd import SsdArchitecture, from_config

#: What ``main`` reports as one line instead of a traceback: unreadable
#: files (OSError), invalid input (ValueError — TraceError and
#: ConfigError refine it — is how the trace, config, tenant, FTL and
#: constraint layers reject what they are given) and campaign
#: directories or sweeps that cannot deliver every point (CampaignError).
USER_ERRORS = (OSError, ValueError, CampaignError)


def _csv(text: str, kind=str) -> list:
    """A comma-separated option value, parsed item by item."""
    return [kind(part.strip()) for part in text.split(",") if part.strip()]


def _parse_configs(text: Optional[str]) -> List[str]:
    if not text:
        return list(TABLE2_LABELS)
    names = _csv(text)
    unknown = [name for name in names if name not in TABLE2_LABELS]
    if unknown:
        raise SystemExit(f"unknown configurations: {unknown}; "
                         f"choose from {sorted(TABLE2_LABELS)}")
    return names


# ----------------------------------------------------------------------
# Shared options


def add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-engine flags shared by every fan-out subcommand."""
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = all cores, 1 = serial)")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="result cache directory (also honors "
                             "REPRO_SWEEP_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore cached results, re-simulate every "
                             "point")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="per-point time budget in seconds "
                             "(0 = unlimited); a point over budget is "
                             "recorded as failed, not crashed")
    parser.add_argument("--campaign", type=str, default="",
                        help="run through a durable campaign directory "
                             "(leased work-queue + SQLite result store); "
                             "resumable, shareable between workers — see "
                             "'repro campaign'")


def add_fidelity_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fidelity", type=str, default="",
        help='abstraction level: "cycle" (default), "fast", or a '
             'per-subsystem spec like "fast,dram=cycle"; fast paths '
             'use calibrated parameters (see "repro calibrate")')


def _add_json(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", action="store_true",
                        help=f"emit {what} as JSON")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default="",
                        help="architecture config file (flat or JSON)")


def _add_configs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--configs", type=str, default="",
                        help="comma-separated subset of C1..C10")


def _add_iozone_options(parser: argparse.ArgumentParser,
                        commands: int) -> None:
    """``--config`` plus the IOZONE workload that ``_iozone`` builds."""
    _add_config(parser)
    parser.add_argument("--workload", type=str, default="SW",
                        help="SW | SR | RW | RR")
    parser.add_argument("--commands", type=int, default=commands)
    parser.add_argument("--block", type=int, default=4096)
    parser.add_argument("--warm", action="store_true",
                        help="warm-start the write cache")


def _add_trace_file(parser: argparse.ArgumentParser,
                    default: str = "") -> None:
    """The trace positional (optional when it has a ``default``) and
    ``--format``."""
    if default:
        parser.add_argument("trace", nargs="?", default=default,
                            help="trace file (default: the bundled sample)")
    else:
        parser.add_argument("trace", help="trace file (any format)")
    parser.add_argument("--format", type=str, default="auto",
                        help="native | msr | blkparse | auto")


def _add_replay_options(parser: argparse.ArgumentParser,
                        precondition: bool = True) -> None:
    """The replay flags that ``_trace_workload`` reads."""
    parser.add_argument("--commands", type=int, default=0,
                        help="replay only the first N records (0 = all)")
    parser.add_argument("--closed-loop", action="store_true",
                        help="ignore trace issue times; saturate the "
                             "queue (Fig. 3/4 regime)")
    if precondition:
        parser.add_argument("--precondition", type=str, default="none",
                            choices=["none", "fill", "steady"],
                            help="warm-up before measuring: fill the "
                                 "addressed region / fill + random "
                                 "overwrites (steady state)")


def _add_tenant_options(parser: argparse.ArgumentParser) -> None:
    """The tenant-mix flags that ``_tenant_specs_from_args`` reads."""
    parser.add_argument("--tenants", type=int, default=3,
                        help="synthetic tenant count (varied workload "
                             "shapes, escalating weights)")
    parser.add_argument("--policy", type=str, default="rr",
                        choices=("rr", "wrr"),
                        help="arbitration policy")
    parser.add_argument("--commands", type=int, default=0,
                        help="commands per tenant (0 = default 48)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="open-loop arrival rate per tenant in "
                             "IOPS (0 = closed loop, saturating)")
    parser.add_argument("--isolate", action="store_true",
                        help="give each tenant a disjoint channel "
                             "subset (namespace->channel pinning)")
    parser.add_argument("--trace", type=str, default="",
                        help="append a trace-replay tenant (implies "
                             "paced arrivals for the synthetic "
                             "tenants)")
    _add_json(parser, "the result")


def _add_campaign_run_options(parser: argparse.ArgumentParser,
                              name: str) -> None:
    """The campaign-runner flags of ``campaign run`` and ``reliability
    run`` (``name`` is the campaign id ``--name`` defaults to)."""
    parser.add_argument("dir",
                        help="campaign directory (created if missing)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = all cores)")
    parser.add_argument("--name", type=str, default="",
                        help=f"campaign id in the store (default: {name})")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="per-point time budget in seconds (0 = none)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """The result-store flags of ``campaign query`` and ``campaign
    report``."""
    parser.add_argument("dir", help="campaign directory")
    parser.add_argument("--metric", type=str, default="ssd_cache_mbps",
                        help="dotted payload path, e.g. latency_us.p99")
    parser.add_argument("--where", action="append", default=[],
                        metavar="CONSTRAINT",
                        help='constraint, e.g. "latency_us.p99<=2000" '
                             "(repeatable)")
    _add_json(parser, "the answer")


def _add_reliability_metric(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", type=str, default="failed_rate",
                        choices=["failed_rate", "uber"],
                        help="stopping-rule / frontier reliability metric")


# ----------------------------------------------------------------------
# Loading: architecture, workloads, runner


def _configured(args: argparse.Namespace) -> SsdArchitecture:
    """The architecture ``--config`` names (default: the stock drive)."""
    return (from_config(load_file(args.config)) if args.config
            else SsdArchitecture())


def _sweep_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """``--cache-dir``, else ``REPRO_SWEEP_CACHE_DIR``, else None."""
    return (getattr(args, "cache_dir", "")
            or os.environ.get("REPRO_SWEEP_CACHE_DIR", "")) or None


def _calibration_dir(args: argparse.Namespace) -> str:
    """Where the CLI keeps the calibration fit: ``calibration/`` in the
    campaign directory, else in :func:`_sweep_cache_dir`, else the
    default ``.sweep-cache/calibration``."""
    root = (getattr(args, "campaign", "") or getattr(args, "dir", "")
            or _sweep_cache_dir(args))
    return os.path.join(root, "calibration") if root else DEFAULT_CACHE_DIR


def _calibrated(spec, args: argparse.Namespace,
                arch: Optional[SsdArchitecture] = None):
    """:func:`calibrated_fidelity` with the fit in
    :func:`_calibration_dir` (fitted afresh and kept nowhere under
    ``--no-cache``)."""
    cache_dir = (None if getattr(args, "no_cache", False)
                 else _calibration_dir(args))
    return calibrated_fidelity(spec, arch, cache_dir=cache_dir)


def _architecture(args: argparse.Namespace) -> SsdArchitecture:
    """:func:`_configured`, dialed to ``--fidelity`` where the subcommand
    has one, else to the config's own ``fidelity.*`` keys.  Fast levels
    run calibrated either way."""
    arch = _configured(args)
    return arch.with_fidelity(_calibrated(
        getattr(args, "fidelity", "") or arch.fidelity, args, arch))


def _iozone(args: argparse.Namespace, arch: SsdArchitecture):
    """The ``--workload`` IOZONE workload and its ``arch/WORKLOAD``
    label."""
    name = args.workload.upper()
    factory = IOZONE_SUITE.get(name)
    if factory is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(IOZONE_SUITE)}")
    return (factory(4096 * args.commands, block_bytes=args.block),
            f"{arch.label}/{name}")


def _trace_workload(args: argparse.Namespace):
    """The trace replay the trace/replay options describe (the file is
    hashed here, so a missing trace fails before anything runs)."""
    from .core.tracereplay import TraceWorkload
    return TraceWorkload.from_file(
        args.trace, fmt=args.format,
        honor_issue_times=not args.closed_loop,
        time_scale=getattr(args, "time_scale", 1.0),
        wrap=not getattr(args, "no_wrap", False),
        precondition=getattr(args, "precondition", "none"),
        max_commands=args.commands or None)


def runner_from_args(args: argparse.Namespace, quiet: bool = False,
                     name: str = ""):
    """Build the sweep/campaign runner an argparse namespace describes.

    With ``--campaign DIR`` the points run through a durable
    :class:`~repro.core.campaign.CampaignRunner` under the campaign id
    ``"campaign"``.  ``campaign run`` and ``reliability run`` drain into
    their ``dir`` under ``--name`` (default ``name``).  Otherwise a plain
    :class:`SweepRunner`.  Progress lines are off with ``quiet``,
    ``--quiet`` or ``--json`` (the JSON document is all of stdout).
    """
    quiet = (quiet or getattr(args, "quiet", False)
             or getattr(args, "json", False))
    progress = None if quiet else print_progress
    cache_dir = _sweep_cache_dir(args)
    no_cache = getattr(args, "no_cache", False)
    workers = getattr(args, "workers", 1) or None   # 0 -> all cores
    timeout = getattr(args, "timeout", 0.0) or None  # 0 -> unlimited
    directory = getattr(args, "dir", "")
    name = getattr(args, "name", "") or name
    if getattr(args, "campaign", ""):
        if no_cache:
            raise SystemExit("--campaign and --no-cache are contradictory: "
                             "a campaign IS its durable result cache")
        if cache_dir is not None:
            raise SystemExit("--campaign keeps results inside the campaign "
                             "directory; drop --cache-dir")
        directory, name = args.campaign, "campaign"
    if directory:
        from .core import CampaignRunner
        return CampaignRunner(directory, workers=workers, name=name,
                              progress=progress, timeout_s=timeout)
    return SweepRunner(workers=workers,
                       cache_dir=None if no_cache else cache_dir,
                       progress=progress, timeout_s=timeout)


# ----------------------------------------------------------------------
# Output


def _print_summary(runner: SweepRunner, json_mode: bool = False) -> int:
    """Print the sweep summary (not under ``--json``: stdout is the
    document) and any failed points (stderr); nonzero when a point
    failed."""
    if runner.last_summary is not None and not json_mode:
        print(runner.last_summary.format())
    result = runner.last_result
    if result is not None and result.summary.failed:
        print(result.format_failures(), file=sys.stderr)
        return 1
    return 0


def _finish(args: argparse.Namespace, runner: SweepRunner, text: str,
            document=None, failed: bool = False) -> int:
    """The output tail of every fan-out command.

    With ``--json`` stdout is exactly ``document`` (the runner ran
    quiet); otherwise ``text`` followed by the sweep summary.  The exit
    code is nonzero when a point failed or ``failed`` says a declared
    check (analytic WAF, reliability failures) did not hold.
    """
    json_mode = getattr(args, "json", False)
    print(render_json(document) if json_mode else text)
    status = _print_summary(runner, json_mode)
    return 1 if failed else status


def _print_result(payload: dict) -> None:
    """The throughput / IOPS / latency / utilization lines of a measured
    payload (``run`` and ``trace replay``)."""
    latency = payload["latency_us"]
    print(f"throughput   : {payload['sustained_mbps']:.1f} MB/s sustained "
          f"({payload['throughput_mbps']:.1f} full-span)")
    print(f"IOPS         : {payload['iops']:.0f}")
    print(f"latency      : mean {latency['mean']:.1f} us, "
          f"p50 {latency['p50']:.1f}, p95 {latency['p95']:.1f}, "
          f"p99 {latency['p99']:.1f}")
    for name, value in payload["utilizations"].items():
        print(f"utilization  : {name:<10} {value:6.1%}")


def _matrix(title: str, names: List[str], cells: List[List[float]]) -> str:
    return title + "\n" + render_columns(
        [("", "<8")] + [(name, ">9.3f") for name in names],
        ([name] + list(row) for name, row in zip(names, cells)),
        sep="", rule=False)


# ----------------------------------------------------------------------
# Paper experiments


def cmd_features(args: argparse.Namespace) -> int:
    print(render_table())
    print()
    results = verify_ssdexplorer_column()
    failing = [name for name, ok in results.items() if not ok]
    if failing:
        print(f"MISSING capabilities: {failing}")
        return 1
    print(f"All {len(results)} claimed SSDExplorer capabilities verified.")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    points = run_validation(n_commands=args.commands,
                            runner=runner_from_args(args, quiet=True))
    print(render_validation_table(points))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """fig3 | fig4 | fig5 as a sweep, or as ``campaign run --experiment``
    (which adds ``adaptive``: fast screen + cycle promotion on fig3)."""
    runner = runner_from_args(args, name=args.experiment)
    if args.experiment == "adaptive":
        from .core import adaptive_fig3
        text = adaptive_fig3(n_commands=args.commands,
                             configs=_parse_configs(args.configs),
                             budget_fraction=args.budget,
                             runner=runner,
                             fast_fidelity=_calibrated("fast", args)
                             ).format()
    elif args.experiment == "fig5":
        steps = getattr(args, "steps", 10)   # campaign run: the default
        text = render_series_table(fig5_wearout_sweep(
            fractions=[i / steps for i in range(steps + 1)],
            n_commands=args.commands, runner=runner,
            fidelity=_calibrated(args.fidelity, args)))
    else:
        sweep = fig3_sweep if args.experiment == "fig3" else fig4_sweep
        text = render_breakdown_table(sweep(
            n_commands=args.commands, configs=_parse_configs(args.configs),
            runner=runner, fidelity=_calibrated(args.fidelity, args)))
    return _finish(args, runner, text)


def cmd_faults(args: argparse.Namespace) -> int:
    runner = runner_from_args(args)
    rows = faults_campaign(n_commands=args.commands, seed=args.seed,
                           runner=runner)
    failures = (runner.last_result.failures()
                if runner.last_result is not None else [])
    document = {
        "seed": args.seed,
        "commands": args.commands,
        "rows": rows,
        "failed_points": [
            {"name": outcome.name,
             "error_type": outcome.failure.error_type,
             "message": outcome.failure.message}
            for outcome in failures],
    }
    table = render_columns(
        [("point", "<20"), ("MB/s", ">7.1f"), ("retries", ">8d"),
         ("ret/read", ">9.3f"), ("uncorr", ">7d"), ("retired", ">8d"),
         ("remaps", ">7d"), ("failed", ">7d"), ("UBER", ">10.2e")],
        (f"{name:<20} FAILED {row['error_type']}: {row['message']}"
         if row.get("status") == "failed" else
         [name, row["sustained_mbps"], row["read_retries"],
          row["retries_per_read"], row["uncorrectable_reads"],
          row["retired_blocks"], row["remapped_programs"],
          row["failed_commands"], row["uber"]]
         for name, row in rows.items()))
    return _finish(args, runner, table, document)


def cmd_fig6(args: argparse.Namespace) -> int:
    samples = speed_sweep(table3_configs(), n_commands=args.commands)
    print(render_speed_table(samples))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    arch = _architecture(args)
    workload, label = _iozone(args, arch)
    runner = runner_from_args(args, quiet=True)
    outcome = runner.run([SweepPoint(
        name=label, arch=arch, workload=workload, evaluator="measure",
        params={"warm_start": args.warm, "label": label})]).outcomes[0]
    if outcome.failed:
        print(f"run FAILED: {outcome.failure.error_type}: "
              f"{outcome.failure.message}", file=sys.stderr)
        if outcome.failure.traceback:
            print(outcome.failure.traceback, file=sys.stderr)
        return 1
    payload = outcome.payload
    if args.json:
        payload = dict(payload)
        payload["architecture"] = arch.label
        payload["host"] = arch.host.name
        payload["cached"] = outcome.cached
        print(render_json(payload))
        return 0
    print(f"architecture : {arch.label}")
    print(f"host         : {arch.host.name}")
    print(f"workload     : {args.workload.upper()} x {args.commands} "
          f"({args.block} B blocks)")
    _print_result(payload)
    if outcome.cached:
        print("(result served from the sweep cache)")
    return 0


def _write_chrome_trace(recorder, path: str) -> None:
    """Export the span recorder as a Chrome trace; the notice goes to
    stderr so a ``--json`` document on stdout stays parseable."""
    from .obs import write_chrome_trace
    write_chrome_trace(recorder, path)
    print(f"chrome trace written to {path} "
          f"(load in ui.perfetto.dev or chrome://tracing)", file=sys.stderr)


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one workload with span observability on and print where the
    time went (per-stage breakdown, component activity, bottleneck
    report, per-channel utilization sparklines)."""
    from .core.experiments import profile_point
    from .obs import render_profile
    arch = _architecture(args)
    workload, label = _iozone(args, arch)
    result, recorder, timelines = profile_point(
        arch, workload, n_commands=args.commands, warm_start=args.warm,
        label=label, buckets=args.buckets)
    if args.json:
        print(render_json({
            "label": label,
            "commands": recorder.commands_completed,
            "sustained_mbps": result.sustained_mbps,
            "stage_breakdown": result.stage_breakdown,
            "component_breakdown": recorder.component_breakdown(),
            "busiest_tracks": recorder.busiest_tracks(args.top),
            "timelines": timelines,
        }))
    else:
        print(f"architecture : {arch.label}")
        print(f"workload     : {args.workload.upper()} x {args.commands} "
              f"({args.block} B blocks)")
        print(f"throughput   : {result.sustained_mbps:.1f} MB/s sustained")
        print()
        print(render_profile(recorder, timelines, top_k=args.top))
    if args.trace_out:
        _write_chrome_trace(recorder, args.trace_out)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit (or show) the fast-fidelity parameters; optionally check the
    fast fig3/fig5 error against the golden files."""
    from .core import calibrate, fidelity_error_report
    result = calibrate(_configured(args),
                       cache_dir=_calibration_dir(args),
                       use_cache=not args.no_cache)
    report = None
    if args.check:
        report = fidelity_error_report(result.to_fidelity(),
                                       bound=args.bound)
    if args.json:
        document = {"calibration": result.to_dict(),
                    "cached": result.cached}
        if report is not None:
            document["report"] = report
        print(render_json(document))
    else:
        print(f"dram_overhead_ps : {result.dram_overhead_ps}")
        print(f"dram_ps_per_byte : {result.dram_ps_per_byte:.3f}")
        print(f"cpu_cycles       : {result.cpu_cycles}")
        print("(served from the calibration cache)" if result.cached
              else "(fitted from fresh cycle-accurate probes)")
        if report is not None:
            print(f"fast vs golden   : max error "
                  f"{report['max_rel_error']:.2%} "
                  f"({report['max_metric']}), "
                  f"bound {report['bound']:.0%}")
    if report is not None and not report["within_bound"]:
        print("ERROR: fast fidelity exceeds the declared error bound",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core import generate_report
    configs = _parse_configs(args.configs) if args.configs else None
    text = generate_report(n_commands=args.commands, configs=configs,
                           include_fig4=not args.skip_fig4,
                           include_reliability=not args.skip_reliability,
                           include_ftl=not args.skip_ftl,
                           reliability_replicas=args.reliability_replicas,
                           runner=runner_from_args(args, quiet=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .host import sequential_write
    names = _parse_configs(args.configs)
    candidates = {name: arch for name, arch in table2_configs().items()
                  if name in names}
    explorer = DesignSpaceExplorer(cost_model=ResourceCostModel(),
                                   max_commands=args.commands)
    runner = runner_from_args(args)
    result = explorer.explore(candidates,
                              sequential_write(4096 * args.commands),
                              runner=runner)
    lines = [render_breakdown_table({p.name: p.row for p in result.points}),
             "", f"target: {result.target_mbps:.1f} MB/s"]
    for point in result.points:
        flag = "meets target" if point.meets_target else "below target"
        lines.append(f"  {point.name:<4} cost {point.cost:7.0f}  "
                     f"{point.measured_mbps:8.1f} MB/s  ({flag})")
    optimal = result.optimal
    if optimal is not None:
        lines.append(f"optimal design point: {optimal.name} "
                     f"({optimal.arch.label})")
    else:
        lines.append("no point meets the target; cheapest near-best: "
                     f"{result.cheapest_within().name}")
    return _finish(args, runner, "\n".join(lines))


# ----------------------------------------------------------------------
# repro trace …


def cmd_trace_characterize(args: argparse.Namespace) -> int:
    """Stream the trace once and print its characterization report."""
    from .host.traces import (characterize, format_profile, iter_trace,
                              limit_records)
    records = limit_records(iter_trace(args.trace, fmt=args.format),
                            args.limit or None)
    profile = characterize(records)
    if args.json:
        print(render_json({"trace": args.trace,
                           "profile": profile.to_dict()}))
    else:
        print(format_profile(profile, source=args.trace))
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a trace through one architecture: characterization table +
    RunResult summary (optionally with span observability on)."""
    from .core.tracereplay import replay_trace
    from .host.traces import format_profile
    workload = _trace_workload(args)
    arch = _architecture(args)
    recorder = None
    if args.trace_out:
        from .obs import enable_observability
        recorder = enable_observability()
    try:
        outcome = replay_trace(workload, arch=arch)
    finally:
        if recorder is not None:
            from .obs import disable_observability
            disable_observability()
    result, profile = outcome.result, outcome.profile
    payload = result.to_payload()
    if args.json:
        print(render_json({
            "trace": args.trace,
            "sha256": workload.sha256,
            "architecture": arch.label,
            "fidelity": args.fidelity or "cycle",
            "profile": profile.to_dict(),
            "preconditioning_commands": outcome.preconditioning_commands,
            "result": payload,
        }))
    else:
        print(format_profile(profile, source=args.trace))
        print()
        print(f"architecture : {arch.label}")
        if args.fidelity:
            print(f"fidelity     : {args.fidelity} (calibrated fast "
                  f"paths)" if arch.fidelity.any_fast
                  else f"fidelity     : {args.fidelity}")
        print(f"replay mode  : "
              f"{'closed-loop' if args.closed_loop else 'open-loop'}"
              + (f", time x{args.time_scale:g}"
                 if args.time_scale != 1.0 else ""))
        if outcome.preconditioning_commands:
            print(f"precondition : {args.precondition} "
                  f"({outcome.preconditioning_commands} warm-up commands)")
        _print_result(payload)
        if result.failed_commands:
            print(f"failed       : {result.failed_commands} commands")
    if args.trace_out:
        _write_chrome_trace(recorder, args.trace_out)
    return 0


def cmd_trace_sweep(args: argparse.Namespace) -> int:
    """Replay one trace across Table II design points (sweep or
    campaign), printing per-point sustained MB/s."""
    from .core.tracereplay import trace_sweep_points
    workload = _trace_workload(args)
    runner = runner_from_args(args)
    result = runner.run(trace_sweep_points(workload,
                                           _parse_configs(args.configs)))
    table = render_columns(
        [("point", "<6"), ("MB/s", ">8.1f"), ("IOPS", ">9.0f"),
         ("p99 us", ">9.1f")],
        ([outcome.name, outcome.payload["sustained_mbps"],
          outcome.payload["iops"], outcome.payload["latency_us"]["p99"]]
         for outcome in result.outcomes if not outcome.failed))
    return _finish(args, runner, table,
                   {"trace": args.trace, "sha256": workload.sha256,
                    "rows": result.payloads()})


def cmd_trace_convert(args: argparse.Namespace) -> int:
    """Convert a trace between formats (auto-detected input)."""
    from .host.traces import iter_trace, limit_records
    from .host.traces.formats import write_trace_file
    records = limit_records(iter_trace(args.src, fmt=args.format),
                            args.commands or None)
    lines = write_trace_file(args.dst, records, args.to)
    print(f"wrote {lines} {args.to} lines to {args.dst}")
    return 0


# ----------------------------------------------------------------------
# repro ftl …


def _parse_schemes(text: str) -> Optional[List[str]]:
    from .ftl import scheme_names
    if not text:
        return None
    names = _csv(text)
    unknown = [name for name in names if name not in scheme_names()]
    if unknown:
        raise SystemExit(f"unknown FTL schemes: {unknown}; "
                         f"choose from {scheme_names()}")
    return names


def cmd_ftl_schemes(args: argparse.Namespace) -> int:
    """List the FTL scheme registry with mapping footprints.

    Footprints are computed for the sweep's reference geometry (the
    4-die "FTL microscope") so the table shows concrete bytes, not
    formulas."""
    from .core.ftlsweep import (DEFAULT_BLOCKS_PER_PLANE,
                                DEFAULT_UTILIZATION, ftl_base_architecture)
    from .ftl import FTL_SCHEMES, scheme_footprint
    arch = ftl_base_architecture()
    geometry = arch.geometry
    physical_pages = (arch.total_dies * geometry.planes_per_die
                      * DEFAULT_BLOCKS_PER_PLANE * geometry.pages_per_block)
    logical_pages = int(physical_pages * DEFAULT_UTILIZATION)
    rows = []
    for name, scheme in FTL_SCHEMES.items():
        footprint = scheme_footprint(
            name, logical_pages, page_bytes=geometry.page_bytes,
            ftl_dram_bytes=args.dram_bytes or None,
            group_pages=(geometry.pages_per_block
                         if name == "blockmap" else 0))
        rows.append({"name": name,
                     "description": scheme.description,
                     "dram_sensitive": scheme.dram_sensitive,
                     "footprint": footprint.to_dict()})
    if args.json:
        print(render_json({"logical_pages": logical_pages,
                           "page_bytes": geometry.page_bytes,
                           "schemes": rows}))
        return 0
    print(f"reference geometry: {logical_pages} logical pages x "
          f"{geometry.page_bytes} B "
          f"({arch.total_dies} dies, {DEFAULT_BLOCKS_PER_PLANE} "
          f"blocks/plane, {DEFAULT_UTILIZATION:.0%} utilization)")
    print()
    # The empty column widens the gap before the free-text description.
    print(render_columns(
        [("scheme", "<10"), ("table B", ">9d"), ("DRAM B", ">9d"),
         ("flash B", ">9d"), ("cached", ">7.2f"), ("", ""),
         ("description", "")],
        ([row["name"], row["footprint"]["table_bytes"],
          row["footprint"]["dram_bytes"], row["footprint"]["flash_bytes"],
          row["footprint"]["cached_fraction"], "", row["description"]]
         for row in rows)))
    return 0


def cmd_ftl_sweep(args: argparse.Namespace) -> int:
    """Replay one trace across the FTL scheme zoo; print the
    WAF / latency / mapping-footprint trade-off table and check the
    page-map reference against the analytic WAF model."""
    from .core.ftlsweep import (analytic_waf_check, ftl_sweep,
                                ftl_sweep_table, render_ftl_sweep_table)
    workload = _trace_workload(args)
    runner = runner_from_args(args)
    rows = ftl_sweep_table(ftl_sweep(
        workload, schemes=_parse_schemes(args.schemes),
        dram_budgets=(_csv(args.dram_budgets, int) if args.dram_budgets
                      else None),
        runner=runner,
        logical_utilization=args.utilization,
        blocks_per_plane=args.blocks_per_plane))
    analytic = None if args.no_analytic else analytic_waf_check()
    document = {"trace": args.trace, "sha256": workload.sha256,
                "rows": rows,
                **({} if analytic is None else {"analytic": analytic})}
    return _finish(args, runner, render_ftl_sweep_table(rows, analytic),
                   document,
                   failed=analytic is not None
                   and not analytic["within_bound"])


# ----------------------------------------------------------------------
# repro tenants …


def _tenant_specs_from_args(args: argparse.Namespace):
    """Build the tenant set a ``repro tenants`` invocation describes.

    ``--trace`` appends a trace-replay tenant; because a mix must be
    uniformly open- or closed-loop, that implies paced arrivals for the
    synthetic tenants too (``--rate`` defaults to 10k IOPS each, with
    staggered phases).
    """
    from dataclasses import replace

    from .core.tenantsweep import default_tenant_set
    from .host.tenants import TenantSpec
    rate = args.rate
    if args.trace and not rate:
        rate = 10_000.0
    specs = default_tenant_set(args.tenants)
    streams = args.tenants + (1 if args.trace else 0)
    if args.commands or rate:
        interval = int(1e12 / rate) if rate else 0
        specs = [replace(spec,
                         n_commands=args.commands or spec.n_commands,
                         rate_iops=rate,
                         phase_ps=(index * interval) // streams
                         if rate else 0)
                 for index, spec in enumerate(specs)]
    if args.trace:
        specs.append(TenantSpec.from_trace(
            "trace", args.trace, n_commands=args.commands or 48,
            span_bytes=1 << 22, queue_depth=8, weight=args.tenants + 1))
    return specs


def _mix_title(args: argparse.Namespace, head: str) -> str:
    return (f"{head}, {args.policy} arbitration"
            + (", isolated channels" if args.isolate else ""))


def cmd_tenants_run(args: argparse.Namespace) -> int:
    """Arbitrate one tenant mix and print per-tenant QoS metrics."""
    from .core.tenantsweep import (run_tenant_mix, share_cell,
                                   tenants_base_architecture)
    specs = _tenant_specs_from_args(args)
    payload, __ = run_tenant_mix(
        tenants_base_architecture(), specs, policy=args.policy,
        isolate_channels=args.isolate,
        label=f"t{len(specs)}-{args.policy}")
    if args.json:
        print(render_json(payload))
        return 0
    aggregate = payload["aggregate"]
    print(_mix_title(args, f"{payload['label']}: "
                           f"{payload['n_tenants']} tenant(s)"))
    print(f"aggregate: {aggregate['throughput_mbps']:.1f} MB/s, "
          f"{aggregate['commands']} commands")
    print()
    print(render_columns(
        [("tenant", "<8"), ("workload", "<8"), ("wgt", ">3"),
         ("cmds", ">5"), ("share d/a", ">11"), ("p50 us", ">9.1f"),
         ("p99 us", ">9.1f"), ("p99.9", ">9.1f"), ("p99.99", ">9.1f")],
        ([row["name"], row["workload"], row["weight"], row["commands"],
          share_cell(row), row["latency_us"]["p50"],
          row["latency_us"]["p99"], row["latency_us"]["p999"],
          row["latency_us"]["p9999"]]
         for row in payload["tenants"])))
    return 0


def cmd_tenants_report(args: argparse.Namespace) -> int:
    """Measure and print the N×N noisy-neighbor interference matrix."""
    from .core.tenantsweep import (interference_matrix,
                                   tenants_base_architecture)
    specs = _tenant_specs_from_args(args)
    matrix, events = interference_matrix(
        tenants_base_architecture(), specs, policy=args.policy,
        isolate_channels=args.isolate)
    if args.json:
        print(render_json({"policy": args.policy,
                           "isolate_channels": bool(args.isolate),
                           **matrix}))
        return 0
    names = matrix["tenants"]
    print(_mix_title(args, f"noisy-neighbor matrix: {len(names)} tenants")
          + f" ({events} kernel events)")
    print()
    print(_matrix("mean-latency inflation (row = victim, col = neighbor):",
                  names, matrix["inflation"]))
    print()
    print(_matrix("GC-attributed us/command gained in the pairing:",
                  names, matrix["gc_attributed_us"]))
    return 0


def cmd_tenants_sweep(args: argparse.Namespace) -> int:
    """Run the tenant-count × arbitration-policy grid."""
    from .core.tenantsweep import (render_tenant_sweep_table, tenant_sweep,
                                   tenant_sweep_table)
    runner = runner_from_args(args)
    rows = tenant_sweep_table(tenant_sweep(
        counts=_csv(args.counts, int), policies=_csv(args.policies),
        runner=runner,
        interference=not args.no_interference))
    return _finish(args, runner, render_tenant_sweep_table(rows),
                   {"rows": rows})


# ----------------------------------------------------------------------
# repro campaign …


def _constraints(args: argparse.Namespace, store, campaign_id: str):
    """``--where`` parsed; a ``--metric`` or ``--where`` metric that the
    stored points lack is a user error (once any point has metrics)."""
    from .core import parse_constraint
    constraints = [parse_constraint(text) for text in args.where]
    known = store.metric_names(campaign_id)
    for metric in [args.metric] + [metric for metric, _, _ in constraints]:
        if known and metric not in known:
            raise ValueError(f"unknown metric {metric!r}; see 'repro "
                             f"campaign query {args.dir} --list-metrics'")
    return constraints


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    """Join an existing campaign as one worker process."""
    from .core import run_worker
    executed = run_worker(args.dir, timeout_s=args.timeout or None,
                          lease_ttl_s=args.ttl)
    print(f"worker done: executed {executed} point(s)")
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from .core import Campaign
    status = Campaign.open(args.dir).status()
    if args.json:
        print(render_json(status.to_dict()))
    else:
        print(status.format())
    return 0


def cmd_campaign_query(args: argparse.Namespace) -> int:
    """Rank points by any stored metric, with constraint filters."""
    from .core import Campaign
    campaign = Campaign.open(args.dir)
    campaign_id = campaign.index()  # adds what outside workers published
    with campaign.store() as store:
        if args.list_metrics:
            for metric in store.metric_names(campaign_id):
                print(metric)
            return 0
        rows = store.query(campaign_id, args.metric,
                           where=_constraints(args, store, campaign_id),
                           top=args.top or None, ascending=args.ascending)
    if args.json:
        print(render_json({"campaign": campaign_id, "metric": args.metric,
                           "rows": [{"name": name, "value": value}
                                    for name, value in rows]}))
    else:
        for name, value in rows:
            print(f"{name:<24} {value:12.3f}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Decision support: Pareto frontier, best-under-constraint,
    failure post-mortems."""
    from .core import Campaign
    campaign = Campaign.open(args.dir)
    campaign_id = campaign.index()
    with campaign.store() as store:
        constraints = _constraints(args, store, campaign_id)
        counts = store.status_counts(campaign_id)
        frontier = store.pareto_frontier(campaign_id, args.metric)
        best = store.best_under_constraint(campaign_id, args.metric,
                                           constraints)
        failures = store.failures(campaign_id)
    if args.json:
        print(render_json({
            "campaign": campaign_id, "metric": args.metric,
            "counts": counts,
            "pareto_frontier": [
                {"name": e.name, "cost": e.cost, "value": e.value}
                for e in frontier],
            "best": None if best is None else
            {"name": best.name, "cost": best.cost, "value": best.value},
            "failures": failures,
        }))
        return 1 if counts.get("failed") else 0
    print(f"campaign : {campaign_id} — {counts.get('ok', 0)} ok, "
          f"{counts.get('failed', 0)} failed")
    print(f"pareto frontier ({args.metric} vs resource cost):")
    for entry in frontier:
        print(f"  {entry.name:<24} cost {entry.cost:8.0f}  "
              f"{entry.value:10.2f}")
    if best is not None:
        suffix = (" under " + ", ".join(args.where)) if args.where else ""
        print(f"best {args.metric}{suffix}: {best.name} "
              f"({best.value:.2f} at cost {best.cost:.0f})")
    elif args.where:
        print(f"no point satisfies {args.where}")
    if failures:
        print(f"failures ({len(failures)}):")
        for row in failures:
            print(f"  {row['name']}: {row['error_type']}: "
                  f"{row['message']}")
    return 1 if counts.get("failed") else 0


# ----------------------------------------------------------------------
# repro reliability …


def _reliability_grid(args: argparse.Namespace):
    from .core import ReliabilityGrid
    grid = ReliabilityGrid()
    return ReliabilityGrid(
        fractions=tuple(_csv(args.fractions, float)) or grid.fractions,
        spares=tuple(_csv(args.spares, int)) or grid.spares,
        kinds=tuple(_csv(args.kinds)) or grid.kinds,
        n_commands=args.commands,
        campaign_seed=args.seed)


def cmd_reliability_run(args: argparse.Namespace) -> int:
    """Monte-Carlo reliability campaign with CI-driven stopping."""
    from .core import run_reliability_campaign
    runner = runner_from_args(args, name="reliability")
    outcome = run_reliability_campaign(
        grid=_reliability_grid(args), runner=runner,
        replicas=args.replicas, batch=args.batch or None,
        target_half_width=args.target_half_width or None,
        metric=args.metric)
    return _finish(args, runner, outcome.format(), outcome.to_dict(),
                   failed=bool(outcome.failed_points))


def cmd_reliability_report(args: argparse.Namespace) -> int:
    """Re-aggregate a reliability campaign directory (no simulation)."""
    from .core import report_from_campaign
    outcome = report_from_campaign(args.dir, metric=args.metric)
    if not outcome.estimates:
        raise SystemExit(f"no published rel/ points in {args.dir!r} — "
                         f"run 'repro reliability run' first")
    if args.json:
        print(render_json(outcome.to_dict()))
    else:
        print(outcome.format())
    return 1 if outcome.failed_points else 0


# ----------------------------------------------------------------------
# Parser + entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSDExplorer reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("features", help="Table I feature matrix") \
        .set_defaults(func=cmd_features)

    validate = sub.add_parser("validate", help="Fig. 2 validation")
    validate.add_argument("--commands", type=int, default=800)
    validate.set_defaults(func=cmd_validate)

    for name, help_text, commands in (
            ("fig3", "Fig. 3 SATA sweep", 2000),
            ("fig4", "Fig. 4 PCIe/NVMe sweep", 2000),
            ("fig5", "Fig. 5 wear-out sweep", 400)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--commands", type=int, default=commands)
        if name == "fig5":
            p.add_argument("--steps", type=int, default=10)
        else:
            _add_configs(p)
        add_sweep_options(p)
        add_fidelity_option(p)
        p.set_defaults(func=cmd_experiment, experiment=name)

    faults = sub.add_parser(
        "faults", help="seeded fault-injection campaign (reliability "
                       "metrics: retries, remaps, UBER)")
    faults.add_argument("--commands", type=int, default=300)
    faults.add_argument("--seed", type=int, default=1234,
                        help="fault-plan seed; same seed = same schedule")
    _add_json(faults, "deterministic rows (for diffing runs)")
    add_sweep_options(faults)
    faults.set_defaults(func=cmd_faults)

    fig6 = sub.add_parser("fig6", help="Fig. 6 simulation speed")
    fig6.add_argument("--commands", type=int, default=400)
    fig6.set_defaults(func=cmd_fig6)

    run = sub.add_parser("run", help="run one architecture/workload")
    _add_iozone_options(run, commands=1000)
    _add_json(run, "the result")
    add_sweep_options(run)
    add_fidelity_option(run)
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile", help="run one workload with span observability on; "
                        "print the latency breakdown and bottleneck "
                        "report, optionally export a Chrome trace")
    _add_iozone_options(profile, commands=400)
    profile.add_argument("--top", type=int, default=10,
                         help="rows per breakdown table")
    profile.add_argument("--buckets", type=int, default=60,
                         help="timeline sparkline resolution")
    profile.add_argument("--trace-out", type=str, default="",
                         help="write a Chrome trace_event JSON here "
                              "(Perfetto-loadable)")
    _add_json(profile, "the breakdown")
    profile.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace", help="real-trace workloads: characterize, replay, sweep "
                      "or convert a native / MSR-Cambridge CSV / "
                      "blkparse trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    characterize = trace_sub.add_parser(
        "characterize", help="one streaming pass: mix, footprint, "
                             "sequentiality, histograms, implied QD")
    _add_trace_file(characterize)
    characterize.add_argument("--limit", type=int, default=0,
                              help="only the first N records (0 = all)")
    _add_json(characterize, "the profile")
    characterize.set_defaults(func=cmd_trace_characterize)

    replay = trace_sub.add_parser(
        "replay", help="replay the trace through a simulated drive; "
                       "prints the characterization table and the "
                       "RunResult summary")
    _add_trace_file(replay)
    _add_config(replay)
    _add_replay_options(replay)
    replay.add_argument("--time-scale", type=float, default=1.0,
                        help="scale issue times (0.5 = replay 2x faster)")
    replay.add_argument("--no-wrap", action="store_true",
                        help="do not wrap LBAs into the simulated "
                             "drive's capacity")
    replay.add_argument("--trace-out", type=str, default="",
                        help="record spans during the replay and write "
                             "a Chrome trace_event JSON here")
    _add_json(replay, "profile + result")
    add_fidelity_option(replay)
    replay.set_defaults(func=cmd_trace_replay)

    tsweep = trace_sub.add_parser(
        "sweep", help="replay one trace across Table II design points "
                      "(supports --campaign for durable, resumable runs)")
    _add_trace_file(tsweep)
    _add_configs(tsweep)
    _add_replay_options(tsweep)
    _add_json(tsweep, "per-point results")
    add_sweep_options(tsweep)
    tsweep.set_defaults(func=cmd_trace_sweep)

    convert = trace_sub.add_parser(
        "convert", help="re-encode a trace in another format")
    convert.add_argument("src", help="input trace (any format)")
    convert.add_argument("dst", help="output path")
    convert.add_argument("--format", type=str, default="auto",
                         help="input format override")
    convert.add_argument("--to", type=str, default="native",
                         choices=["native", "msr", "blkparse"],
                         help="output format")
    convert.add_argument("--commands", type=int, default=0,
                         help="convert only the first N records (0 = all)")
    convert.set_defaults(func=cmd_trace_convert)

    ftl = sub.add_parser(
        "ftl", help="real-FTL scheme zoo: list the mapping schemes or "
                    "sweep a trace across them under a DRAM budget")
    ftl_sub = ftl.add_subparsers(dest="ftl_command", required=True)

    fschemes = ftl_sub.add_parser(
        "schemes", help="registry table: every mapping scheme with its "
                        "mapping-table footprint on the reference "
                        "geometry")
    fschemes.add_argument("--dram-bytes", type=int, default=0,
                          help="ftl_dram_bytes budget for DRAM-sensitive "
                               "schemes (0 = scheme default)")
    _add_json(fschemes, "the registry")
    fschemes.set_defaults(func=cmd_ftl_schemes)

    fsweep = ftl_sub.add_parser(
        "sweep", help="replay one trace through every scheme (DFTL "
                      "expanded across DRAM budgets); chart WAF / "
                      "latency / mapping bytes and validate the page-map "
                      "reference against the analytic WAF model")
    _add_trace_file(fsweep, default="examples/sample_msr.csv")
    fsweep.add_argument("--schemes", type=str, default="",
                        help="comma-separated subset of the registry "
                             "(default: every scheme)")
    fsweep.add_argument("--dram-budgets", type=str, default="",
                        help="comma-separated ftl_dram_bytes ladder for "
                             "DRAM-sensitive schemes (default: derived "
                             "from the geometry)")
    _add_replay_options(fsweep, precondition=False)
    fsweep.add_argument("--utilization", type=float, default=0.75,
                        help="logical utilization of the FTL's physical "
                             "space")
    fsweep.add_argument("--blocks-per-plane", type=int, default=8,
                        help="FTL blocks per plane (small = GC visible "
                             "in short traces)")
    fsweep.add_argument("--no-analytic", action="store_true",
                        help="skip the analytic WAF cross-check")
    _add_json(fsweep, "rows + analytic check")
    add_sweep_options(fsweep)
    fsweep.set_defaults(func=cmd_ftl_sweep)

    tenants = sub.add_parser(
        "tenants", help="multi-tenant serving: arbitrate N initiator "
                        "streams into one device; per-tenant tail "
                        "latency, IOPS shares and noisy-neighbor "
                        "interference")
    tenants_sub = tenants.add_subparsers(dest="tenants_command",
                                         required=True)

    trun = tenants_sub.add_parser(
        "run", help="arbitrate one tenant mix; per-tenant "
                    "p50/p99/p99.9/p99.99 and achieved vs demanded "
                    "shares")
    _add_tenant_options(trun)
    trun.set_defaults(func=cmd_tenants_run)

    treport = tenants_sub.add_parser(
        "report", help="N x N noisy-neighbor matrix: pairwise "
                       "mean-latency inflation vs solo baselines, with "
                       "the GC-attributed share from command spans")
    _add_tenant_options(treport)
    treport.set_defaults(func=cmd_tenants_report)

    tsweep2 = tenants_sub.add_parser(
        "sweep", help="tenant-count x arbitration-policy grid through "
                      "the sweep engine (cacheable, campaign-able)")
    tsweep2.add_argument("--counts", type=str, default="1,2,3",
                         help="comma-separated tenant counts")
    tsweep2.add_argument("--policies", type=str, default="rr,wrr",
                         help="comma-separated arbitration policies")
    tsweep2.add_argument("--no-interference", action="store_true",
                         help="skip the pairwise interference matrices "
                              "(much faster)")
    _add_json(tsweep2, "per-tenant QoS rows")
    add_sweep_options(tsweep2)
    tsweep2.set_defaults(func=cmd_tenants_sweep)

    cal = sub.add_parser(
        "calibrate", help="fit the fast-fidelity parameters from short "
                          "cycle-accurate probes (content-addressed "
                          "cache; see --fidelity fast elsewhere)")
    _add_config(cal)
    cal.add_argument("--cache-dir", type=str, default="",
                     help="sweep cache directory; the fit is kept in "
                          "its calibration/ subdirectory (default "
                          "$REPRO_SWEEP_CACHE_DIR, else .sweep-cache)")
    cal.add_argument("--no-cache", action="store_true",
                     help="re-run the probes even if a cached fit exists")
    cal.add_argument("--check", action="store_true",
                     help="rerun fig3/fig5 at fast fidelity and compare "
                          "against the golden files")
    cal.add_argument("--bound", type=float, default=0.05,
                     help="declared relative error bound for --check")
    _add_json(cal, "calibration (and report)")
    cal.set_defaults(func=cmd_calibrate)

    report = sub.add_parser("report", help="run everything, emit markdown")
    report.add_argument("--commands", type=int, default=800)
    _add_configs(report)
    report.add_argument("--out", type=str, default="")
    report.add_argument("--skip-fig4", action="store_true")
    report.add_argument("--skip-reliability", action="store_true",
                        help="skip the Monte-Carlo reliability section")
    report.add_argument("--skip-ftl", action="store_true",
                        help="skip the real-FTL scheme-zoo section")
    report.add_argument("--reliability-replicas", type=int, default=8,
                        help="fault-trial replicas per reliability cell")
    report.set_defaults(func=cmd_report)

    explore = sub.add_parser("explore", help="design-space exploration")
    _add_configs(explore)
    explore.add_argument("--commands", type=int, default=1000)
    add_sweep_options(explore)
    explore.set_defaults(func=cmd_explore)

    campaign = sub.add_parser(
        "campaign", help="durable design-space campaigns: a leased "
                         "work-queue any number of workers drain, a "
                         "SQLite result store, and adaptive exploration")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    crun = campaign_sub.add_parser(
        "run", help="run (or resume) an experiment as a campaign; "
                    "interrupted runs pick up with zero recomputation")
    _add_campaign_run_options(crun, name="experiment")
    crun.add_argument("--experiment", type=str, default="fig3",
                      choices=["fig3", "fig4", "fig5", "adaptive"],
                      help="which canonical experiment to campaign "
                           "(adaptive = fast-fidelity screen + Pareto-band "
                           "promotion on the fig3 grid)")
    crun.add_argument("--commands", type=int, default=2000)
    _add_configs(crun)
    crun.add_argument("--budget", type=float, default=0.5,
                      help="adaptive: max fraction of the grid promoted "
                           "to cycle fidelity")
    add_fidelity_option(crun)
    crun.set_defaults(func=cmd_experiment)

    cworker = campaign_sub.add_parser(
        "worker", help="join an existing campaign as one extra worker "
                       "(run any number, on any host sharing the dir)")
    cworker.add_argument("dir", help="campaign directory")
    cworker.add_argument("--ttl", type=float, default=60.0,
                         help="lease time-to-live in seconds")
    cworker.add_argument("--timeout", type=float, default=0.0,
                         help="per-point time budget in seconds (0 = none)")
    cworker.set_defaults(func=cmd_campaign_worker)

    cstatus = campaign_sub.add_parser(
        "status", help="point counts + live leases for a campaign dir")
    cstatus.add_argument("dir", help="campaign directory")
    _add_json(cstatus, "the status")
    cstatus.set_defaults(func=cmd_campaign_status)

    cquery = campaign_sub.add_parser(
        "query", help="rank points by any stored metric "
                      "(dotted payload paths, e.g. latency_us.p99)")
    _add_store_options(cquery)
    cquery.add_argument("--top", type=int, default=0,
                        help="only the best N rows (0 = all)")
    cquery.add_argument("--ascending", action="store_true",
                        help="rank ascending (for latency-style metrics)")
    cquery.add_argument("--list-metrics", action="store_true",
                        help="print the available metric names and exit")
    cquery.set_defaults(func=cmd_campaign_query)

    creport = campaign_sub.add_parser(
        "report", help="decision support: Pareto frontier, "
                       "best-under-constraint, failure post-mortems")
    _add_store_options(creport)
    creport.set_defaults(func=cmd_campaign_report)

    reliability = sub.add_parser(
        "reliability", help="Monte-Carlo reliability campaigns: seeded "
                            "fault-trial replicas on the campaign engine, "
                            "Wilson-CI estimators, CI-driven stopping")
    reliability_sub = reliability.add_subparsers(
        dest="reliability_command", required=True)

    rrun = reliability_sub.add_parser(
        "run", help="expand the fig-faults grid into seeded replicas and "
                    "estimate UBER / failed-command-rate with 95% CIs; "
                    "resumable, byte-identical across worker counts")
    _add_campaign_run_options(rrun, name="reliability")
    rrun.add_argument("--replicas", type=int, default=64,
                      help="replica budget per cell")
    rrun.add_argument("--batch", type=int, default=0,
                      help="replicas scheduled per stopping-rule batch "
                           "(0 = default 16; only with --target-half-width)")
    rrun.add_argument("--target-half-width", type=float, default=0.0,
                      help="stop a cell early once the 95%% CI half-width "
                           "of --metric reaches this (0 = run the full "
                           "budget)")
    _add_reliability_metric(rrun)
    rrun.add_argument("--fractions", type=str, default="",
                      help="comma-separated wear levels "
                           "(default 0.5,0.9,1.0)")
    rrun.add_argument("--spares", type=str, default="",
                      help="comma-separated spare-blocks-per-plane values "
                           "(default 8)")
    rrun.add_argument("--kinds", type=str, default="",
                      help="comma-separated workload kinds "
                           "(default write,read)")
    rrun.add_argument("--commands", type=int, default=120,
                      help="commands per replica")
    rrun.add_argument("--seed", type=int, default=1234,
                      help="campaign seed (replica seeds derive from it)")
    _add_json(rrun, "the deterministic estimator document (the bytes "
                    "the reliability-smoke tier compares)")
    rrun.set_defaults(func=cmd_reliability_run)

    rreport = reliability_sub.add_parser(
        "report", help="re-aggregate a reliability campaign dir: pooled "
                       "estimates + perf-vs-reliability-vs-spares Pareto "
                       "frontier, no simulation")
    rreport.add_argument("dir", help="campaign directory")
    _add_reliability_metric(rreport)
    _add_json(rreport, "the estimates")
    rreport.set_defaults(func=cmd_reliability_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as error:
        raise SystemExit(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
