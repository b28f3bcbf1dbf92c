"""Command-line interface for the DAE+DVFS toolchain.

Exposes the end-to-end flow without writing Python::

    repro-dvfs summary mbv2
    repro-dvfs optimize vww --qos-percent 30 --output vww.plan.json
    repro-dvfs deploy vww --plan vww.plan.json --timeline vww.csv
    repro-dvfs codegen vww --plan vww.plan.json --outdir firmware/
    repro-dvfs compare pd --qos-percents 10 30 50
    repro-dvfs microbench
    repro-dvfs lifetime vww --qos-percent 30 --capacity-mah 1200
    repro-dvfs fleet --devices 1000 --seed 0 --json fleet.json
    repro-dvfs chaos --devices 64 --fault-seed 7 --json chaos.json
    repro-dvfs serve --port 7070
    repro-dvfs loadgen --requests 64 --concurrency 8 --json -
    repro-dvfs plan tiny --qos-percent 30 --trace plan.trace.json
    repro-dvfs obs plan.trace.jsonl --chrome plan.chrome.json
    repro-dvfs fleet --devices 64 --metrics fleet.metrics.json
    repro-dvfs monitor fleet.metrics.json --slo --lint --prom
    repro-dvfs boards --show nucleo-n657x0 --json
    repro-dvfs crossboard tiny --qos-percent 30 --json
    repro-dvfs fleet --devices 64 --board nucleo-f767zi --board nucleo-n657x0

Model names: ``vww``, ``pd``, ``mbv2`` (the paper's suite) and
``tiny`` (a small test CNN).

Every command returns ``(exit code, JSON payload or None)``;
:func:`main` alone owns the shared flags below.

The ``--json`` contract (every command with a JSON payload): when the
flag is present, stdout carries *only* the machine-parseable JSON
payload -- human-readable progress moves to stderr -- so
``repro-dvfs ... --json | jq .`` always works.  ``--json PATH``
additionally writes the same payload to ``PATH`` (``-`` means stdout
only).

``--trace PATH`` (plan / crossboard / fleet / chaos / scenario /
serve) installs the :mod:`repro.obs` tracer for the run and writes the
span trace to ``PATH`` on exit, failed runs included -- ``.jsonl`` for
the native line format, anything else for Chrome trace JSON (load it
at https://ui.perfetto.dev).  In ``--json`` mode the payload gains a
``trace`` summary (path, span count, deterministic digest) *after* the
core digest is computed, so tracing never perturbs a payload's own
digest.  The trace digest is stable run to run only on serial paths
(``plan``, ``crossboard``, ``fleet --serial``): pooled planning orders
span ``seq`` by thread start.

``--metrics PATH`` (plan / fleet / chaos / scenario / serve) writes
the process's final metrics-registry snapshot to ``PATH`` as
canonical JSON with its sha256 digest, symmetric to ``--trace``
(written on failure too; the ``metrics`` summary attaches to a
``--json`` payload only after the core digest is computed).
``repro-dvfs monitor`` consumes these files (or a live server's
``metrics`` op via ``--connect``): it tails the registry, rolls two
snapshots into windowed deltas, renders Prometheus exposition text,
lints it, and judges the default SLOs.

Exit codes: 0 on success; 1 when the command failed with a
:class:`~repro.errors.ReproError` (infeasible QoS, bad plan file,
overload, ...) -- in ``--json`` mode the error document
``{"ok": false, "error": {"kind": ..., "message": ...}}`` takes the
payload's place -- or when a check-style command (``selftest``, ``loadgen``) found a
failing check; 2 on argparse usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from .analysis import (
    Battery,
    DutyCycle,
    estimate_lifetime,
    run_addition_loop,
    write_timeline_csv,
)
from .clock import enumerate_configs
from .engine import load_plan, save_plan
from .errors import ReproError
from .nn import PAPER_MODELS, build_tiny_test_model
from .nn.graph import Model
from .optimize import QoSLevel
from .pipeline import DAEDVFSPipeline
from .units import MHZ, to_mhz, to_mj, to_ms

MODEL_BUILDERS: Dict[str, Callable[[], Model]] = {
    **PAPER_MODELS,
    "tiny": build_tiny_test_model,
}


def _build_model(name: str) -> Model:
    try:
        return MODEL_BUILDERS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}"
        )


_DEFAULT_QOS = QoSLevel(name="30%", slack=0.30)

# What every ``cmd_*`` returns: (exit code, JSON payload or None).
Result = Tuple[int, Optional[Dict[str, Any]]]


def _qos(
    args: argparse.Namespace, default: Optional[QoSLevel] = _DEFAULT_QOS
) -> Dict[str, Any]:
    """The planner's QoS keyword: ``qos_s`` or ``qos_level``.

    ``--qos-ms`` gives ``qos_s``, ``--qos-percent`` a level; with
    neither flag, ``default`` (no keyword at all when it is None).
    """
    if getattr(args, "qos_ms", None) is not None:  # lifetime has no --qos-ms
        return {"qos_s": args.qos_ms * 1e-3}
    if args.qos_percent is not None:
        return {
            "qos_level": QoSLevel(
                name=f"{args.qos_percent}%", slack=args.qos_percent / 100.0
            )
        }
    return {} if default is None else {"qos_level": default}


def _board(args: argparse.Namespace):
    """The ``--board`` target, or None for the pipeline's default board."""
    if not args.board:
        return None
    from .boards import build_board

    return build_board(args.board)


def _json_mode(args: argparse.Namespace) -> bool:
    return args.json is not None


def _out(args: argparse.Namespace):
    """Human-readable stream: stderr once ``--json`` owns stdout."""
    return sys.stderr if _json_mode(args) else sys.stdout


def _emit_json(args: argparse.Namespace, payload: Dict[str, Any]) -> None:
    """Honor the ``--json`` contract for one payload.

    Stdout always gets the JSON (and nothing else); a path argument
    other than ``-`` gets a copy on disk.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json != "-":
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.json}", file=sys.stderr)
    print(text)


def _trace_begin(args: argparse.Namespace):
    """Install a process tracer when ``--trace PATH`` was given."""
    if not args.trace:
        return None
    from .obs.tracing import Tracer, install

    return install(Tracer())


def _trace_finish(
    args: argparse.Namespace,
    tracer,
    payload: Optional[Dict[str, Any]],
) -> None:
    """Uninstall the tracer, write the trace, attach the summary.

    The summary lands under ``payload["trace"]`` *after* the command
    computed any content digest, so tracing never changes a payload's
    own digest.
    """
    if tracer is None:
        return
    from .obs.export import write_trace
    from .obs.tracing import uninstall

    uninstall()
    summary = write_trace(tracer, args.trace)
    print(
        f"trace written to {summary['path']} "
        f"({summary['format']}, {summary['spans']} spans, "
        f"digest {summary['digest'][:12]}...)",
        file=_out(args),
    )
    if payload is not None:
        payload["trace"] = summary


def _metrics_finish(
    args: argparse.Namespace, payload: Optional[Dict[str, Any]]
) -> None:
    """Write the registry snapshot when ``--metrics PATH`` was given.

    Mirrors :func:`_trace_finish`: the ``metrics`` summary lands under
    ``payload["metrics"]`` *after* the command computed any content
    digest, so metrics capture never changes a payload's own digest.
    """
    if not args.metrics:
        return
    from .obs.registry import get_registry, snapshot_digest

    snapshot = get_registry().snapshot()
    digest = snapshot_digest(snapshot)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"registry": snapshot, "digest": digest},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        fh.write("\n")
    print(
        f"metrics written to {args.metrics} "
        f"(digest {digest[:12]}...)",
        file=_out(args),
    )
    if payload is not None:
        payload["metrics"] = {
            "path": args.metrics,
            "digest": digest,
            "families": {
                section: len(snapshot.get(section, {}))
                for section in ("counters", "gauges", "histograms")
            },
        }


def cmd_summary(args: argparse.Namespace) -> Result:
    model = _build_model(args.model)
    print(model.summary())
    print(
        f"DAE-eligible conv layers: {model.dae_layer_fraction():.0%} "
        f"({len(model.dae_nodes())}/{len(model.conv_nodes())})"
    )
    return 0, None


def cmd_optimize(args: argparse.Namespace) -> Result:
    from .engine.serialize import plan_to_dict
    from .serve.protocol import plan_digest

    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline(board=_board(args), solver=args.solver)
    result = pipeline.optimize(model, **_qos(args))
    plan = result.plan
    if args.harmonize:
        plan = pipeline.harmonize(model, result).plan
    out = _out(args)
    print(
        f"baseline {to_ms(result.baseline_latency_s):.3f} ms, "
        f"budget {to_ms(result.qos_s):.3f} ms",
        file=out,
    )
    for node_id in sorted(plan.layer_plans):
        lp = plan.layer_plans[node_id]
        layer = model.nodes[node_id - 1].layer
        print(
            f"  [{node_id:3d}] {layer.name:24s} g={lp.granularity:2d} "
            f"@ {to_mhz(lp.hfo.sysclk_hz):5.0f} MHz",
            file=out,
        )
    if args.output:
        save_plan(plan, args.output)
        print(f"plan written to {args.output}", file=out)
    payload = {
        "model": args.model,
        "baseline_latency_s": result.baseline_latency_s,
        "budget_s": result.qos_s,
        "fixed_overhead_s": result.fixed_overhead_s,
        "harmonized": bool(args.harmonize),
        "plan": plan_to_dict(plan),
    }
    # Key present only under --board: default payloads (and their
    # pinned digests) are unchanged by the board registry.
    if args.board:
        payload["board"] = args.board
    payload["digest"] = plan_digest(payload)
    return 0, payload


def cmd_deploy(args: argparse.Namespace) -> Result:
    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline()
    plan = load_plan(args.plan)
    qos = _qos(args, default=None)
    if "qos_level" in qos:  # the budget optimize would have planned for
        level = qos.pop("qos_level")
        qos["qos_s"] = level.budget_s(pipeline.baseline_latency_s(model))
    report = pipeline.deploy(model, plan, **qos)
    print(report.summary())
    print(f"QoS met: {report.met_qos}")
    if args.timeline:
        write_timeline_csv(report, args.timeline)
        print(f"timeline written to {args.timeline}")
    return 0, None


def cmd_codegen(args: argparse.Namespace) -> Result:
    import pathlib

    from .codegen import generate_firmware

    model = _build_model(args.model)
    plan = load_plan(args.plan)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, contents in generate_firmware(model, plan).items():
        path = outdir / filename
        path.write_text(contents)
        print(f"wrote {path}")
    return 0, None


def cmd_compare(args: argparse.Namespace) -> Result:
    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline()
    out = _out(args)
    print(
        f"{'QoS':>6s} {'TinyEngine':>11s} {'TE+gating':>10s} {'ours':>9s}"
        f" {'vs TE':>7s} {'vs CG':>7s}",
        file=out,
    )
    rows = []
    for percent in args.qos_percents:
        level = QoSLevel(name=f"{percent}%", slack=percent / 100.0)
        row = pipeline.compare(model, level)
        print(
            f"{percent:5d}% {to_mj(row.tinyengine.energy_j):9.3f}mJ"
            f" {to_mj(row.clock_gated.energy_j):8.3f}mJ"
            f" {to_mj(row.ours.energy_j):7.3f}mJ"
            f" {row.savings_vs_tinyengine:7.1%}"
            f" {row.savings_vs_clock_gated:7.1%}",
            file=out,
        )
        rows.append(
            {
                "qos_percent": percent,
                "tinyengine_j": row.tinyengine.energy_j,
                "clock_gated_j": row.clock_gated.energy_j,
                "ours_j": row.ours.energy_j,
                "savings_vs_tinyengine": row.savings_vs_tinyengine,
                "savings_vs_clock_gated": row.savings_vs_clock_gated,
                "met_qos": row.ours.met_qos,
            }
        )
    return 0, {"model": args.model, "rows": rows}


def cmd_microbench(args: argparse.Namespace) -> Result:
    pipeline = DAEDVFSPipeline()
    configs = enumerate_configs(
        hse_choices=[16 * MHZ, 25 * MHZ, 50 * MHZ],
        pllm_choices=[8, 16, 25, 50],
        plln_choices=[75, 100, 150, 216, 336, 432],
        include_hse_direct=True,
    )
    results = sorted(
        (run_addition_loop(pipeline.board, c) for c in configs),
        key=lambda r: (r.config.sysclk_hz, r.power_w),
    )
    for r in results:
        print(
            f"{r.config.describe():>56s}  {r.power_w * 1e3:7.1f} mW  "
            f"{to_ms(r.latency_s):7.3f} ms/Mops"
        )
    return 0, None


def cmd_stream(args: argparse.Namespace) -> Result:
    from .engine import IdlePolicy, run_stream
    from .power import ThermalModelParams, thermal_replay

    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline()
    result = pipeline.optimize(model, **_qos(args))
    policy = IdlePolicy(args.idle)
    stream = run_stream(
        pipeline.runtime, model, result.plan,
        period_s=result.qos_s, windows=args.windows, idle_policy=policy,
    )
    print(
        f"{stream.windows} windows of {to_ms(stream.period_s):.2f} ms "
        f"({policy.value} idle): {stream.total_energy_j * 1e3:.2f} mJ, "
        f"avg {stream.average_power_w * 1e3:.1f} mW, "
        f"{stream.deadline_misses} deadline misses"
    )
    params = ThermalModelParams(
        leakage_ref_w=pipeline.board.power_model.params.p_mcu_leakage_w
    )
    replay = thermal_replay(stream.power_trace(), params, max_step_s=5e-3)
    print(
        f"thermal: peak {replay.peak_temperature_c:.1f} C, "
        f"leakage correction {replay.leakage_correction:+.2%}"
    )
    return 0, None


def cmd_hotspots(args: argparse.Namespace) -> Result:
    from .analysis import identify_hotspots

    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline()
    hotspots = identify_hotspots(
        pipeline.board, model, top_k=args.top
    )
    print(f"{'layer':>26s} {'kind':>10s} {'latency':>9s} {'share':>6s}"
          f" {'DAE':>4s}")
    for h in hotspots:
        print(
            f"{h.layer_name:>26s} {h.layer_kind.value:>10s}"
            f" {to_ms(h.latency_s):7.3f}ms {h.latency_share:6.1%}"
            f" {'yes' if h.supports_dae else 'no':>4s}"
        )
    return 0, None


def cmd_boards(args: argparse.Namespace) -> Result:
    from .boards import DEFAULT_BOARD, board_names, get_spec

    if args.show:
        spec = get_spec(args.show)
        data = spec.to_dict()
        data["digest"] = spec.digest()
        data["default"] = spec.name == DEFAULT_BOARD
        if _json_mode(args):
            return 0, data
        print(f"{spec.name}: {spec.title}")
        print(f"  core {spec.core}, family {spec.family}")
        print(f"  {spec.description}")
        ladder = ", ".join(
            f"{hz / 1e6:g}" for hz in spec.sysclk_ladder_hz()
        )
        print(
            f"  LFO {spec.lfo_hz / 1e6:g} MHz, HFO ladder"
            f" [{ladder}] MHz"
        )
        if spec.npu is not None:
            print(
                f"  NPU {spec.npu.name}:"
                f" {spec.npu.throughput_gops():.0f} GOPS @"
                f" {spec.npu.active_power_w * 1e3:g} mW"
            )
        if spec.calibration:
            print(f"  calibration: {spec.calibration}")
        print(f"  digest: {spec.digest()}")
        return 0, data
    rows = []
    for name in board_names():
        spec = get_spec(name)
        ladder = spec.sysclk_ladder_hz()
        rows.append(
            {
                "name": spec.name,
                "title": spec.title,
                "core": spec.core,
                "family": spec.family,
                "sysclk_max_mhz": max(ladder) / 1e6 if ladder else 0.0,
                "npu": spec.npu.name if spec.npu is not None else None,
                "default": spec.name == DEFAULT_BOARD,
                "digest": spec.digest(),
            }
        )
    payload = {"default": DEFAULT_BOARD, "boards": rows}
    if _json_mode(args):
        return 0, payload
    for row in rows:
        mark = "*" if row["default"] else " "
        npu = f", NPU {row['npu']}" if row["npu"] else ""
        print(
            f"{mark} {row['name']:16s} {row['core']:12s} "
            f"up to {row['sysclk_max_mhz']:g} MHz{npu} -- {row['title']}"
        )
    print("(* = default board; `boards --show NAME` for details)")
    return 0, payload


def cmd_crossboard(args: argparse.Namespace) -> Result:
    from .boards import DEFAULT_BOARD, cross_board_report

    model = _build_model(args.model)
    report = cross_board_report(
        model,
        qos_s=_qos(args).get("qos_s"),
        qos_percent=args.qos_percent,
        boards=args.board or None,
        reference=args.reference or DEFAULT_BOARD,
        solver=args.solver,
    )
    out = _out(args)
    print(
        f"cross-board DSE: {args.model}, budget "
        f"{report['qos_s'] * 1e3:.3f} ms "
        f"(anchored on {report['reference']})",
        file=out,
    )
    for row in report["boards"]:
        if row["feasible"] and row["met_qos"]:
            npu = (
                f", {row['npu_layers']} NPU layers"
                if row["npu_layers"]
                else ""
            )
            print(
                f"  {row['board']:16s} {row['energy_j'] * 1e3:9.4f} mJ"
                f"  {row['latency_s'] * 1e3:8.3f} ms"
                f"  {row['relock_count']} relocks{npu}",
                file=out,
            )
        else:
            reason = (
                f"min {row['min_latency_s'] * 1e3:.3f} ms"
                if row.get("min_latency_s") is not None
                else "infeasible"
            )
            print(
                f"  {row['board']:16s} misses the budget ({reason})",
                file=out,
            )
    winner = report["winner"]
    print(
        f"  winner: {winner if winner else '(none met the budget)'}",
        file=out,
    )
    return 0, report


def cmd_selftest(args: argparse.Namespace) -> Result:
    from .selftest import run_selftest

    result = run_selftest(quick=args.quick)
    print(result.summary(), file=_out(args))
    return (0 if result.ok else 1), result.to_dict()


def cmd_lifetime(args: argparse.Namespace) -> Result:
    model = _build_model(args.model)
    pipeline = DAEDVFSPipeline()
    row = pipeline.compare(model, _qos(args)["qos_level"])
    battery = Battery(capacity_mah=args.capacity_mah)
    duty = DutyCycle(windows_per_hour=args.windows_per_hour)
    out = _out(args)
    print(
        f"battery {battery.capacity_mah:.0f} mAh @ {battery.voltage_v:.1f} V, "
        f"{duty.windows_per_hour:.0f} inferences/hour:",
        file=out,
    )
    systems = {}
    for key, name, report in (
        ("tinyengine", "TinyEngine", row.tinyengine),
        ("clock_gated", "TinyEngine + gating", row.clock_gated),
        ("ours", "DAE + DVFS (ours)", row.ours),
    ):
        life = estimate_lifetime(battery, report, duty)
        print(
            f"  {name:20s} {life.days:8.1f} days "
            f"({life.energy_per_hour_j:.3f} J/h)",
            file=out,
        )
        systems[key] = {
            "days": life.days,
            "energy_per_hour_j": life.energy_per_hour_j,
        }
    return 0, {
        "model": args.model,
        "capacity_mah": battery.capacity_mah,
        "windows_per_hour": duty.windows_per_hour,
        "systems": systems,
    }


def cmd_fleet(args: argparse.Namespace) -> Result:
    from .fleet import (
        FleetScheduler,
        GovernorConfig,
        aggregate_fleet,
        sample_fleet,
        supervise_device,
    )

    model = _build_model(args.model)
    fleet = sample_fleet(
        args.devices, seed=args.seed, boards=(args.board or None)
    )
    scheduler = FleetScheduler(
        model, max_workers=args.workers, **_qos(args)
    )
    results = scheduler.run(fleet, pooled=not args.serial)
    governed = {}
    if args.epochs > 0:
        config = GovernorConfig(epochs=args.epochs)
        for result in results:
            if result.error is None:
                pipeline = scheduler.pipeline_for(result.profile)
                governed[result.device_id] = supervise_device(
                    pipeline, result.profile, model,
                    result.optimized, config,
                )
    qos_s = next(
        (r.optimized.qos_s for r in results if r.error is None), 0.0
    )
    report = aggregate_fleet(model, qos_s, results, governed)
    print(report.summary(), file=_out(args))
    return 0, report.to_dict()


def cmd_chaos(args: argparse.Namespace) -> Result:
    from .faults import ChaosConfig, FaultPlan, run_campaign

    model = _build_model(args.model)
    fault_plan = FaultPlan(
        seed=args.fault_seed,
        hse_dropout_rate=args.hse_dropout_rate,
        pll_lock_timeout_rate=args.pll_timeout_rate,
        sensor_dropout_rate=args.sensor_dropout_rate,
        sensor_stuck_rate=args.sensor_stuck_rate,
        sensor_nack_rate=args.sensor_nack_rate,
        brownout_rate=args.brownout_rate,
        watchdog_rate=args.watchdog_rate,
    )
    config = ChaosConfig(
        devices=args.devices,
        seed=args.seed,
        epochs=args.epochs,
        max_workers=args.workers,
        boards=tuple(args.board) if args.board else None,
    )
    report = run_campaign(model, fault_plan, config)
    print(report.summary(), file=_out(args))
    return 0, report.to_dict()


def cmd_scenario(args: argparse.Namespace) -> Result:
    from .scenario import build_preset, list_presets, run_scenario

    if args.list:
        presets = list_presets()
        if not _json_mode(args):
            for row in presets:
                print(f"{row['name']:18s} {row['description']}")
        return 0, {"presets": presets}
    if args.resume:
        from .scenario import resume_scenario

        report = resume_scenario(args.resume)
        print(report.summary(), file=_out(args))
        return 0, report.to_dict()
    if not args.preset:
        raise ReproError(
            "scenario: provide a preset name (or --list to see them)"
        )
    config = build_preset(
        args.preset,
        devices=args.devices,
        horizon_s=(
            args.horizon_hours * 3600.0
            if args.horizon_hours is not None
            else None
        ),
        seed=args.seed,
    )
    if args.oracle_stride is not None:
        config.oracle_stride = args.oracle_stride
    if args.board:
        config.boards = tuple(args.board)
    if args.checkpoint:
        report = _run_with_checkpoint(
            config, args.checkpoint, args.checkpoint_events
        )
    else:
        report = run_scenario(config)
    print(report.summary(), file=_out(args))
    return 0, report.to_dict()


def _run_with_checkpoint(config, path: str, after_events: int):
    """Run a scenario, snapshotting after N dispatched events.

    The run continues to completion after the snapshot, so the same
    invocation yields both the full report and a resume point
    (``scenario --resume PATH`` replays the remainder and must digest
    identically).
    """
    from .recovery import save_checkpoint
    from .scenario import ScenarioEngine

    engine = ScenarioEngine(config)
    try:
        engine.start()
        saved = False
        while True:
            if not saved and engine.events_processed >= after_events:
                save_checkpoint(engine.checkpoint(), path)
                saved = True
            if not engine.step():
                break
        if not saved:  # horizon shorter than the requested boundary
            save_checkpoint(engine.checkpoint(), path)
        return engine.finish()
    finally:
        engine.close()


def _serve_config(args: argparse.Namespace):
    from .serve import ServeConfig

    return ServeConfig(
        # ``plan`` never binds, so it defines neither --host nor --port.
        host=getattr(args, "host", None) or "127.0.0.1",
        port=getattr(args, "port", None) or 0,
        solver=args.solver,
        cache_enabled=not args.no_cache,
        cache_capacity=args.cache_capacity,
        batch_enabled=not args.no_batch,
        batch_window_s=args.batch_window_ms * 1e-3,
        max_batch=args.max_batch,
        workers=args.workers,
        stateless=args.stateless,
        max_queue_depth=args.max_queue_depth,
        rate_per_s=args.rate,
        burst=args.bucket_burst,
        admission_tick_s=(
            args.admission_tick_ms * 1e-3
            if args.admission_tick_ms is not None
            else None
        ),
        default_deadline_s=args.default_deadline_s,
    )


def cmd_serve(args: argparse.Namespace) -> Result:
    import asyncio

    from .serve import PlanServer

    config = _serve_config(args)
    config.default_board = args.board

    async def _run() -> None:
        server = PlanServer(config)
        await server.start()
        print(
            f"repro-dvfs serve listening on {config.host}:{server.port} "
            f"(cache={'on' if server.service.cache_enabled else 'off'}, "
            f"batch={'on' if server.batcher.enabled else 'off'}, "
            f"workers={config.workers})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("draining and shutting down", file=sys.stderr)
    return 0, None


def cmd_loadgen(args: argparse.Namespace) -> Result:
    from .serve import LoadGenConfig, run_loadgen

    config = LoadGenConfig(
        model=args.model,
        board=args.board,
        models=tuple(args.models or ()),
        qos_percents=tuple(args.qos_percents),
        requests=args.requests,
        concurrency=args.concurrency,
        clients=args.clients,
        seed=args.seed,
        burst=args.burst,
        open_loop=args.open_loop,
        arrival_rate_rps=args.arrival_rate,
        deadline_s=args.deadline_s,
        slo_p95_ms=args.slo_p95_ms,
        slo_p99_ms=args.slo_p99_ms,
        verify_digests=not args.no_verify,
        serve=_serve_config(args),
        target_host=args.host,
        target_port=args.port,
    )
    summary = run_loadgen(config)
    out = _out(args)
    latency = summary["latency"]
    print(
        f"{summary['ok']}/{summary['requests']} ok, "
        f"{summary['sheds']} shed, "
        f"{summary['cached_responses']} cached, "
        f"{summary['throughput_rps']:.1f} req/s over "
        f"{summary['wall_s']:.3f} s",
        file=out,
    )
    print(
        f"latency p50 {latency['p50_s'] * 1e3:.2f} ms, "
        f"p95 {latency['p95_s'] * 1e3:.2f} ms, "
        f"p99 {latency['p99_s'] * 1e3:.2f} ms",
        file=out,
    )
    if summary["digest_checks"]:
        print(
            f"cache consistency: {summary['digest_checks']} digests "
            f"checked, {summary['digest_mismatches']} mismatches",
            file=out,
        )
    for name, gate in summary.get("slo", {}).items():
        print(
            f"SLO {name}: {gate['attained_ms']:.2f} ms attained vs "
            f"{gate['target_ms']:.2f} ms target "
            f"({'met' if gate['met'] else 'MISSED'})",
            file=out,
        )
    ok = summary["cache_consistent"] and summary["slo_met"]
    return (0 if ok else 1), summary


def cmd_plan(args: argparse.Namespace) -> Result:
    """One plan request through the full in-process serve path.

    Unlike ``optimize`` (which calls the pipeline directly), this
    routes the request through :class:`~repro.serve.server.PlanServer`
    -- admission, batcher, plan cache, planner pool -- so a ``--trace``
    run captures the whole span tree ``serve.request -> serve.batch ->
    serve.plan -> pipeline.optimize -> dse.explore -> mckp.solve``
    under one correlation ID (the request ID).  The server is fresh,
    so the request is always a miss; a warm hit on a long-lived
    server is answered on the event loop as just ``serve.request ->
    serve.plan``.
    """
    import asyncio

    from .serve import PlanServer
    from .serve.protocol import ErrorPayload, exception_from_error

    _build_model(args.model)  # fail fast on unknown models
    config = _serve_config(args)
    params: Dict[str, Any] = {"model": args.model}
    if args.qos_percent is not None:
        params["qos_percent"] = args.qos_percent
    else:
        params["qos_ms"] = args.qos_ms
    if args.no_cache:
        params["no_cache"] = True
    if args.board:
        params["board"] = args.board
    request = {
        "v": 1,
        "id": args.request_id,
        "op": "plan",
        "params": params,
    }

    async def _run() -> Dict[str, Any]:
        server = PlanServer(config)  # in-process: never bound to TCP
        try:
            return await server.handle_request_dict(request)
        finally:
            server.batcher.shutdown()

    response = asyncio.run(_run())
    if not response.get("ok", False):
        raise exception_from_error(
            ErrorPayload.from_dict(response.get("error", {}))
        )
    result = dict(response["result"])
    out = _out(args)
    qos = result["qos"]
    print(
        f"{args.model}: baseline "
        f"{to_ms(result['baseline_latency_s']):.3f} ms, "
        f"budget {to_ms(qos['budget_s']):.3f} ms, "
        f"{'cached' if result.get('cached') else 'planned'} "
        f"(digest {result['digest'][:12]}...)",
        file=out,
    )
    # The trace and metrics summaries ride outside the core payload:
    # result["digest"] was computed server-side before either attached.
    return 0, result


def cmd_obs(args: argparse.Namespace) -> Result:
    """Inspect a JSONL trace: digest, span counts, optional conversion."""
    from collections import Counter

    from .obs.export import (
        chrome_trace,
        dicts_to_records,
        load_jsonl,
        trace_digest,
    )

    entries = load_jsonl(args.trace_file)
    records = dicts_to_records(entries)
    names = Counter(r.name for r in records)
    correlations = sorted(
        {r.correlation for r in records if r.correlation is not None}
    )
    digest = trace_digest(records)
    out = _out(args)
    print(
        f"{args.trace_file}: {len(records)} spans, "
        f"{len(correlations)} correlation IDs, digest {digest}",
        file=out,
    )
    for name, count in sorted(names.items()):
        print(f"  {name:24s} {count:6d}", file=out)
    chrome_path = None
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(records), fh, sort_keys=True)
        chrome_path = args.chrome
        print(f"chrome trace written to {chrome_path}", file=out)
    return 0, {
        "path": args.trace_file,
        "spans": len(records),
        "digest": digest,
        "names": dict(sorted(names.items())),
        "correlations": correlations,
        "chrome": chrome_path,
    }


def _load_metrics_snapshot(path: str) -> Dict[str, Any]:
    """Load a registry snapshot from a ``--metrics`` file.

    Accepts both the wrapped document ``{"registry": ..., "digest":
    ...}`` the flag writes (the digest is re-verified) and a bare
    registry snapshot.
    """
    from .obs.registry import snapshot_digest

    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as err:
        raise ReproError(
            f"monitor: cannot read snapshot {path!r}: {err}"
        ) from err
    if not isinstance(document, dict):
        raise ReproError(
            f"monitor: {path} is not a metrics snapshot document"
        )
    snapshot = document.get("registry", document)
    expected = document.get("digest")
    if "registry" in document and expected is not None:
        actual = snapshot_digest(snapshot)
        if actual != expected:
            raise ReproError(
                f"monitor: {path} digest mismatch (file claims "
                f"{expected[:12]}..., content hashes to "
                f"{actual[:12]}...)"
            )
    for section in ("counters", "gauges", "histograms"):
        snapshot.setdefault(section, {})
    return snapshot


def _fetch_metrics(host: str, port: int) -> Dict[str, Any]:
    """Pull a live server's ``metrics`` op over TCP."""
    import asyncio

    from .serve.client import ServeClient

    async def _run() -> Dict[str, Any]:
        client = ServeClient(host, port, client_id="monitor")
        try:
            await client.connect()
            return await client.request("metrics")
        finally:
            await client.close()

    try:
        return asyncio.run(_run())
    except (ConnectionError, OSError) as err:
        raise ReproError(
            f"monitor: cannot reach {host}:{port}: {err}"
        ) from err


def cmd_monitor(args: argparse.Namespace) -> Result:
    """Tail, roll up, lint, and SLO-check registry snapshots.

    One snapshot tails the registry as a single window-sized delta
    from empty; two snapshots (start, end) roll the exact delta
    between them.  ``--connect HOST:PORT`` pulls the snapshot from a
    live server's ``metrics`` protocol op instead of a file.
    """
    from .obs.prom import lint_exposition, to_prometheus
    from .obs.registry import snapshot_digest
    from .obs.series import SeriesStore, rollup_between
    from .obs.slo import (
        SLOEvaluator,
        default_scenario_slos,
        default_serve_slos,
        signal_value,
    )

    if args.interval <= 0:
        raise ReproError("monitor: --interval must be positive")
    if args.connect and args.snapshots:
        raise ReproError(
            "monitor: give snapshot files or --connect, not both"
        )
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            raise ReproError(
                f"monitor: --connect wants HOST:PORT, got "
                f"{args.connect!r}"
            )
        result = _fetch_metrics(host, int(port_text))
        snapshots = [result.get("registry", {})]
        sources = [args.connect]
    elif args.snapshots:
        if len(args.snapshots) > 2:
            raise ReproError(
                "monitor: at most two snapshots (start end), got "
                f"{len(args.snapshots)}"
            )
        snapshots = [_load_metrics_snapshot(p) for p in args.snapshots]
        sources = list(args.snapshots)
    else:
        raise ReproError(
            "monitor: provide snapshot file(s) or --connect HOST:PORT"
        )
    interval = float(args.interval)
    if len(snapshots) == 2:
        start, end = snapshots
    else:
        start, end = {}, snapshots[0]
    rollup = rollup_between(start, end, interval)
    digest = snapshot_digest(end)
    out = _out(args)
    print(
        f"monitor: {' -> '.join(sources)} "
        f"(interval {interval:g} s, digest {digest[:12]}...)",
        file=out,
    )

    def _cell_name(family: str, label_repr: str) -> str:
        return f"{family}{{{label_repr}}}" if label_repr else family

    for family, cells in sorted(rollup["counters"].items()):
        for label_repr, cell in sorted(cells.items()):
            print(
                f"  counter   {_cell_name(family, label_repr):44s} "
                f"+{cell['delta']:g} ({cell['rate_per_s']:g}/s)",
                file=out,
            )
    for family, cells in sorted(rollup["gauges"].items()):
        for label_repr, cell in sorted(cells.items()):
            print(
                f"  gauge     {_cell_name(family, label_repr):44s} "
                f"{cell['last']:g}",
                file=out,
            )
    for family, cells in sorted(rollup["histograms"].items()):
        for label_repr, cell in sorted(cells.items()):
            print(
                f"  histogram {_cell_name(family, label_repr):44s} "
                f"n={cell['delta_count']:g} "
                f"p50 {cell['p50_s'] * 1e3:.3f} ms, "
                f"p95 {cell['p95_s'] * 1e3:.3f} ms, "
                f"p99 {cell['p99_s'] * 1e3:.3f} ms",
                file=out,
            )
    payload: Dict[str, Any] = {
        "sources": sources,
        "digest": digest,
        "interval_s": interval,
        "families": {
            section: len(end.get(section, {}))
            for section in ("counters", "gauges", "histograms")
        },
        "rollup": rollup,
    }
    rc = 0
    if args.slo:
        store = SeriesStore(capacity=2)
        store.sample(0.0, start)
        store.sample(interval, end)
        evaluator = SLOEvaluator(
            default_serve_slos() + default_scenario_slos()
        )
        evaluator.evaluate(store, interval)
        active = evaluator.active()
        rows = []
        for slo in evaluator.slos:
            measured, weight = signal_value(slo.signal, rollup)
            rows.append(
                {
                    "name": slo.name,
                    "severity": slo.severity,
                    "objective": slo.objective,
                    "comparator": slo.comparator,
                    "measured": measured,
                    "weight": weight,
                    "burn": (
                        slo.burn(measured)
                        if measured is not None
                        else None
                    ),
                    "firing": slo.name in active,
                }
            )
        for row in rows:
            if row["measured"] is None:
                verdict, measured_text = "no data", "-"
            else:
                verdict = "FIRING" if row["firing"] else "ok"
                measured_text = f"{row['measured']:g}"
            print(
                f"  slo       {row['name']:44s} {verdict:7s} "
                f"measured {measured_text} vs {row['comparator']} "
                f"{row['objective']:g}",
                file=out,
            )
        payload["slo"] = {
            "rows": rows,
            "alerts": evaluator.timeline(),
            "active": active,
        }
    exposition: Optional[str] = None
    if args.prom is not None or args.lint:
        exposition = to_prometheus(end)
    if args.prom is not None:
        if args.prom == "-":
            print(exposition, end="", file=out)
            payload["exposition"] = exposition
        else:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(exposition)
            print(f"exposition written to {args.prom}", file=out)
            payload["prom_path"] = args.prom
    if args.lint:
        problems = lint_exposition(exposition)
        payload["lint"] = problems
        if problems:
            for problem in problems:
                print(f"  lint: {problem}", file=out)
            rc = 1
        else:
            print("  lint: exposition clean", file=out)
    return rc, payload


def make_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dvfs",
        description="DAE-enabled DVFS for tinyML on STM32 (DATE 2024 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = []

    def command(name, func, help, json=None, trace=False, metrics=False):
        """Register a subcommand; ``json`` names its payload, if any.

        Every namespace carries ``json``/``trace``/``metrics`` (None
        where the command lacks the flag) for :func:`main`; the flags
        themselves follow the command's own options in ``--help``.
        """
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, json=None, trace=None, metrics=None)
        shared.append((p, json, trace, metrics))
        return p

    def add_model(p):
        p.add_argument("model", help=f"one of {sorted(MODEL_BUILDERS)}")

    def add_qos(p, required=False, absolute=True):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument(
            "--qos-percent", type=float,
            help="latency slack over the TinyEngine baseline, in percent",
        )
        if absolute:
            group.add_argument(
                "--qos-ms", type=float, help="absolute latency budget in ms"
            )

    def add_board(p):
        p.add_argument(
            "--board", metavar="NAME", default=None,
            help="registry board target (see `repro-dvfs boards`)",
        )

    def add_board_mix(p):
        p.add_argument(
            "--board", metavar="NAME", action="append", default=None,
            help=(
                "registry board target; repeat the flag to mix a"
                " heterogeneous fleet (see `repro-dvfs boards`)"
            ),
        )

    p = command("summary", cmd_summary, help="print a model's layer table")
    add_model(p)

    p = command(
        "optimize", cmd_optimize, help="produce a deployment plan",
        json="plan payload (with sha256 digest)",
    )
    add_model(p)
    add_qos(p, required=True)
    add_board(p)
    p.add_argument("--solver", choices=("dp", "greedy"), default="dp")
    p.add_argument("--harmonize", action="store_true",
                   help="run the re-lock reduction pass on the plan")
    p.add_argument("--output", "-o", help="write the plan JSON here")

    p = command("deploy", cmd_deploy, help="execute a saved plan")
    add_model(p)
    add_qos(p)
    p.add_argument("--plan", required=True, help="plan JSON to execute")
    p.add_argument("--timeline", help="write a CSV execution timeline here")

    p = command(
        "codegen", cmd_codegen,
        help="emit C firmware scaffolding from a saved plan",
    )
    add_model(p)
    p.add_argument("--plan", required=True, help="plan JSON to translate")
    p.add_argument("--outdir", default=".", help="output directory")

    p = command(
        "compare", cmd_compare, help="ours vs the TinyEngine baselines",
        json="comparison table",
    )
    add_model(p)
    p.add_argument(
        "--qos-percents", type=int, nargs="+", default=[10, 30, 50]
    )

    p = command(
        "microbench", cmd_microbench,
        help="Fig. 2 style clock/power characterization",
    )

    p = command(
        "stream", cmd_stream,
        help="periodic-window streaming + thermal replay",
    )
    add_model(p)
    add_qos(p)
    p.add_argument("--windows", type=int, default=100)
    p.add_argument(
        "--idle", choices=("hot", "gated", "stop"), default="gated"
    )

    p = command(
        "hotspots", cmd_hotspots,
        help="rank layers by baseline latency (Step 1A)",
    )
    add_model(p)
    p.add_argument("--top", type=int, default=10)

    p = command(
        "boards", cmd_boards, help="list the registered board targets",
        json="board descriptor(s)",
    )
    p.add_argument(
        "--list", action="store_true",
        help="enumerate the boards (the default action)",
    )
    p.add_argument(
        "--show", metavar="NAME", default=None,
        help="print one board's full descriptor",
    )

    p = command(
        "crossboard", cmd_crossboard,
        help="cross-board DSE: which board meets a QoS at least energy",
        json="cross-board ranking (with sha256 digest)", trace=True,
    )
    add_model(p)
    add_qos(p, required=True)
    add_board_mix(p)
    p.add_argument(
        "--reference", metavar="NAME", default=None,
        help=(
            "board whose TinyEngine baseline anchors a relative"
            " --qos-percent budget (default: the registry default)"
        ),
    )
    p.add_argument("--solver", choices=("dp", "greedy"), default="dp")

    p = command(
        "selftest", cmd_selftest, help="fast installation sanity sweep",
        json="check results",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="only the cheap structural checks (the serve health subset)",
    )

    p = command(
        "fleet", cmd_fleet,
        help="plan a heterogeneous device fleet and supervise drift",
        json="full fleet report", trace=True, metrics=True,
    )
    p.add_argument(
        "model", nargs="?", default="tiny",
        help=f"one of {sorted(MODEL_BUILDERS)} (default: tiny)",
    )
    add_qos(p)
    p.add_argument(
        "--devices", type=int, default=100, help="fleet size"
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="root seed of the device-variation sampler",
    )
    p.add_argument(
        "--workers", type=int, default=4, help="planning thread-pool width"
    )
    p.add_argument(
        "--serial", action="store_true",
        help="plan on the calling thread instead of the pool",
    )
    p.add_argument(
        "--epochs", type=int, default=10,
        help="governor telemetry epochs per device (0 disables)",
    )
    add_board_mix(p)

    p = command(
        "chaos", cmd_chaos,
        help="seeded fault-injection campaign over a fleet",
        json="survival report", trace=True, metrics=True,
    )
    p.add_argument(
        "model", nargs="?", default="tiny",
        help=f"one of {sorted(MODEL_BUILDERS)} (default: tiny)",
    )
    p.add_argument("--devices", type=int, default=64, help="fleet size")
    p.add_argument(
        "--seed", type=int, default=0,
        help="device-variation sampling seed",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="root seed of the fault streams",
    )
    p.add_argument(
        "--epochs", type=int, default=4,
        help="governor telemetry epochs per device",
    )
    p.add_argument(
        "--workers", type=int, default=4, help="planning thread-pool width"
    )
    p.add_argument(
        "--hse-dropout-rate", type=float, default=0.02,
        help="HSE failure probability per oscillator (re)start",
    )
    p.add_argument(
        "--pll-timeout-rate", type=float, default=0.05,
        help="PLL lock-timeout probability per lock wait",
    )
    p.add_argument(
        "--sensor-dropout-rate", type=float, default=0.05,
        help="lost INA219 conversion probability per sample",
    )
    p.add_argument(
        "--sensor-stuck-rate", type=float, default=0.02,
        help="frozen power-register probability per measurement",
    )
    p.add_argument(
        "--sensor-nack-rate", type=float, default=0.02,
        help="I2C NACK probability per measurement",
    )
    p.add_argument(
        "--brownout-rate", type=float, default=0.05,
        help="supply-sag probability per telemetry epoch",
    )
    p.add_argument(
        "--watchdog-rate", type=float, default=0.002,
        help="watchdog-reset probability per layer checkpoint",
    )
    add_board_mix(p)

    p = command(
        "scenario", cmd_scenario,
        help="simulate a fleet lifecycle preset over simulated days",
        json="scenario report", trace=True, metrics=True,
    )
    p.add_argument(
        "preset", nargs="?", default=None,
        help="scenario preset name (see --list)",
    )
    p.add_argument(
        "--list", action="store_true",
        help="enumerate the scenario presets and exit",
    )
    p.add_argument(
        "--devices", type=int, default=None,
        help="override the preset's initial fleet size",
    )
    p.add_argument(
        "--horizon-hours", type=float, default=None,
        help="override the preset's simulated span",
    )
    p.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's root seed",
    )
    p.add_argument(
        "--oracle-stride", type=int, default=None,
        help="twin every Nth device with a clairvoyant oracle"
        " (0 disables the gap metric)",
    )
    p.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="snapshot the run state to PATH after --checkpoint-events"
        " dispatched events (the run still completes)",
    )
    p.add_argument(
        "--checkpoint-events", type=int, default=8,
        help="event boundary the --checkpoint snapshot is taken at",
    )
    p.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume a checkpointed run to completion (digest-identical"
        " to the uninterrupted run); no preset needed",
    )
    add_board_mix(p)

    p = command(
        "lifetime", cmd_lifetime, help="battery-lifetime projection",
        json="lifetime projection",
    )
    add_model(p)
    add_qos(p, absolute=False)  # compare is defined at a slack level
    p.add_argument("--capacity-mah", type=float, default=1200.0)
    p.add_argument("--windows-per-hour", type=float, default=60.0)

    def add_serve_tuning(p):
        p.add_argument(
            "--solver", choices=("dp", "greedy"), default="dp"
        )
        p.add_argument(
            "--workers", type=int, default=4,
            help="planner thread-pool width",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the LRU plan cache",
        )
        p.add_argument("--cache-capacity", type=int, default=256)
        p.add_argument(
            "--no-batch", action="store_true",
            help="disable request coalescing",
        )
        p.add_argument(
            "--batch-window-ms", type=float, default=2.0,
            help="micro-batch collection window",
        )
        p.add_argument("--max-batch", type=int, default=32)
        p.add_argument(
            "--stateless", action="store_true",
            help="cold pipeline per request (the batch-CLI baseline)",
        )
        p.add_argument(
            "--max-queue-depth", type=int, default=64,
            help="in-flight bound before shedding with queue_full",
        )
        p.add_argument(
            "--rate", type=float, default=None,
            help="token-bucket admission rate (requests/s)",
        )
        p.add_argument(
            "--bucket-burst", type=float, default=None,
            help="token-bucket capacity (defaults to 1)",
        )
        p.add_argument(
            "--admission-tick-ms", type=float, default=None,
            help=(
                "advance the limiter clock this much per admission"
                " check (deterministic shedding)"
            ),
        )
        p.add_argument(
            "--default-deadline-s", type=float, default=None,
            help="deadline applied to requests that carry none",
        )

    p = command(
        "serve", cmd_serve,
        help="JSON-lines planning service over TCP (Ctrl-C to drain)",
        trace=True, metrics=True,
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7070,
        help="TCP port to bind (0 picks a free one)",
    )
    add_board(p)
    add_serve_tuning(p)

    p = command(
        "plan", cmd_plan,
        help="one plan request through the in-process serve path",
        json="served plan payload (with sha256 digest)", trace=True,
        metrics=True,
    )
    add_model(p)
    add_qos(p, required=True)
    p.add_argument(
        "--request-id", default="plan-1",
        help=(
            "request (and trace correlation) ID; deterministic by"
            " default so --trace digests reproduce"
        ),
    )
    add_board(p)
    add_serve_tuning(p)

    p = command(
        "obs", cmd_obs,
        help="inspect a recorded JSONL trace (digest, spans, convert)",
        json="trace summary",
    )
    p.add_argument("trace_file", help="JSONL trace from --trace")
    p.add_argument(
        "--chrome", metavar="PATH",
        help="also convert to Chrome/Perfetto trace JSON here",
    )

    p = command(
        "monitor",
        cmd_monitor,
        help=(
            "tail/rollup/lint/SLO-check registry snapshots"
            " (--metrics files or a live server's metrics op)"
        ),
        json="monitor report",
    )
    p.add_argument(
        "snapshots", nargs="*", metavar="SNAPSHOT",
        help=(
            "one --metrics JSON file (tail from zero) or two"
            " (start end: exact delta rollup)"
        ),
    )
    p.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="pull a live server's `metrics` op instead of files",
    )
    p.add_argument(
        "--interval", type=float, default=60.0,
        help="seconds the rollup window spans (rates divide by this)",
    )
    p.add_argument(
        "--prom", nargs="?", const="-", metavar="PATH", default=None,
        help=(
            "render Prometheus text exposition (to PATH; bare flag"
            " prints it inline)"
        ),
    )
    p.add_argument(
        "--lint", action="store_true",
        help="schema-check the exposition; exit 1 on problems",
    )
    p.add_argument(
        "--slo", action="store_true",
        help="judge the default serve+scenario SLOs on the rollup",
    )

    p = command(
        "loadgen",
        cmd_loadgen,
        help=(
            "seeded load generator for the serve layer (closed-loop,"
            " burst, multi-client open-loop with SLO gates)"
        ),
        json="load-generation summary",
    )
    p.add_argument(
        "--model", default="tiny",
        help=f"one of {sorted(MODEL_BUILDERS)} (default: tiny)",
    )
    p.add_argument(
        "--qos-percents", type=float, nargs="+",
        default=[10.0, 30.0, 50.0],
        help="QoS slack values the seeded schedule draws from",
    )
    p.add_argument(
        "--models", nargs="+", default=None,
        help="mixed traffic: draw each request's model from this set",
    )
    p.add_argument("--requests", type=int, default=64)
    p.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop workers (ignored with --burst/--open-loop)",
    )
    p.add_argument(
        "--clients", type=int, default=1,
        help="independent client identities sharing the load",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="request-schedule seed"
    )
    p.add_argument(
        "--burst", action="store_true",
        help="submit every request at once (deterministic overload)",
    )
    p.add_argument(
        "--open-loop", action="store_true",
        help="dispatch on a fixed arrival timetable instead of"
             " closed-loop",
    )
    p.add_argument(
        "--arrival-rate", type=float, default=200.0,
        help="open-loop arrival rate (requests/s)",
    )
    p.add_argument(
        "--slo-p95-ms", type=float, default=None,
        help="gate the run on attained p95 latency",
    )
    p.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="gate the run on attained p99 latency",
    )
    p.add_argument(
        "--deadline-s", type=float, default=None,
        help="per-request deadline",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the cached-vs-cold digest cross-check",
    )
    add_board(p)
    p.add_argument(
        "--host", default=None,
        help="drive an external server instead of an in-process one",
    )
    p.add_argument("--port", type=int, default=None)
    add_serve_tuning(p)

    for p, what, trace, metrics in shared:
        if what:
            p.add_argument(
                "--json", nargs="?", const="-", metavar="PATH",
                help=(
                    f"emit the {what} as JSON on stdout (human text moves"
                    " to stderr); with PATH, also write it there"
                ),
            )
        if trace:
            p.add_argument(
                "--trace", metavar="PATH",
                help=(
                    "record an execution trace and write it here (.jsonl"
                    " for the native format, anything else for"
                    " Chrome/Perfetto JSON)"
                ),
            )
        if metrics:
            p.add_argument(
                "--metrics", metavar="PATH",
                help=(
                    "write the final metrics-registry snapshot here as"
                    " canonical JSON with its sha256 digest (inspect with"
                    " `repro-dvfs monitor PATH`)"
                ),
            )
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point.

    Returns 0 on success, 1 on a :class:`~repro.errors.ReproError`
    (or a failed check); argparse exits with 2 on usage errors.
    """
    args = make_parser().parse_args(argv)
    tracer = _trace_begin(args)
    rc, payload = 1, None
    try:
        rc, payload = args.func(args)
    except ReproError as err:
        from .serve.protocol import error_from_exception

        print(f"error: {err}", file=sys.stderr)
        payload = {"ok": False, "error": error_from_exception(err).to_dict()}
    finally:
        # Failed runs keep their artifacts and never leak the tracer.
        _trace_finish(args, tracer, payload)
        _metrics_finish(args, payload)
    if payload is not None and _json_mode(args):
        _emit_json(args, payload)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
