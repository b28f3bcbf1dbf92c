"""The scenario engine: a seeded fleet lifecycle simulator.

Composes every layer the repo already has into one discrete-event
simulation over simulated days: arrival generators decide which
devices run QoS windows each tick, per-device governors supervise
drift (battery sag, thermal pick-flips, staged faults) with injected
simulated timestamps, churn events grow and shrink the fleet, and
every re-plan the governors want is routed through the serve tier's
admission control before it is applied -- the closed loop between the
device fleet and planning-as-a-service.

Determinism is the design axiom: the event queue orders on
``(time, priority, insertion)``, every stochastic stream is a spawned
``SeedSequence`` child keyed by purpose and device, no wall-clock
value enters any decision, and the final :class:`ScenarioReport`
digests bit-exactly.  A scenario with no events layered on (constant
arrivals, flat ambient, no churn, no faults, admission always open)
collapses to the plain fleet epoch path -- same fleet digest.
"""

from __future__ import annotations

import asyncio
import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..analysis.battery import Battery
from ..errors import ReproError
from ..faults.campaign import (
    SCENARIO_STAGE_BASE,
    CampaignClocks,
    FaultCampaign,
)
from ..faults.plan import FaultKind
from ..fleet.governor import DeviceState, FleetGovernor, GovernorConfig
from ..fleet.report import FleetReport, aggregate_fleet
from ..fleet.scheduler import DeviceResult, FleetScheduler
from ..fleet.variation import (
    DeviceProfile,
    VariationModel,
    sample_device,
)
from ..power.model import PowerModelParams
from ..nn import PAPER_MODELS, build_tiny_test_model
from ..obs.audit import get_audit_log
from ..obs.registry import get_registry, merge_snapshot, snapshot_digest
from ..obs.series import SeriesStore, subtract_snapshot
from ..obs.slo import (
    SLOEvaluator,
    default_scenario_slos,
    simulation_projection,
)
from ..obs.tracing import span
from ..optimize import QoSLevel
from ..recovery.checkpoint import ScenarioCheckpoint, load_checkpoint
from ..serve.admission import ArrivalClock
from ..serve.server import PlanServer, ServeConfig
from .arrivals import ArrivalModel, ConstantArrivals
from .churn import ChurnModel, ChurnProcess
from .environment import AmbientCycle
from .events import EventKind, EventQueue, SimClock
from .oracle import OracleTwin
from .report import ScenarioReport

_MODEL_BUILDERS = {**PAPER_MODELS, "tiny": build_tiny_test_model}


@dataclass
class ScenarioConfig:
    """Everything one scenario run is built from.

    Attributes:
        name: label carried into the report (presets set theirs).
        model_name: deployed network (must be known to the serve tier).
        qos_percent: latency slack relative to the baseline.
        devices: fleet size at t=0.
        horizon_s: simulated span.
        tick_s: engine tick; each active device runs one telemetry
            epoch per tick it has demand in.
        seed: root seed for fleet sampling.
        governor: per-device supervision tuning (``epochs`` is unused;
            the engine drives :meth:`~repro.fleet.governor.FleetGovernor.step`
            on scenario time).
        arrivals / ambient / churn / campaign: the lifecycle layers.
        serve: admission/control-plane configuration of the in-loop
            serve tier (None = always-admit defaults, batching off --
            micro-batch windows are wall-clock and pointless when the
            engine submits sequentially).
        oracle_stride: twin every Nth initial device with a
            clairvoyant oracle (0 disables the gap metric).
        storm_threshold: replan intents in one tick that count the
            tick as a replan storm.
        boards: registry names to mix the fleet across (devices are
            assigned round-robin-free from a dedicated seed stream, as
            :func:`repro.fleet.variation.sample_fleet` does).  ``None``
            keeps the homogeneous default-board pool -- and the
            scenario digest -- byte-identical to pre-registry runs.
        monitor: sample the wall-clock-free registry projection into a
            :class:`~repro.obs.series.SeriesStore` every tick, judge
            the scenario SLOs on it, and embed the resulting ``health``
            section in the report.  Off for the zero-event preset,
            whose digest is pinned to the pre-monitor tree.
        monitor_capacity: ring size of the health series (samples).
        monitor_window_s: rollup window of the report's health section
            (sim seconds).
    """

    name: str = "custom"
    model_name: str = "tiny"
    qos_percent: float = 30.0
    devices: int = 100
    horizon_s: float = 3600.0
    tick_s: float = 60.0
    seed: int = 0
    governor: GovernorConfig = field(
        default_factory=lambda: GovernorConfig(max_replans=64)
    )
    arrivals: ArrivalModel = field(default_factory=ConstantArrivals)
    ambient: AmbientCycle = field(default_factory=AmbientCycle)
    churn: ChurnModel = field(default_factory=ChurnModel)
    campaign: Optional[FaultCampaign] = None
    serve: Optional[ServeConfig] = None
    oracle_stride: int = 0
    storm_threshold: int = 10
    boards: Optional[Tuple[str, ...]] = None
    monitor: bool = True
    monitor_capacity: int = 256
    monitor_window_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.model_name not in _MODEL_BUILDERS:
            raise ReproError(
                f"unknown model {self.model_name!r}; choose from "
                f"{sorted(_MODEL_BUILDERS)}"
            )
        if self.devices < 1:
            raise ReproError("devices must be >= 1")
        if self.horizon_s <= 0:
            raise ReproError("horizon_s must be positive")
        if self.tick_s <= 0:
            raise ReproError("tick_s must be positive")
        if self.oracle_stride < 0:
            raise ReproError("oracle_stride must be >= 0")
        if self.storm_threshold < 1:
            raise ReproError("storm_threshold must be >= 1")
        if self.monitor_capacity < 2:
            raise ReproError("monitor_capacity must be >= 2")
        if self.monitor_window_s <= 0:
            raise ReproError("monitor_window_s must be positive")
        if self.boards is not None:
            if not self.boards:
                raise ReproError("boards must be None or non-empty")
            self.boards = tuple(self.boards)
            from ..boards.registry import get_spec

            for name in self.boards:
                get_spec(name)  # raises BoardError on unknown names

    def describe(self) -> Dict:
        """JSON-ready generator description (digested in the report).

        The ``boards`` key appears only when the scenario mixes board
        targets, so default-board scenario digests pin byte-identically
        across the registry refactor; the ``monitor`` key likewise
        appears only when health monitoring is on, so monitor-off runs
        (the zero-event pin) digest as before the monitor existed.
        """
        data = {
            "arrivals": self.arrivals.describe(),
            "ambient": self.ambient.to_dict(),
            "churn": self.churn.to_dict(),
            "campaign": (
                self.campaign.to_dict()
                if self.campaign is not None
                else None
            ),
            "serve": {
                # Retired option; the three test_drift_pins digests hash it.
                "shards": 0,
                "rate_per_s": (
                    self.serve.rate_per_s
                    if self.serve is not None
                    else None
                ),
                "burst": (
                    self.serve.burst if self.serve is not None else None
                ),
                "max_queue_depth": (
                    self.serve.max_queue_depth
                    if self.serve is not None
                    else None
                ),
            },
            "governor": {
                "epoch_s": self.governor.epoch_s,
                "drift_threshold": self.governor.drift_threshold,
                "max_replans": self.governor.max_replans,
            },
            "oracle_stride": self.oracle_stride,
            "storm_threshold": self.storm_threshold,
        }
        if self.boards is not None:
            data["boards"] = list(self.boards)
        if self.monitor:
            data["monitor"] = {
                "capacity": self.monitor_capacity,
                "window_s": self.monitor_window_s,
            }
        return data


class ServeBridge:
    """Synchronous client for the in-loop serve tier.

    Owns a private asyncio loop and drives the server's in-process
    dict entry point -- no sockets, no wall-clock in any decision.
    Admission (the part the scenario observes) is deterministic when
    the serve config pins ``admission_tick_s``; the bridge's own
    counters are pure functions of the request sequence.
    """

    def __init__(self, config: ScenarioConfig):
        # Micro-batching coalesces on a wall-clock window; the engine
        # submits strictly sequentially, so it only adds latency.  The
        # bridge switches it off on its own copy of the caller's config.
        serve_cfg = replace(
            config.serve or ServeConfig(), batch_enabled=False
        )
        self._loop = asyncio.new_event_loop()
        self._server = PlanServer(serve_cfg)
        self._next_id = 0
        self.requests: Dict[str, int] = {}
        self.sheds: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}

    def request(self, op: str, params: Dict) -> Dict:
        """One control-plane round trip; returns the response dict."""
        self._next_id += 1
        self.requests[op] = self.requests.get(op, 0) + 1
        response = self._loop.run_until_complete(
            self._server.handle_request_dict(
                {
                    "v": 1,
                    "id": f"scn-{self._next_id}",
                    "op": op,
                    "params": params,
                }
            )
        )
        if not response.get("ok", False):
            kind = (response.get("error") or {}).get("kind", "unknown")
            if kind == "overloaded":
                self.sheds[op] = self.sheds.get(op, 0) + 1
            else:
                self.errors[kind] = self.errors.get(kind, 0) + 1
        return response

    @staticmethod
    def shed(response: Dict) -> bool:
        """Whether the control plane shed this request."""
        return (
            not response.get("ok", False)
            and (response.get("error") or {}).get("kind") == "overloaded"
        )

    def counters(self) -> Dict:
        """Deterministic control-plane counters for the report."""
        return {
            "requests": dict(sorted(self.requests.items())),
            "sheds": dict(sorted(self.sheds.items())),
            "errors": dict(sorted(self.errors.items())),
        }

    def close(self) -> None:
        """Stop the server and the private loop."""
        try:
            self._loop.run_until_complete(self._server.stop())
        finally:
            self._loop.close()


class ScenarioEngine:
    """Runs one :class:`ScenarioConfig` to a :class:`ScenarioReport`."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.model = _MODEL_BUILDERS[config.model_name]()
        self.qos_level = QoSLevel(
            name=f"{config.qos_percent:g}%",
            slack=config.qos_percent / 100.0,
        )
        self.clock = SimClock()
        self.queue = EventQueue()
        # The run draws arrivals from its own copy of the model, on
        # fresh streams, so it never writes state into the config.
        self.arrivals = copy.deepcopy(config.arrivals)
        for streams in self.arrivals.streams():
            streams.reset()
        self.churn_proc = ChurnProcess(config.churn)
        self.campaign_clocks = (
            CampaignClocks(config.campaign)
            if config.campaign is not None
            else None
        )
        self.scheduler = FleetScheduler(self.model, qos_level=self.qos_level)
        # Fleet pool: initial devices plus one pre-sampled profile per
        # scheduled JOIN.  SeedSequence.spawn is prefix-stable, so the
        # first ``devices`` profiles are bit-identical to a plain
        # ``sample_fleet(devices, seed)``.
        self._join_times = self.churn_proc.join_times(config.horizon_s)
        self._leave_times = self.churn_proc.leave_times(config.horizon_s)
        n_pool = config.devices + len(self._join_times)
        variation = VariationModel()
        base_power = PowerModelParams()
        base_battery = Battery()
        root = np.random.SeedSequence(config.seed)
        children = root.spawn(n_pool)
        if config.boards is None:
            self.pool: List[DeviceProfile] = [
                sample_device(i, child, variation, base_power, base_battery)
                for i, child in enumerate(children)
            ]
        else:
            # Board assignment draws from its own sibling stream (as
            # sample_fleet does), so per-device variation streams are
            # identical to the homogeneous pool of the same seed.
            from ..boards.registry import get_spec

            board_list = list(config.boards)
            specs = {name: get_spec(name) for name in board_list}
            assign_rng = np.random.default_rng(root.spawn(1)[0])
            assignment = [
                board_list[int(k)]
                for k in assign_rng.integers(
                    0, len(board_list), size=n_pool
                )
            ]
            self.pool = [
                sample_device(
                    i,
                    child,
                    variation,
                    specs[assignment[i]].base_power_params(),
                    base_battery,
                    board_name=assignment[i],
                )
                for i, child in enumerate(children)
            ]

        # Run state.
        self._bridge: Optional[ServeBridge] = None
        self.events_processed = 0
        #: Pool indices planned by JOIN events, in processing order --
        #: resume replays these (planning is deterministic) to rebuild
        #: joined governors before overwriting their mutable state.
        self._planned_pool_indices: List[int] = []
        self.governors: Dict[int, FleetGovernor] = {}
        self.results: Dict[int, DeviceResult] = {}
        self.live: Set[int] = set()
        self.quarantined: Set[int] = set()
        self.last_end: Dict[int, float] = {}
        self.invalid_streak: Dict[int, int] = {}
        self.twins: Dict[int, OracleTwin] = {}
        self._governed_twin_energy = 0.0
        self._ambient_delta = 0.0

        # Health monitor: one wall-clock-free registry sample per tick,
        # judged against the scenario SLOs (None when monitoring off).
        self.series: Optional[SeriesStore] = None
        self.slo_evaluator: Optional[SLOEvaluator] = None
        self._monitor_anchor: Optional[Tuple[Dict, Dict]] = None
        if config.monitor:
            self.series = SeriesStore(capacity=config.monitor_capacity)
            self.slo_evaluator = SLOEvaluator(default_scenario_slos())

        # Counters and timelines.
        self.demand = {
            "windows_requested": 0,
            "epochs_run": 0,
            "windows_deferred": 0,
        }
        self.replans = {
            "requested": 0,
            "applied": 0,
            "unavailable": 0,
            "shed": 0,
            "storm_peak": 0,
            "storm_ticks": 0,
        }
        self.churn_totals = {
            "joins": 0,
            "join_deferred": 0,
            "join_failed": 0,
            "join_rejected": 0,
            "leaves": 0,
            "quarantines": 0,
            "repairs": 0,
            "final_devices": 0,
        }
        self.shed_timeline: List[Dict] = []
        self.lifecycle_timeline: List[Dict] = []

    # -- setup -------------------------------------------------------------------

    def _deploy_initial_fleet(self) -> None:
        cfg = self.config
        initial = self.pool[: cfg.devices]
        results = self.scheduler.run(initial)
        for result in results:
            self._register_device(result, t_s=0.0)
        if cfg.oracle_stride > 0:
            for device_id in sorted(self.governors)[:: cfg.oracle_stride]:
                result = self.results[device_id]
                self.twins[device_id] = OracleTwin(
                    self.scheduler.pipeline_for(result.profile),
                    result.profile,
                    self.model,
                    result.optimized,
                    cfg.governor,
                )

    def _register_device(
        self, result: DeviceResult, t_s: float
    ) -> bool:
        """Book a planning outcome; True when the device went live."""
        device_id = result.device_id
        self.results[device_id] = result
        if result.error is not None or result.optimized is None:
            return False
        governor = FleetGovernor(
            self.scheduler.pipeline_for(result.profile),
            result.profile,
            self.model,
            result.optimized,
            self.config.governor,
        )
        governor.start()
        if self._ambient_delta != 0.0:
            governor.device.set_ambient(
                result.profile.thermal.t_ambient_c + self._ambient_delta
            )
        self.governors[device_id] = governor
        self.live.add(device_id)
        self.last_end[device_id] = t_s
        self.invalid_streak[device_id] = 0
        return True

    def _physics(self, device_id: int) -> List[DeviceState]:
        """The physics models tracking one device: its governor's and,
        when twinned, its oracle twin's -- both must see the same
        ambient and idle history for the oracle gap to mean anything."""
        devices = [self.governors[device_id].device]
        twin = self.twins.get(device_id)
        if twin is not None:
            devices.append(twin.device)
        return devices

    def _schedule_events(self) -> None:
        cfg = self.config
        # Tick times are computed by multiplication, not accumulation:
        # ``k * tick_s`` is the exact float the governor's own clock
        # produces, which the zero-event digest pin depends on.
        k = 0
        while k * cfg.tick_s < cfg.horizon_s:
            self.queue.push(k * cfg.tick_s, EventKind.TICK)
            k += 1
        for index, t_join in enumerate(self._join_times):
            self.queue.push(
                t_join, EventKind.JOIN, pool_index=cfg.devices + index
            )
        for t_leave in self._leave_times:
            self.queue.push(t_leave, EventKind.LEAVE)
        if cfg.campaign is not None:
            for stage in cfg.campaign.stages:
                if stage.start_s < cfg.horizon_s:
                    self.queue.push(
                        stage.start_s,
                        EventKind.STAGE_ENTER,
                        label=stage.label,
                    )
                if stage.end_s < cfg.horizon_s:
                    self.queue.push(
                        stage.end_s,
                        EventKind.STAGE_EXIT,
                        label=stage.label,
                    )

    # -- event handlers ----------------------------------------------------------

    def _on_tick(self, t_s: float, bridge: ServeBridge) -> None:
        cfg = self.config
        if not cfg.ambient.is_flat:
            self._ambient_delta = cfg.ambient.delta_at(t_s)
            for device_id in sorted(self.governors):
                base = self.results[device_id].profile.thermal
                t_ambient_c = base.t_ambient_c + self._ambient_delta
                for device in self._physics(device_id):
                    device.set_ambient(t_ambient_c)
        intents: List[Tuple[int, FleetGovernor, object]] = []
        drift_sum, drift_n = 0.0, 0
        for device_id in sorted(self.live | self.quarantined):
            windows = self.arrivals.windows_at(device_id, t_s, cfg.tick_s)
            self.demand["windows_requested"] += windows
            if windows <= 0:
                continue
            if device_id in self.quarantined:
                self.demand["windows_deferred"] += windows
                continue
            governor = self.governors[device_id]
            gap_s = t_s - self.last_end[device_id]
            if gap_s > 0.0:
                for device in self._physics(device_id):
                    device.idle(gap_s)
            clock = (
                self.campaign_clocks.clock_at(device_id, t_s)
                if self.campaign_clocks is not None
                else None
            )
            sample = governor.step(
                now=t_s, fault_clock=clock, defer_replan=True
            )
            if (
                self.series is not None
                and sample.predicted_energy_j > 0.0
            ):
                drift_sum += (
                    abs(
                        sample.measured_energy_j
                        - sample.predicted_energy_j
                    )
                    / sample.predicted_energy_j
                )
                drift_n += 1
            self.last_end[device_id] = t_s + cfg.governor.epoch_s
            self.demand["epochs_run"] += 1
            twin = self.twins.get(device_id)
            if twin is not None:
                twin.step()
                self._governed_twin_energy += sample.true_energy_j
            if sample.valid:
                self.invalid_streak[device_id] = 0
            else:
                self.invalid_streak[device_id] += 1
                if (
                    cfg.churn.quarantine_after > 0
                    and self.invalid_streak[device_id]
                    >= cfg.churn.quarantine_after
                ):
                    self._quarantine(device_id, t_s, governor)
                    continue
            if governor.pending_replan is not None:
                intents.append((device_id, governor, sample))
        self._route_replans(t_s, intents, bridge)
        if self.series is not None:
            registry = get_registry()
            registry.gauge_set(
                "scenario.governor_drift",
                drift_sum / drift_n if drift_n else 0.0,
            )
            # Published every tick even without twins: the sampled
            # gauge set must be a function of the simulation alone,
            # never of which gauges earlier runs in this process
            # happened to leave behind.
            oracle_j = sum(
                twin.true_energy_j for twin in self.twins.values()
            )
            registry.gauge_set(
                "scenario.oracle_gap_pct",
                (
                    (self._governed_twin_energy - oracle_j)
                    / oracle_j
                    * 100.0
                    if oracle_j > 0.0
                    else 0.0
                ),
            )

    def _sample_health(self, t_s: float) -> None:
        """One monitor sample at sim time ``t_s`` (no-op when off).

        Samples the simulation-stable projection of the process
        registry.  A resumed run's fresh process does not carry the
        original run's counter totals, so post-resume samples are
        spliced onto the checkpointed series: the restored newest
        sample plus the registry activity since the resume base (see
        :func:`~repro.obs.series.subtract_snapshot`) -- which keeps
        every window delta, and with it the health section, identical
        to the uninterrupted run.
        """
        if self.series is None:
            return
        snap = simulation_projection(get_registry().snapshot())
        if self._monitor_anchor is not None:
            last, base = self._monitor_anchor
            snap = merge_snapshot(
                [last, subtract_snapshot(snap, base)],
                gauge_merge="last",
            )
        self.series.sample(t_s, snap)
        if self.slo_evaluator is not None:
            self.slo_evaluator.evaluate(self.series, t_s)

    def _quarantine(
        self, device_id: int, t_s: float, governor: FleetGovernor
    ) -> None:
        self.live.discard(device_id)
        self.quarantined.add(device_id)
        self.churn_totals["quarantines"] += 1
        if governor.pending_replan is not None:
            governor.decline_replan("quarantined")
        self.queue.push(
            t_s + self.config.churn.repair_delay_s,
            EventKind.REPAIR,
            device_id=device_id,
        )
        self.lifecycle_timeline.append(
            {"t_s": t_s, "device_id": device_id, "event": "quarantine"}
        )
        get_audit_log().record(
            "scenario.engine",
            "quarantine",
            device_id=device_id,
            t_s=t_s,
        )
        get_registry().count("scenario.engine", event="quarantine")

    def _board_param(self, pool_index: int) -> Dict:
        """Serve-request board selector for one device ({} when
        homogeneous, so default-board wire requests are unchanged)."""
        if self.config.boards is None:
            return {}
        return {"board": self.pool[pool_index].board.name}

    def _route_replans(
        self,
        t_s: float,
        intents: List[Tuple[int, FleetGovernor, object]],
        bridge: ServeBridge,
    ) -> None:
        cfg = self.config
        storm = len(intents)
        self.replans["requested"] += storm
        if storm > self.replans["storm_peak"]:
            self.replans["storm_peak"] = storm
        if storm >= cfg.storm_threshold:
            self.replans["storm_ticks"] += 1
        tick_sheds = 0
        for device_id, governor, sample in intents:
            intent = governor.pending_replan
            bridge.request(
                "telemetry",
                {
                    "model": cfg.model_name,
                    "predicted_energy_j": sample.predicted_energy_j,
                    "measured_energy_j": sample.measured_energy_j,
                },
            )
            response = bridge.request(
                "reprice",
                {
                    "model": cfg.model_name,
                    "qos_percent": cfg.qos_percent,
                    "extra_power_w": intent.extra_w,
                    "max_hfo_mhz": intent.cap_hz / 1e6,
                    **self._board_param(device_id),
                },
            )
            if ServeBridge.shed(response):
                governor.decline_replan("shed")
                self.replans["shed"] += 1
                tick_sheds += 1
                get_registry().count(
                    "scenario.engine", event="replan_shed"
                )
                continue
            # Control-plane *errors* (as opposed to admission sheds)
            # do not block the device: the governor re-solves locally
            # exactly as the standalone fleet path would.
            if governor.apply_replan():
                self.replans["applied"] += 1
            else:
                self.replans["unavailable"] += 1
        if tick_sheds > 0:
            self.shed_timeline.append(
                {"t_s": t_s, "sheds": tick_sheds}
            )

    def _on_join(
        self, t_s: float, pool_index: int, bridge: ServeBridge
    ) -> None:
        cfg = self.config
        if (
            len(self.live) + len(self.quarantined)
            >= cfg.churn.max_devices
        ):
            self.churn_totals["join_rejected"] += 1
            return
        response = bridge.request(
            "plan",
            {
                "model": cfg.model_name,
                "qos_percent": cfg.qos_percent,
                **self._board_param(pool_index),
            },
        )
        if ServeBridge.shed(response):
            # Provisioning is admission-gated too: a shed join retries
            # one tick later (same pool slot, so the device's sampled
            # hardware does not change).
            self.churn_totals["join_deferred"] += 1
            self.queue.push(
                t_s + cfg.tick_s, EventKind.JOIN, pool_index=pool_index
            )
            self.shed_timeline.append(
                {"t_s": t_s, "sheds": 1, "op": "join"}
            )
            return
        profile = self.pool[pool_index]
        self._planned_pool_indices.append(pool_index)
        result = self.scheduler.plan_device(profile)
        if self._register_device(result, t_s=t_s):
            self.churn_totals["joins"] += 1
            event = "join"
        else:
            self.churn_totals["join_failed"] += 1
            event = "join_failed"
        self.lifecycle_timeline.append(
            {"t_s": t_s, "device_id": profile.device_id, "event": event}
        )
        get_audit_log().record(
            "scenario.engine",
            event,
            device_id=profile.device_id,
            t_s=t_s,
        )
        get_registry().count("scenario.engine", event=event)

    def _on_leave(self, t_s: float) -> None:
        candidates = sorted(self.live)
        if not candidates:
            return
        device_id = self.churn_proc.pick_victim(candidates)
        self.live.discard(device_id)
        self.churn_totals["leaves"] += 1
        self.lifecycle_timeline.append(
            {"t_s": t_s, "device_id": device_id, "event": "leave"}
        )
        get_audit_log().record(
            "scenario.engine", "leave", device_id=device_id, t_s=t_s
        )
        get_registry().count("scenario.engine", event="leave")

    def _on_repair(self, t_s: float, device_id: int) -> None:
        if device_id not in self.quarantined:
            return
        self.quarantined.discard(device_id)
        self.live.add(device_id)
        self.invalid_streak[device_id] = 0
        self.churn_totals["repairs"] += 1
        self.lifecycle_timeline.append(
            {"t_s": t_s, "device_id": device_id, "event": "repair"}
        )
        get_audit_log().record(
            "scenario.engine", "repair", device_id=device_id, t_s=t_s
        )
        get_registry().count("scenario.engine", event="repair")

    # -- the run -----------------------------------------------------------------

    def start(self) -> None:
        """Bring the serve bridge up, deploy t=0, schedule the queue."""
        if self._bridge is None:
            self._bridge = ServeBridge(self.config)
        self._deploy_initial_fleet()
        self._schedule_events()

    def step(self) -> bool:
        """Dispatch the next event; False when the horizon is reached.

        Every return is an *event boundary*: no handler is mid-flight,
        so :meth:`checkpoint` here captures a complete state.
        """
        cfg = self.config
        bridge = self._bridge
        if bridge is None:
            raise ReproError("engine not started (call start() first)")
        if not self.queue:
            return False
        event = self.queue.pop()
        if event.time_s >= cfg.horizon_s:
            # Deferred joins and repairs can land past the horizon;
            # the scenario ends before them.
            return False
        self.clock.advance_to(event.time_s)
        t_s = event.time_s
        if event.kind is EventKind.TICK:
            self._on_tick(t_s, bridge)
            self._sample_health(t_s)
        elif event.kind is EventKind.JOIN:
            self._on_join(t_s, event.payload["pool_index"], bridge)
        elif event.kind is EventKind.LEAVE:
            self._on_leave(t_s)
        elif event.kind is EventKind.REPAIR:
            self._on_repair(t_s, event.payload["device_id"])
        else:  # STAGE_ENTER / STAGE_EXIT
            get_audit_log().record(
                "scenario.engine",
                event.kind.value,
                label=event.payload.get("label", ""),
                t_s=t_s,
            )
        self.events_processed += 1
        return True

    def finish(self) -> ScenarioReport:
        """Fold the accumulated state into the final report."""
        if self._bridge is None:
            raise ReproError("engine not started (call start() first)")
        return self._report(self._bridge)

    def close(self) -> None:
        """Stop the serve bridge (idempotent)."""
        if self._bridge is not None:
            self._bridge.close()
            self._bridge = None

    def run(self) -> ScenarioReport:
        """Simulate the configured horizon and fold up the report."""
        cfg = self.config
        try:
            with span(
                "scenario.run",
                scenario=cfg.name,
                devices=cfg.devices,
                horizon_s=cfg.horizon_s,
            ):
                self.start()
                while self.step():
                    pass
            return self.finish()
        finally:
            self.close()

    # -- checkpoint / resume -----------------------------------------------------

    def checkpoint(self) -> ScenarioCheckpoint:
        """Snapshot the complete mutable state at an event boundary.

        Only meaningful between :meth:`step` calls.  The serve *state*
        the engine observes (admission counters, token bucket, arrival
        clock) is captured exactly, which is all that feeds the report.
        """
        cfg = self.config
        if self._bridge is None:
            raise ReproError("engine not started (call start() first)")
        governors = [
            {"device_id": device_id, **governor.snapshot()}
            for device_id, governor in self.governors.items()
        ]
        twins = [
            {"device_id": device_id, **twin.snapshot()}
            for device_id, twin in self.twins.items()
        ]
        clocks: List[Dict] = []
        if self.campaign_clocks is not None:
            for (device_id, stage_index), clock in sorted(
                self.campaign_clocks._clocks.items()
            ):
                clocks.append(
                    {
                        "device_id": device_id,
                        "stage_index": stage_index,
                        "rng_states": {
                            kind.value: clock._rngs[
                                kind
                            ].bit_generator.state
                            for kind in FaultKind
                        },
                        "opportunities": {
                            kind.value: count
                            for kind, count in clock.opportunities.items()
                        },
                        "injected": {
                            kind.value: count
                            for kind, count in clock.injected.items()
                        },
                    }
                )
        return ScenarioCheckpoint(
            config=cfg,
            events_processed=self.events_processed,
            clock_now=self.clock.now,
            queue_heap=list(self.queue._heap),
            queue_seq=self.queue._seq,
            churn_rng_state=self.churn_proc._victim_rng.bit_generator.state,
            arrival_rng_states=[
                streams.states() for streams in self.arrivals.streams()
            ],
            campaign_clocks=clocks,
            governors=governors,
            twins=twins,
            engine={
                "live": set(self.live),
                "quarantined": set(self.quarantined),
                "last_end": dict(self.last_end),
                "invalid_streak": dict(self.invalid_streak),
                "governed_twin_energy": self._governed_twin_energy,
                "ambient_delta": self._ambient_delta,
                "demand": dict(self.demand),
                "replans": dict(self.replans),
                "churn_totals": dict(self.churn_totals),
                "shed_timeline": list(self.shed_timeline),
                "lifecycle_timeline": list(self.lifecycle_timeline),
                "planned_pool_indices": list(self._planned_pool_indices),
                "monitor": (
                    {
                        "series": self.series.to_state(),
                        "slo": self.slo_evaluator.to_state(),
                    }
                    if self.series is not None
                    else None
                ),
            },
            serve=self._serve_state(),
        )

    def _serve_state(self) -> Dict:
        bridge = self._bridge
        server = bridge._server
        admission = server.admission
        bucket = admission.bucket
        state: Dict = {
            "next_id": bridge._next_id,
            "requests": dict(bridge.requests),
            "sheds": dict(bridge.sheds),
            "errors": dict(bridge.errors),
            "admission": {
                "in_flight": admission._in_flight,
                "sheds": dict(admission.sheds),
            },
        }
        if bucket is not None:
            state["bucket"] = {
                "tokens": bucket._tokens,
                "last_s": bucket._last_s,
                "clock_now_s": (
                    bucket._time_fn._now_s
                    if isinstance(bucket._time_fn, ArrivalClock)
                    else None
                ),
            }
        return state

    @classmethod
    def resume(cls, checkpoint: ScenarioCheckpoint) -> "ScenarioEngine":
        """Rebuild an engine mid-run from a checkpoint.

        Deterministic reconstruction first (re-plan the initial fleet
        and every joined device exactly as the original run did --
        planning consumes no RNG), then every mutable attribute is
        overwritten from the snapshot.  The caller drives
        :meth:`step` / :meth:`finish` / :meth:`close` as usual.
        """
        engine = cls(checkpoint.config)
        engine._bridge = ServeBridge(engine.config)
        engine._deploy_initial_fleet()
        # Replay the join-planned devices in processing order so the
        # governors dict -- and with it the report row order -- comes
        # back in exactly the original insertion order.
        for pool_index in checkpoint.engine["planned_pool_indices"]:
            result = engine.scheduler.plan_device(
                engine.pool[pool_index]
            )
            engine._register_device(result, t_s=0.0)
        engine._restore(checkpoint)
        return engine

    def _restore(self, checkpoint: ScenarioCheckpoint) -> None:
        self.events_processed = checkpoint.events_processed
        self.clock._now = checkpoint.clock_now
        self.queue._heap = list(checkpoint.queue_heap)
        self.queue._seq = checkpoint.queue_seq
        self.churn_proc._victim_rng.bit_generator.state = (
            checkpoint.churn_rng_state
        )
        for streams, states in zip(
            self.arrivals.streams(), checkpoint.arrival_rng_states
        ):
            streams.restore(states)
        if self.campaign_clocks is not None:
            for entry in checkpoint.campaign_clocks:
                index = entry["stage_index"]
                stage = self.config.campaign.stages[index]
                clock = stage.plan.clock_for(
                    entry["device_id"],
                    stage=SCENARIO_STAGE_BASE + index,
                )
                for kind in FaultKind:
                    clock._rngs[kind].bit_generator.state = entry[
                        "rng_states"
                    ][kind.value]
                clock.opportunities = {
                    FaultKind(k): v
                    for k, v in entry["opportunities"].items()
                }
                clock.injected = {
                    FaultKind(k): v
                    for k, v in entry["injected"].items()
                }
                self.campaign_clocks._clocks[
                    (entry["device_id"], index)
                ] = clock
        for state in checkpoint.governors:
            self.governors[state["device_id"]].restore(state)
        for state in checkpoint.twins:
            self.twins[state["device_id"]].restore(state)
        eng = checkpoint.engine
        self.live = set(eng["live"])
        self.quarantined = set(eng["quarantined"])
        self.last_end = dict(eng["last_end"])
        self.invalid_streak = dict(eng["invalid_streak"])
        self._governed_twin_energy = eng["governed_twin_energy"]
        self._ambient_delta = eng["ambient_delta"]
        self.demand = dict(eng["demand"])
        self.replans = dict(eng["replans"])
        self.churn_totals = dict(eng["churn_totals"])
        self.shed_timeline = list(eng["shed_timeline"])
        self.lifecycle_timeline = list(eng["lifecycle_timeline"])
        self._planned_pool_indices = list(eng["planned_pool_indices"])
        monitor = eng.get("monitor")
        if monitor is not None and self.series is not None:
            self.series = SeriesStore.from_state(monitor["series"])
            self.slo_evaluator = SLOEvaluator.from_state(
                monitor["slo"], default_scenario_slos()
            )
            last = self.series.latest()
            if last is not None:
                # Splice base for post-resume samples: the registry as
                # it stands right now (after the deterministic replay
                # of planning) subtracts out, leaving only activity
                # that the original run also accumulated past this
                # checkpoint.
                self._monitor_anchor = (
                    last[1],
                    simulation_projection(get_registry().snapshot()),
                )
        serve = checkpoint.serve
        bridge = self._bridge
        bridge._next_id = serve["next_id"]
        bridge.requests = dict(serve["requests"])
        bridge.sheds = dict(serve["sheds"])
        bridge.errors = dict(serve["errors"])
        admission = bridge._server.admission
        admission._in_flight = serve["admission"]["in_flight"]
        admission.sheds = dict(serve["admission"]["sheds"])
        bucket = admission.bucket
        if bucket is not None and "bucket" in serve:
            bucket._tokens = serve["bucket"]["tokens"]
            bucket._last_s = serve["bucket"]["last_s"]
            if serve["bucket"]["clock_now_s"] is not None and isinstance(
                bucket._time_fn, ArrivalClock
            ):
                bucket._time_fn._now_s = serve["bucket"]["clock_now_s"]

    def _report(self, bridge: ServeBridge) -> ScenarioReport:
        cfg = self.config
        governed = {
            device_id: governor.result()
            for device_id, governor in self.governors.items()
        }
        results = [
            self.results[device_id] for device_id in sorted(self.results)
        ]
        qos_s = next(
            (
                r.optimized.qos_s
                for r in results
                if r.error is None and r.optimized is not None
            ),
            0.0,
        )
        fleet: FleetReport = aggregate_fleet(
            self.model, qos_s, results, governed
        )
        self.churn_totals["final_devices"] = len(self.live) + len(
            self.quarantined
        )
        oracle = None
        if self.twins:
            oracle = {
                "devices": len(self.twins),
                "stride": cfg.oracle_stride,
                "governed_true_energy_j": self._governed_twin_energy,
                "oracle_true_energy_j": sum(
                    twin.true_energy_j for twin in self.twins.values()
                ),
                "oracle_replans": sum(
                    twin.replans for twin in self.twins.values()
                ),
                "oracle_epochs": sum(
                    twin.epochs for twin in self.twins.values()
                ),
            }
        faults = (
            self.campaign_clocks.injected_by_kind()
            if self.campaign_clocks is not None
            else {}
        )
        health = None
        if self.series is not None:
            coverage = self.series.summary()
            # The newest raw snapshot is process-absolute (it can
            # carry counter residue from earlier work in the same
            # process); only the delta-based views below are
            # digest-stable across same-seed runs.
            coverage.pop("latest_digest", None)
            rollup = self.series.rollup(cfg.monitor_window_s)
            alerts = self.slo_evaluator.timeline()
            health = {
                "series": coverage,
                "rollup": rollup,
                "slos": [
                    slo.describe() for slo in self.slo_evaluator.slos
                ],
                "alerts": alerts,
                "alerts_active": self.slo_evaluator.active(),
                "evaluations": self.slo_evaluator.evaluations,
                "rollup_digest": snapshot_digest(rollup),
                "alerts_digest": snapshot_digest({"alerts": alerts}),
            }
        return ScenarioReport(
            name=cfg.name,
            model_name=cfg.model_name,
            qos_s=qos_s,
            seed=cfg.seed,
            horizon_s=cfg.horizon_s,
            tick_s=cfg.tick_s,
            devices_initial=cfg.devices,
            config=cfg.describe(),
            fleet=fleet,
            demand=dict(self.demand),
            replans=dict(self.replans),
            serve=bridge.counters(),
            shed_timeline=self.shed_timeline,
            lifecycle_timeline=self.lifecycle_timeline,
            churn=dict(self.churn_totals),
            faults_injected=faults,
            oracle=oracle,
            health=health,
        )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Convenience wrapper: build an engine and run it."""
    return ScenarioEngine(config).run()


def resume_scenario(path: str) -> ScenarioReport:
    """Resume a checkpointed run to completion; returns its report.

    The invariant this rests on (pinned by
    ``tests/scenario/test_checkpoint.py``): resuming at *any* event
    boundary produces a report byte-identical -- same digest -- to the
    uninterrupted run.
    """
    engine = ScenarioEngine.resume(load_checkpoint(path))
    try:
        while engine.step():
            pass
        return engine.finish()
    finally:
        engine.close()
