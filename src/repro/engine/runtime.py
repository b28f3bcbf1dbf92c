"""DVFS runtime: executes a deployment plan on the simulated board.

This is the reproduction of the paper's modified inference runtime
(Listing 1): per layer, the SYSCLK mux bounces between the LFO (HSE)
clock for memory-bound segments and the layer's HFO (PLL) clock for
compute-bound segments, the PLL is reprogrammed *in the background*
during the first memory-bound segment whenever consecutive layers
request different HFO frequencies, and every stall -- mux handshakes,
un-hidden re-lock remainders -- is charged at its true power state.

The same engine executes the baselines (single fixed clock, fused
traces), so "ours vs. TinyEngine" comparisons share every modelling
assumption except the scheduling policy itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..clock.configs import ClockConfig, SysclkSource
from ..clock.rcc import RCC
from ..errors import TraceError, WatchdogResetError
from ..mcu.board import Board
from ..memo import Memo
from ..nn.graph import Model
from ..nn.layers.base import LayerKind
from ..obs.registry import get_registry
from ..power.energy import EnergyAccount, EnergyCategory
from ..power.model import PowerState
from .cost import TraceBuilder, TraceParams, model_fingerprint
from .schedule import DeploymentPlan, plan_signature
from .trace import LayerTrace, Segment, SegmentKind


class IdlePolicy(enum.Enum):
    """How the board waits out the rest of the QoS window.

    HOT is the plain TinyEngine behaviour (WFI at the last active
    clock), GATED is the paper's clock-gating baseline, and STOP is
    the strongest realistic policy -- deep sleep with SRAM retention,
    paying a wake-up latency (charged inside the window) before the
    next inference can start.
    """

    HOT = "hot"
    GATED = "gated"
    STOP = "stop"


@dataclass
class LayerReport:
    """Measured execution of one layer."""

    node_id: int
    layer_name: str
    layer_kind: LayerKind
    granularity: int
    hfo_hz: float
    latency_s: float = 0.0
    energy_j: float = 0.0


@dataclass
class InferenceReport:
    """Result of executing one plan on the board.

    Attributes:
        model_name: the executed model.
        plan: the plan that was executed.
        latency_s: inference latency (excluding post-inference idle).
        energy_j: total energy over the accounting window (inference
            plus idle-to-QoS when a QoS window was given).
        inference_energy_j: energy of the inference alone.
        account: the full categorized energy ledger.
        layer_reports: per-layer latency/energy breakdown.
        relock_count: PLL reprogram events (cheap mux moves excluded).
        mux_switch_count: SYSCLK mux transitions.
        qos_s: the accounting window, if any.
        met_qos: whether the inference finished within the window.
        css_events: Clock Security System interventions (HSE loss ->
            HSI failsafe) during this inference.  0 without faults.
        watchdog_resets: watchdog resets survived via checkpoint
            resume.  0 without faults.
        pll_retries: PLL lock-timeout retries absorbed by the retry
            policy.  0 without faults.
        final_config: the clock the inference left the board on, at
            which :meth:`DVFSRuntime.window` charges a HOT idle.
    """

    model_name: str
    plan: DeploymentPlan
    latency_s: float
    energy_j: float
    inference_energy_j: float
    account: EnergyAccount
    layer_reports: List[LayerReport] = field(default_factory=list)
    relock_count: int = 0
    mux_switch_count: int = 0
    qos_s: Optional[float] = None
    met_qos: bool = True
    css_events: int = 0
    watchdog_resets: int = 0
    pll_retries: int = 0
    final_config: Optional[ClockConfig] = None

    @property
    def average_power_w(self) -> float:
        """Mean power over the accounting window."""
        return self.account.average_power_w

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"model {self.model_name!r}: "
            f"{self.latency_s * 1e3:.3f} ms inference, "
            f"{self.energy_j * 1e3:.4f} mJ"
            + (
                f" over a {self.qos_s * 1e3:.3f} ms window"
                if self.qos_s is not None
                else ""
            ),
            f"  average power {self.average_power_w * 1e3:.1f} mW, "
            f"{self.relock_count} PLL re-locks, "
            f"{self.mux_switch_count} mux switches"
            + ("" if self.met_qos else "  ** QoS MISSED **"),
        ]
        breakdown = self.account.energy_by_category()
        total = self.energy_j or 1.0
        parts = ", ".join(
            f"{category.value} {energy / total:.0%}"
            for category, energy in sorted(
                breakdown.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"  energy: {parts}")
        return "\n".join(lines)


class DVFSRuntime:
    """Executes deployment plans against one board description.

    A fault-free execution depends only on the model's structure, the
    plan's schedulable decisions (:func:`plan_signature`), the start
    clock and the board, so the runtime executes each such key once:
    it records the run without a QoS window, and every later
    :meth:`run` of the key windows that record through :meth:`window`,
    while :meth:`measure_latency_s` reads its latency.  Callers always
    receive a copy, never the recorded report.  The key embeds
    ``board.fingerprint()``, so replacing a board component
    (``board.power_model = ...``) misses; after mutating one in place,
    call :meth:`clear_cache`.  Fault-injected runs execute every time.

    Args:
        board: the simulated board (clocking, power, timing models).
        trace_params: access-pattern constants for the cost model.
        tracer: an existing (typically memoizing) :class:`TraceBuilder`
            to share; when given, the runtime reuses its trace cache
            instead of rebuilding every layer trace per run.
    """

    def __init__(
        self,
        board: Board,
        trace_params: Optional[TraceParams] = None,
        tracer: Optional[TraceBuilder] = None,
    ):
        self.board = board
        self.tracer = tracer or TraceBuilder(board, trace_params)
        # Recorded executions; single-flight because the serve
        # batcher's threads share one pipeline, and with it this
        # runtime.  No registry family: the records are private.
        self._records = Memo()

    def clear_cache(self) -> None:
        """Drop every recorded execution (after in-place board edits)."""
        self._records.clear()

    # -- public API -----------------------------------------------------------

    def run(
        self,
        model: Model,
        plan: DeploymentPlan,
        qos_s: Optional[float] = None,
        idle_gated: bool = True,
        initial_config: Optional[ClockConfig] = None,
        idle_policy: Optional[IdlePolicy] = None,
        fault_clock=None,
    ) -> InferenceReport:
        """Execute ``plan`` for ``model``; account energy to ``qos_s``.

        Args:
            model: the model to run.
            plan: per-layer decisions (validated against the model).
            qos_s: iso-latency accounting window; when given, the board
                idles after inference until the window closes and that
                idle energy is charged (the paper's Sec. IV scenario).
            idle_gated: whether post-inference idling uses clock gating
                (our approach and the gated baseline) or plain WFI idle
                at the last active clock (plain TinyEngine).  Ignored
                when ``idle_policy`` is given.
            idle_policy: explicit idle policy (HOT / GATED / STOP);
                STOP additionally charges the deep-sleep wake-up
                latency inside the window.
            initial_config: clock the board starts from; defaults to
                the plan's LFO.
            fault_clock: optional :class:`repro.faults.plan.FaultClock`
                driving HSE dropouts, PLL lock timeouts and watchdog
                resets.  ``None`` (default) keeps the run bit-identical
                to the fault-free engine.  Inference is checkpointed at
                layer granularity: a watchdog reset replays the current
                layer on a freshly booted clock tree (the PLL lock is
                lost, the reset stall is charged), and repeated resets
                at one layer raise
                :class:`~repro.errors.WatchdogResetError`.  An HSE
                dropout lands the layer on the HSI failsafe via the
                CSS; execution continues at the failsafe clock.

        Returns:
            The full :class:`InferenceReport`.

        Raises:
            WatchdogResetError: no forward progress at one layer.
            ClockSwitchError: the PLL exhausted its lock-retry budget.
        """
        if fault_clock is None:
            record = replace(
                self._record_for(model, plan, initial_config), plan=plan
            )
        else:
            record = self._execute(model, plan, initial_config, fault_clock)
        if qos_s is None:
            # ``window`` copies the ledger and the layer reports itself;
            # a windowless run needs the same copy, so no caller can
            # reach the recorded report.
            return replace(
                record,
                account=EnergyAccount(list(record.account.intervals)),
                layer_reports=[replace(r) for r in record.layer_reports],
            )
        if idle_policy is None:
            idle_policy = IdlePolicy.GATED if idle_gated else IdlePolicy.HOT
        return self.window(record, qos_s, idle_policy)

    def _record_for(
        self,
        model: Model,
        plan: DeploymentPlan,
        initial_config: Optional[ClockConfig],
    ) -> InferenceReport:
        """The recorded fault-free, windowless run of ``plan``."""
        key = (
            model_fingerprint(model),
            plan_signature(plan),
            initial_config or plan.lfo,
            self.board.fingerprint(),
        )
        return self._records.get(
            key, self._execute, model, plan, initial_config, None
        )

    def _execute(
        self,
        model: Model,
        plan: DeploymentPlan,
        initial_config: Optional[ClockConfig],
        fault_clock,
    ) -> InferenceReport:
        """Execute ``plan`` on the engine; no QoS window is charged."""
        plan.validate_against(model)
        boot = initial_config or plan.lfo
        rcc = self._make_rcc(boot, fault_clock)
        npu = self.board.npu
        npu_macs: Dict[int, float] = {}
        if npu is not None:
            npu_macs = {
                node.node_id: node.layer.macs(*model.input_shapes_of(node))
                for node in model.nodes
                if npu.supports(node.layer.kind)
            }
        account = EnergyAccount()
        reports: List[LayerReport] = []
        mux_switches = 0
        # Background re-locks are tallied locally (not on self) so one
        # runtime instance can execute plans from several threads --
        # the serve batcher's threads share one pipeline, and with it
        # this runtime.
        background_relocks = 0
        css_events = 0
        pll_retries = 0
        watchdog_resets = 0
        consecutive_resets = 0
        # Materialized so the watchdog checkpoint can replay layer i.
        traces = list(self.tracer.build_model_trace(model, plan.granularities()))
        i = 0
        while i < len(traces):
            trace = traces[i]
            if fault_clock is not None and fault_clock.watchdog_reset():
                # Watchdog fired at this layer checkpoint: the core
                # reboots, the clock tree returns to its boot state
                # (PLL lock lost) and the layer replays from its
                # checkpoint after the reset stall.
                consecutive_resets += 1
                watchdog_resets += 1
                if consecutive_resets > fault_clock.plan.max_consecutive_resets:
                    raise WatchdogResetError(
                        trace.layer_name, consecutive_resets
                    )
                power = self.board.power_model.switching_power(boot)
                account.add(
                    fault_clock.plan.watchdog_reset_s, power,
                    EnergyCategory.SWITCH, "watchdog-reset",
                    config=boot, state=PowerState.SWITCHING,
                )
                css_events += rcc.css_count
                pll_retries += rcc.pll_retries
                background_relocks += rcc.relock_count()
                rcc = self._make_rcc(boot, fault_clock)
                continue
            consecutive_resets = 0
            layer_plan = plan.plan_for(trace.node_id)
            report = LayerReport(
                node_id=trace.node_id,
                layer_name=trace.layer_name,
                layer_kind=trace.layer_kind,
                granularity=trace.granularity,
                hfo_hz=(
                    layer_plan.hfo.sysclk_hz if layer_plan else rcc.sysclk_hz
                ),
            )
            if trace.node_id in npu_macs:
                # NPU-mapped layer: runs on the accelerator's own clock
                # domain -- no SYSCLK transition, no DAE bouncing, and
                # latency/energy independent of the CPU clock tree.
                self._run_npu(trace, npu_macs[trace.node_id], account, report)
            elif trace.is_decoupled:
                assert layer_plan is not None
                mux, relocks = self._run_decoupled(
                    rcc, trace, layer_plan.hfo, plan.lfo, account, report
                )
                mux_switches += mux
                background_relocks += relocks
            else:
                target = layer_plan.hfo if layer_plan else rcc.current
                mux_switches += self._run_fused(
                    rcc, trace, target, account, report
                )
            reports.append(report)
            i += 1
        css_events += rcc.css_count
        pll_retries += rcc.pll_retries

        # Hardening events land in the obs registry only when they
        # happened: the nominal (fault-free) run pays nothing here.
        if css_events or watchdog_resets or pll_retries:
            registry = get_registry()
            if css_events:
                registry.count(
                    "engine.hardening", n=css_events, event="css"
                )
            if watchdog_resets:
                registry.count(
                    "engine.hardening", n=watchdog_resets, event="watchdog"
                )
            if pll_retries:
                registry.count(
                    "engine.hardening", n=pll_retries, event="pll_retry"
                )

        inference_energy = account.total_energy_j
        return InferenceReport(
            model_name=model.name,
            plan=plan,
            latency_s=account.total_time_s,
            energy_j=inference_energy,
            inference_energy_j=inference_energy,
            account=account,
            layer_reports=reports,
            relock_count=rcc.relock_count() + background_relocks,
            mux_switch_count=mux_switches,
            css_events=css_events,
            watchdog_resets=watchdog_resets,
            pll_retries=pll_retries,
            final_config=rcc.current,
        )

    def window(
        self,
        record: InferenceReport,
        qos_s: float,
        idle_policy: IdlePolicy,
    ) -> InferenceReport:
        """``record`` (a run without a QoS window) idled out to ``qos_s``.

        The report owns a copy of the record's ledger with the idle
        interval(s) appended; the record itself is left untouched, so
        one execution can be windowed under several idle policies.
        """
        account = EnergyAccount(list(record.account.intervals))
        self._charge_idle(
            account, record.final_config, idle_policy,
            max(0.0, qos_s - record.latency_s),
        )
        return replace(
            record,
            energy_j=account.total_energy_j,
            account=account,
            layer_reports=[replace(r) for r in record.layer_reports],
            qos_s=qos_s,
            met_qos=record.latency_s <= qos_s,
        )

    def measure_latency_s(
        self,
        model: Model,
        plan: DeploymentPlan,
        initial_config: Optional[ClockConfig] = None,
    ) -> float:
        """Inference-window latency of ``plan`` (no QoS idle charged).

        Exactly ``run(...).latency_s``, read straight from the recorded
        execution: no ledger is copied or windowed, and runtimes that
        re-price records (the fleet's
        :class:`~repro.fleet.pricing.ReplayingRuntime`) skip the
        energy re-pricing when the caller only wants the timing side.
        """
        return self._record_for(model, plan, initial_config).latency_s

    def _make_rcc(self, boot: ClockConfig, fault_clock) -> RCC:
        """Fresh clock controller inheriting the board's descriptors.

        The board's RCC carries the part's clock-tree limits, CSS
        failsafe source and retry policy; every runtime-spawned RCC
        must inherit them or a non-F7 board would validate oscillators
        (and park its failsafe) against F767 constants.
        """
        template = self.board.rcc
        return RCC(
            cost_model=self.board.switch_cost_model,
            initial=boot,
            retry=template.retry,
            fault_clock=fault_clock,
            limits=template.limits,
            failsafe=template.failsafe,
        )

    def _run_npu(
        self,
        trace: LayerTrace,
        macs: float,
        account: EnergyAccount,
        report: LayerReport,
    ) -> None:
        """Charge one NPU-offloaded layer at its fixed price."""
        npu = self.board.npu
        assert npu is not None
        latency = npu.layer_latency_s(macs)
        account.add(
            latency, npu.active_power_w, EnergyCategory.COMPUTE,
            report.layer_name, state=PowerState.NPU_ACTIVE,
        )
        report.latency_s += latency
        report.energy_j += latency * npu.active_power_w

    def _charge_idle(
        self,
        account: EnergyAccount,
        current: ClockConfig,
        policy: IdlePolicy,
        idle_time: float,
    ) -> None:
        """Charge the post-inference remainder of the QoS window."""
        power = self.board.power_model
        if policy is IdlePolicy.HOT:
            account.add(
                idle_time, power.idle_power(current),
                EnergyCategory.IDLE, "idle",
                config=current, state=PowerState.IDLE,
            )
            return
        if policy is IdlePolicy.GATED:
            account.add(
                idle_time, power.gated_power(), EnergyCategory.IDLE, "idle",
                config=current, state=PowerState.IDLE_GATED,
            )
            return
        # STOP: worth entering only if the window outlasts the wake-up.
        wake = power.params.stop_wakeup_s
        if idle_time <= wake:
            account.add(
                idle_time, power.gated_power(), EnergyCategory.IDLE, "idle",
                config=current, state=PowerState.IDLE_GATED,
            )
            return
        account.add(
            idle_time - wake, power.stop_power(), EnergyCategory.IDLE, "idle",
            config=current, state=PowerState.STOP,
        )
        # The wake-up path runs regulator/oscillator restart at the
        # low-power boot clock (the board's HSE-direct LFO), not at the
        # hot PLL configuration.
        wake_config = self.board.rcc.initial
        account.add(
            wake, power.switching_power(wake_config),
            EnergyCategory.SWITCH, "stop-wakeup",
            config=wake_config, state=PowerState.SWITCHING,
        )

    # -- execution helpers -------------------------------------------------------

    def _charge_segment(
        self,
        segment: Segment,
        config: ClockConfig,
        account: EnergyAccount,
        report: LayerReport,
    ) -> None:
        """Price one segment at ``config`` and append it to the ledger."""
        compute_t, memory_t = self.board.core.segment_time_parts(
            segment.workload, config.sysclk_hz
        )
        power = self.board.power_model
        if compute_t > 0:
            p = power.power(config, PowerState.ACTIVE_COMPUTE)
            account.add(
                compute_t, p, EnergyCategory.COMPUTE, report.layer_name,
                config=config, state=PowerState.ACTIVE_COMPUTE,
            )
            report.latency_s += compute_t
            report.energy_j += compute_t * p
        if memory_t > 0:
            p = power.power(config, PowerState.ACTIVE_MEMORY)
            account.add(
                memory_t, p, EnergyCategory.MEMORY, report.layer_name,
                config=config, state=PowerState.ACTIVE_MEMORY,
            )
            report.latency_s += memory_t
            report.energy_j += memory_t * p

    def _charge_switch(
        self,
        latency_s: float,
        config: ClockConfig,
        account: EnergyAccount,
        report: LayerReport,
    ) -> None:
        if latency_s <= 0:
            return
        p = self.board.power_model.switching_power(config)
        account.add(
            latency_s, p, EnergyCategory.SWITCH, report.layer_name,
            config=config, state=PowerState.SWITCHING,
        )
        report.latency_s += latency_s
        report.energy_j += latency_s * p

    def _run_fused(
        self,
        rcc: RCC,
        trace: LayerTrace,
        target: ClockConfig,
        account: EnergyAccount,
        report: LayerReport,
    ) -> int:
        """Run an undecoupled layer entirely at ``target``."""
        cost = rcc.apply(target)
        self._charge_switch(cost.latency_s, rcc.current, account, report)
        mux = 1 if cost.latency_s > 0 else 0
        for segment in trace.segments:
            self._charge_segment(segment, rcc.current, account, report)
        return mux

    def _run_decoupled(
        self,
        rcc: RCC,
        trace: LayerTrace,
        hfo: ClockConfig,
        lfo: ClockConfig,
        account: EnergyAccount,
        report: LayerReport,
    ) -> tuple:
        """Run a DAE layer bouncing between LFO and HFO segments.

        Returns ``(mux_switches, background_relocks)``.
        """
        if hfo.source is not SysclkSource.PLL:
            raise TraceError(
                f"layer {trace.layer_name!r}: HFO must be PLL-sourced"
            )
        mux = 0
        background_relocks = 0
        # --- first iteration: drives the real RCC state machine --------
        # All switch stalls are priced at the LFO switching power: the
        # core is parked on (or transitioning through) the HSE while
        # the mux handshakes and the PLL hunts for lock.
        mem_seg, comp_seg = trace.runs[0].segments
        # ClockSwitchHSE (Listing 1, line 3): park the mux on the HSE.
        # Under an injected HSE dropout the CSS parks it on the HSI
        # failsafe instead, so the landed config (rcc.current) prices
        # the stall and the memory segment, not the requested LFO.
        cost = rcc.apply(lfo)
        park = rcc.current
        self._charge_switch(cost.latency_s, park, account, report)
        if cost.latency_s > 0:
            mux += 1
        # The PLL reprograms in the background during the first buffer
        # copy; any lock time the copy does not cover stalls the core.
        mem_time = self.board.core.segment_time_s(
            mem_seg.workload, park.sysclk_hz
        )
        lock_s = rcc.prepare_pll(hfo)
        if lock_s > 0:
            background_relocks += 1
        self._charge_switch(max(0.0, lock_s - mem_time), park, account, report)
        self._charge_segment(mem_seg, park, account, report)
        # ClockSwitchPLL (Listing 1, line 7): mux onto the locked PLL.
        cost = rcc.apply(hfo)
        self._charge_switch(cost.latency_s, park, account, report)
        if cost.latency_s > 0:
            mux += 1
        if rcc.current != hfo:
            # CSS failsafe: the HSE (hence the PLL) is gone and the
            # core runs from the HSI.  Finish the layer there -- no
            # LFO/HFO bouncing is possible without the HSE -- charging
            # every remaining segment at the failsafe clock.
            for segment in trace.segments[1:]:
                self._charge_segment(segment, rcc.current, account, report)
            return mux, background_relocks
        self._charge_segment(comp_seg, hfo, account, report)
        # --- remaining iterations: identical LFO<->HFO bounces ---------
        # The RCC state no longer changes (the PLL stays programmed),
        # so each run's remaining pairs are charged in one batch.
        mux_cost = self.board.switch_cost_model.mux_switch_s
        for i, run in enumerate(trace.runs):
            count = run.count - 1 if i == 0 else run.count
            if count == 0:
                continue
            mem_seg, comp_seg = run.segments
            self._charge_switch(2 * count * mux_cost, lfo, account, report)
            mux += 2 * count
            self._charge_segment_batch(
                mem_seg.workload, count, lfo, SegmentKind.MEMORY,
                account, report,
            )
            self._charge_segment_batch(
                comp_seg.workload, count, hfo, SegmentKind.COMPUTE,
                account, report,
            )
        return mux, background_relocks

    def _charge_segment_batch(
        self,
        workload,
        count: int,
        config: ClockConfig,
        kind: SegmentKind,
        account: EnergyAccount,
        report: LayerReport,
    ) -> None:
        """Charge ``count`` identical segments in one ledger entry each."""
        compute_t, memory_t = self.board.core.segment_time_parts(
            workload, config.sysclk_hz
        )
        power = self.board.power_model
        if compute_t > 0:
            p = power.power(config, PowerState.ACTIVE_COMPUTE)
            account.add(
                count * compute_t, p, EnergyCategory.COMPUTE,
                report.layer_name,
                config=config, state=PowerState.ACTIVE_COMPUTE,
            )
            report.latency_s += count * compute_t
            report.energy_j += count * compute_t * p
        if memory_t > 0:
            p = power.power(config, PowerState.ACTIVE_MEMORY)
            account.add(
                count * memory_t, p, EnergyCategory.MEMORY,
                report.layer_name,
                config=config, state=PowerState.ACTIVE_MEMORY,
            )
            report.latency_s += count * memory_t
            report.energy_j += count * memory_t * p
