"""Fleet work-queue: fan the planning pipeline across a worker pool.

The scheduler owns one fleet's shared pricing state (traces, time
decompositions, replayed schedules -- see :mod:`repro.fleet.pricing`)
and builds one :class:`~repro.pipeline.DAEDVFSPipeline` per distinct
board fingerprint, wired into that shared state.  Devices then flow
through a :class:`concurrent.futures.ThreadPoolExecutor`: every worker
optimizes + deploys its device on the device's pipeline, and all
cross-device reuse happens through single-flight caches
(:class:`~repro.memo.Memo`).

Two executions of the same fleet produce identical results, and do
identical work, regardless of worker count or scheduling order:
per-device computations are independent, each shared cache key is
computed once (concurrent askers wait for it), and results are
reported in device-id order.

The ``share=False`` mode prices every device from scratch on a private
pipeline (the single-device cost, N times) -- the baseline
``tests/fleet/test_scheduler.py`` checks sharing against, bit for bit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dse.space import DesignSpace
from ..engine.cost import TraceParams
from ..engine.runtime import InferenceReport
from ..errors import (
    ClockSwitchError,
    FaultInjectionError,
    ReproError,
    SensorReadError,
    WatchdogResetError,
)
from ..faults.plan import FaultPlan, PLAN_STAGE
from ..mcu.board import Board, make_nucleo_f767zi
from ..memo import Memo
from ..nn.graph import Model
from ..obs.audit import get_audit_log
from ..obs.series import SeriesStore
from ..obs.tracing import span, wrap
from ..optimize.qos import QoSLevel
from ..pipeline import DAEDVFSPipeline, OptimizationResult
from .pricing import BoardPlanningGroup
from .variation import DeviceProfile

#: Failures worth retrying: the transient hardware faults.  Everything
#: else (config errors, solver failures, poisoned models) is
#: deterministic -- retrying would reproduce it, so the device goes
#: straight to the error/quarantine path.
TRANSIENT_ERRORS = (
    ClockSwitchError,
    WatchdogResetError,
    SensorReadError,
    FaultInjectionError,
)


@dataclass
class DeviceResult:
    """Planning outcome for one device.

    Attributes:
        profile: the device this result belongs to.
        optimized: the full optimization result (plan, fronts, budget).
        report: the plan deployed over one QoS window on this device.
        error: failure description when planning raised (the fleet
            keeps going; the report counts failures).
        attempts: planning attempts consumed (1 without faults).
        quarantined: the device exhausted its retry budget (or failed
            persistently) and was pulled from the fleet.
    """

    profile: DeviceProfile
    optimized: Optional[OptimizationResult] = None
    report: Optional[InferenceReport] = None
    error: Optional[str] = None
    attempts: int = 1
    quarantined: bool = False

    @property
    def device_id(self) -> int:
        """The device's stable fleet index."""
        return self.profile.device_id


class FleetScheduler:
    """Plans a heterogeneous fleet against one model and QoS setting.

    Args:
        model: the network every device deploys.
        qos_level: latency budget relative to the TinyEngine baseline
            (exactly one of ``qos_level``/``qos_s``).
        qos_s: absolute latency budget in seconds.
        base_board: nominal board the design space is derived from.
            One *canonical* space serves the whole fleet -- the space
            prunes iso-frequency configs with the power model, so
            deriving it per device would fragment every shared cache
            (and real deployments ship one frequency grid, not one per
            unit).
        trace_params: access-pattern constants.
        solver: forwarded to each device pipeline.
        max_workers: thread-pool width for :meth:`run_pooled`.
        share: wire devices into the fleet-shared pricing state.  Off,
            every device pays the full single-device planning cost on
            a private pipeline (the unshared baseline).
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`;
            every device deploys under its own deterministic fault
            stream (spawn-keyed by device id, so results are invariant
            to worker scheduling).
        max_plan_attempts: planning attempts per device before it is
            quarantined.  Only transient hardware faults are retried.
        plan_backoff_s: base of the exponential backoff slept between
            attempts (0.0, the default, retries immediately -- real
            wall-clock sleeps would only slow the simulation down).
    """

    def __init__(
        self,
        model: Model,
        qos_level: Optional[QoSLevel] = None,
        qos_s: Optional[float] = None,
        base_board: Optional[Board] = None,
        trace_params: Optional[TraceParams] = None,
        solver: str = "dp",
        max_workers: int = 4,
        share: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        max_plan_attempts: int = 3,
        plan_backoff_s: float = 0.0,
    ):
        if (qos_level is None) == (qos_s is None):
            raise ReproError("provide exactly one of qos_level or qos_s")
        if max_workers < 1:
            raise ReproError("max_workers must be >= 1")
        if max_plan_attempts < 1:
            raise ReproError("max_plan_attempts must be >= 1")
        if plan_backoff_s < 0:
            raise ReproError("plan_backoff_s must be >= 0")
        self.model = model
        self.qos_level = qos_level
        self.qos_s = qos_s
        self.base_board = base_board or make_nucleo_f767zi()
        self.trace_params = trace_params
        self.solver = solver
        self.max_workers = max_workers
        self.share = share
        self.fault_plan = fault_plan
        self.max_plan_attempts = max_plan_attempts
        self.plan_backoff_s = plan_backoff_s
        #: Device ids pulled from the fleet after exhausting retries
        #: (sorted; stable across worker scheduling).
        self.quarantined: List[int] = []
        self._quarantine_lock = threading.Lock()
        # Heterogeneous fleets carry several board targets; pricing
        # state only shares across devices of the *same* target, so
        # each board name gets its own planning group, whose anchor
        # pipeline new device pipelines warm-start from.  The base
        # board's group is the historical scheduler state, and
        # ``space`` / ``shared`` keep aliasing it.
        base_group = BoardPlanningGroup(
            self.base_board, trace_params, solver
        )
        self.space: DesignSpace = base_group.space
        self.shared = base_group.shared
        self._groups = Memo()
        self._groups.put(self.base_board.name, base_group)
        self._pipelines = Memo()
        self._pipelines.put(self.base_board.fingerprint(), base_group.pipeline)

    # -- pipeline wiring ---------------------------------------------------------

    def _group_for(self, board: Board) -> BoardPlanningGroup:
        """The planning group of a device's board target (by name)."""
        return self._groups.get(
            board.name,
            lambda: BoardPlanningGroup(
                self._nominal_board_for(board),
                self.trace_params,
                self.solver,
            ),
        )

    @staticmethod
    def _nominal_board_for(board: Board) -> Board:
        """The unperturbed anchor of a device's target.

        Registered names rebuild the spec's nominal board (datasheet
        power constants); unregistered boards anchor on the device
        itself.
        """
        from ..boards.registry import get_spec
        from ..errors import BoardError

        try:
            return get_spec(board.name).build()
        except BoardError:
            return board

    def pipeline_for(self, profile: DeviceProfile) -> DAEDVFSPipeline:
        """The device's pipeline (shared across equal-fingerprint boards).

        Pipeline caches embed the power model through their prices, so
        only devices whose boards fingerprint equal may share one;
        distinct devices of one target still share everything
        timing-side through their group's fleet state.
        """
        if not self.share:
            return DAEDVFSPipeline(
                board=profile.board,
                space=self._group_for(profile.board).space,
                trace_params=self.trace_params,
                solver=self.solver,
            )
        return self._pipelines.get(
            profile.board.fingerprint(), self._warm_pipeline_on, profile.board
        )

    def _warm_pipeline_on(self, board: Board) -> DAEDVFSPipeline:
        group = self._group_for(board)
        pipeline = group.pipeline_on(board)
        pipeline.warm_start_from(group.pipeline, self.model)
        return pipeline

    # -- execution ---------------------------------------------------------------

    def plan_device(self, profile: DeviceProfile) -> DeviceResult:
        """Optimize + deploy one device (errors captured, not raised).

        No exception escapes: a failure of *any* class -- ReproError or
        an unexpected bug in a device's models -- is captured as
        :attr:`DeviceResult.error` so one poisoned device cannot kill a
        pooled fleet run.  Transient hardware faults
        (:data:`TRANSIENT_ERRORS`) are retried with exponential backoff
        up to ``max_plan_attempts``; a device that exhausts its budget
        (or fails persistently under injection) is quarantined.
        """
        with span("fleet.plan_device", device_id=profile.device_id):
            return self._plan_device(profile)

    def _plan_device(self, profile: DeviceProfile) -> DeviceResult:
        fault_clock = None
        if self.fault_plan is not None and self.fault_plan.any_faults:
            fault_clock = self.fault_plan.clock_for(
                profile.device_id, stage=PLAN_STAGE
            )
        last_error: Optional[str] = None
        transient = False
        attempt = 0
        while attempt < self.max_plan_attempts:
            attempt += 1
            try:
                pipeline = self.pipeline_for(profile)
                optimized = pipeline.optimize(
                    self.model, qos_level=self.qos_level, qos_s=self.qos_s
                )
                report = pipeline.deploy(
                    self.model, optimized.plan, fault_clock=fault_clock
                )
                return DeviceResult(
                    profile=profile, optimized=optimized, report=report,
                    attempts=attempt,
                )
            except TRANSIENT_ERRORS as err:
                last_error = f"{type(err).__name__}: {err}"
                transient = True
                if attempt < self.max_plan_attempts and self.plan_backoff_s:
                    time.sleep(self.plan_backoff_s * 2 ** (attempt - 1))
            except Exception as err:  # noqa: BLE001 -- isolate the pool
                last_error = f"{type(err).__name__}: {err}"
                transient = False
                break
        # Retry budget exhausted (transient) or persistent failure:
        # pull the device out of the fleet.
        quarantined = fault_clock is not None or transient
        if quarantined:
            with self._quarantine_lock:
                self.quarantined.append(profile.device_id)
                self.quarantined.sort()
            get_audit_log().record(
                "fleet.scheduler",
                "quarantine",
                device_id=profile.device_id,
                attempts=attempt,
                transient=transient,
                error=last_error,
            )
        return DeviceResult(
            profile=profile, error=last_error, attempts=attempt,
            quarantined=quarantined,
        )

    def run_serial(
        self,
        profiles: Sequence[DeviceProfile],
        series: Optional[SeriesStore] = None,
    ) -> List[DeviceResult]:
        """Plan every device on the calling thread, in order.

        With ``series``, the registry is sampled after every planned
        device at the *device index* timestamp -- the fleet path's
        injectable clock is its own progress, never the wall clock --
        so rollups over the series answer "how did cache hit rates
        evolve as the fleet filled in", deterministically.
        """
        results = []
        for index, profile in enumerate(profiles):
            results.append(self.plan_device(profile))
            if series is not None:
                series.sample(float(index + 1))
        results.sort(key=lambda r: r.device_id)
        return results

    def run_pooled(
        self,
        profiles: Sequence[DeviceProfile],
        series: Optional[SeriesStore] = None,
    ) -> List[DeviceResult]:
        """Plan the fleet on the worker pool; results in device order.

        A pooled run samples ``series`` only at the barrier: mid-pool
        snapshots would order on thread scheduling, and a
        scheduling-dependent series is exactly what the store exists
        to rule out.
        """
        # wrap() carries the caller's span/correlation context into the
        # worker threads (identity while tracing is off).
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            results = list(pool.map(wrap(self.plan_device), profiles))
        results.sort(key=lambda r: r.device_id)
        if series is not None:
            series.sample(float(len(profiles)))
        return results

    def run(
        self,
        profiles: Sequence[DeviceProfile],
        pooled: bool = True,
        series: Optional[SeriesStore] = None,
    ) -> List[DeviceResult]:
        """Plan the fleet, pooled or serial."""
        if pooled:
            return self.run_pooled(profiles, series=series)
        return self.run_serial(profiles, series=series)
