"""The benchmark's three workloads, driven through public entry points.

Each workload draws every input from the seed, measures for a time
budget in whole units (a round of plan requests, a request schedule,
a simulated day), checks its outputs, and returns a :class:`Outcome`.
With ``traced`` set it instead runs the same inputs twice, untraced
then traced, and returns the per-layer decomposition of the traced
pass (see :mod:`layers`).

Load comes from one process and at most two threads (``nproc`` is 2
on the reference host): the serve tier and the scenario's deploy pool
are capped at two workers and no shard processes are started.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import harness
import layers

#: Worker threads for the serve tier and the fleet deploy pool.
WORKERS = 2
#: How many times set-up is repeated per run (its median is reported).
SETUP_REPEATS = 5


@dataclass
class Named:
    """One named metric for the human-readable table."""

    value: float
    unit: str
    kind: str  # "host" or "simulated"
    better: str = "lower"
    samples: Optional[int] = None


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, Named] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Digest of every simulated output; equal across runs of a seed
    #: with the same ``sim_key`` (what else the outputs depend on).
    sim_digest: str = ""
    sim_key: str = ""
    layer_metrics: Dict[str, float] = field(default_factory=dict)


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _latency_named(
    named: Dict[str, Named], template: str, values_s: List[float], ps: Tuple[int, ...]
) -> None:
    """Exact percentiles named by ``template`` (``{p}`` is the rank)."""
    for p in ps:
        named[template.format(p=p)] = Named(
            harness.percentile(values_s, p) * 1e3, "ms", "host",
            samples=len(values_s),
        )


def _common(out: Outcome, setup_s: List[float]) -> None:
    out.metrics["setup_s"] = statistics.median(setup_s)
    out.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    out.named["setup_s"] = Named(
        out.metrics["setup_s"], "s", "host", samples=len(setup_s)
    )
    out.named["peak_rss_mb"] = Named(out.metrics["peak_rss_mb"], "MB", "host")
    out.named["ops_failed_pct"] = Named(
        100.0 * out.failed / max(1, out.attempted), "%", "host",
        samples=out.attempted,
    )


def _traced(
    run_pass: Callable[[Optional[harness.Recorder]], Tuple[float, float, float]],
) -> Tuple[Dict[str, float], List[str]]:
    """Run one untraced and one traced pass of the same inputs.

    ``run_pass(recorder)`` returns (t0, t1, normalised CPU seconds) of
    its timed window.  Overhead is the traced pass's CPU over the
    untraced pass's: CPU rather than wall, because an open loop's wall
    time is fixed by its schedule, and normalised by host speed,
    because the two passes run seconds apart.
    """
    _, _, cpu_plain = run_pass(None)
    recorder = harness.Recorder(layers.LAYERS)
    patcher = layers.instrument(recorder)
    try:
        t0, t1, cpu_traced = run_pass(recorder)
    finally:
        patcher.undo()
    metrics, problems = layers.layer_metrics(recorder, t0, t1)
    metrics["trace.overhead_pct"] = (cpu_traced / cpu_plain - 1.0) * 100.0
    return metrics, problems


# -- plan-cold -------------------------------------------------------------------


class PlanCold:
    """Closed loop, one client: a fresh pipeline and ``compare`` per request.

    Requests go in whole rounds; each round is a seeded permutation of
    the nine (model, paper QoS level) pairs, so every run plans the
    same mix and percentiles compare across seeds.
    """

    name = "plan-cold"

    def __init__(self, seed: int, seconds: float):
        from repro.nn.models import PAPER_MODELS
        from repro.optimize.qos import PAPER_QOS_LEVELS

        self.seed = seed
        self.seconds = seconds
        self.builders = PAPER_MODELS
        self.pairs = [
            (name, level)
            for name in sorted(PAPER_MODELS)
            for level in PAPER_QOS_LEVELS
        ]

    def _setup(self) -> Dict[str, Any]:
        from repro.pipeline import DAEDVFSPipeline

        models = {name: build() for name, build in self.builders.items()}
        # One throwaway request finishes lazy imports and module-level
        # tables, which a CLI user pays once per process, not per plan.
        name, level = self.pairs[0]
        DAEDVFSPipeline().compare(models[name], level)
        return models

    def _rounds(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.pairs)
            rng.shuffle(order)
            yield order

    def _run(
        self,
        models: Dict[str, Any],
        budget_s: float,
        max_rounds: Optional[int],
        recorder: Optional[harness.Recorder],
    ) -> Dict[str, Any]:
        from repro.pipeline import DAEDVFSPipeline

        speed = harness.HostSpeed()
        latencies: List[float] = []
        cpu_s: List[float] = []
        mids: List[float] = []
        # Per pair: the distinct (ours, TinyEngine, gated) energies seen,
        # the saving, and how many deploys missed QoS.  Results are not
        # kept, so peak RSS is the stack's, not the benchmark's.
        priced: Dict[Tuple[str, str], set] = {}
        savings: Dict[Tuple[str, str], float] = {}
        missed = errors = rounds = 0
        round_s: List[float] = []
        t0 = time.perf_counter()
        for order in self._rounds():
            elapsed = time.perf_counter() - t0
            if max_rounds is not None:
                if rounds >= max_rounds:
                    break
            elif rounds and elapsed + statistics.median(round_s) > budget_s:
                break
            start_round = time.perf_counter()
            for name, level in order:
                speed.sample()
                c_start = time.process_time()
                start = time.perf_counter()
                try:
                    if recorder is None:
                        result = DAEDVFSPipeline().compare(models[name], level)
                    else:
                        with recorder.span("bench.driver"):
                            result = DAEDVFSPipeline().compare(models[name], level)
                except Exception:  # noqa: BLE001 - counted as failed
                    result = None
                end = time.perf_counter()
                cpu_s.append(time.process_time() - c_start)
                mids.append(0.5 * (start + end))
                if result is None:
                    errors += 1
                    latencies.append(math.inf)
                    continue
                latencies.append(end - start)
                key = (name, level.name)
                missed += not result.ours.met_qos
                priced.setdefault(key, set()).add(
                    (
                        result.ours.energy_j,
                        result.tinyengine.energy_j,
                        result.clock_gated.energy_j,
                    )
                )
                savings[key] = result.savings_vs_tinyengine
            rounds += 1
            round_s.append(time.perf_counter() - start_round)
        t1 = time.perf_counter()
        factors = [speed.factor(t) for t in mids]
        return {
            "latencies": latencies,
            "norm_latencies": [x * f for x, f in zip(latencies, factors)],
            "norm_cpu_s": sum(c * f for c, f in zip(cpu_s, factors)),
            "priced": priced,
            "savings": savings,
            "failed": errors + missed,
            "missed_qos": missed,
            "rounds": rounds,
            "t0": t0,
            "t1": t1,
            "kernel_s": speed.median_kernel_s(),
        }

    def run(self, traced: bool) -> Outcome:
        out = Outcome()
        speed = harness.HostSpeed()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            start = time.perf_counter()
            models = self._setup()
            end = time.perf_counter()
            speed.sample()
            setup_s.append((end - start) * speed.factor(0.5 * (start + end)))
        if traced:
            rounds_box: List[int] = []

            def run_pass(recorder):
                if recorder is None:
                    res = self._run(models, self.seconds * 0.4, None, None)
                    rounds_box.append(res["rounds"])
                else:
                    res = self._run(models, 0.0, rounds_box[0], recorder)
                out.attempted += len(res["latencies"])
                out.failed += res["failed"]
                self._check(res, out)
                return res["t0"], res["t1"], res["norm_cpu_s"]

            out.layer_metrics, problems = _traced(run_pass)
            out.problems.extend(problems)
            _common(out, setup_s)
            return out

        res = self._run(models, self.seconds, None, None)
        latencies = res["latencies"]
        norm = res["norm_latencies"]
        n = len(latencies)
        out.attempted = n
        out.failed = res["failed"]
        self._check(res, out)
        out.metrics["p50_ms"] = harness.percentile(norm, 50) * 1e3
        out.metrics["tail_ms"] = harness.percentile(norm, 90) * 1e3
        out.metrics["cpu_ms_per_op"] = res["norm_cpu_s"] / n * 1e3
        _latency_named(out.named, "plan.p{p}_ms", latencies, (50, 90))
        out.named["plan.energy_saving_pct"] = Named(
            100.0 * statistics.fmean(res["savings"].values()), "%", "simulated",
            better="higher", samples=len(res["savings"]),
        )
        out.notes.append(
            f"closed loop, 1 client, {res['rounds']} rounds x {len(self.pairs)} "
            f"(model, QoS) pairs in {res['t1'] - res['t0']:.2f} s; "
            f"calibration kernel median {res['kernel_s'] * 1e3:.3f} ms "
            f"(reference {harness.CALIBRATION_REF_S * 1e3:.3f} ms)"
        )
        if n < harness.min_samples(90):
            out.notes.append("fewer than 100 samples: p90 is not supported")
        _common(out, setup_s)
        return out

    def _check(self, res: Dict[str, Any], out: Outcome) -> None:
        """Every plan meets QoS; every repeat of a pair prices identically."""
        if res["missed_qos"]:
            out.problems.append(
                f"plan-cold: {res['missed_qos']} deployed plans missed QoS"
            )
        for key, energies in sorted(res["priced"].items()):
            if len(energies) > 1:
                out.problems.append(
                    f"plan-cold: {key} priced {len(energies)} different ways"
                )
        out.sim_digest = _digest(
            {"/".join(k): sorted(v) for k, v in res["priced"].items()}
        )


# -- serve-mixed -------------------------------------------------------------------


#: The hot (model, QoS percent) keys, warmed during set-up.
HOT_MODELS = ("mbv2", "pd", "vww")
HOT_QOS = (10.0, 30.0, 50.0)
#: Op mix: cache hits on hot keys / fresh-QoS misses / reprices,
#: exact within every block of BLOCK requests.
MIX = (("hit", 0.70), ("miss", 0.15), ("reprice", 0.15))
BLOCK = 20
#: Block positions of the six misses and reprices: 3-4 arrivals apart.
HEAVY_SLOTS = (0, 3, 7, 10, 13, 17)
#: Fresh QoS percents are drawn from this continuous range, stratified.
MISS_QOS_RANGE = (11.0, 49.0)
#: Reprice drift: extra power in [0, 4 mW] (always feasible: it moves
#: energy, not latency).
MAX_EXTRA_POWER_W = 0.004
#: Open-loop arrival rate.  Measured capacity of this mix on the
#: reference host (2 vCPU) is ~105 req/s closed loop, so this is ~19%
#: of it: at ~40% the median request lands on the edge between hits
#: that do and do not wait for the interpreter lock behind a miss,
#: and it moved by a third between runs.
RATE_PER_S = 20.0
#: The generator shares the interpreter lock with the server it
#: drives, so sends run a few switch intervals late under load; that
#: lateness is inside every latency (timed from the due time).  It
#: has *fallen behind* -- the run is invalid -- when one send is this
#: late or the achieved send rate drops below this share of the rate.
MAX_LATE_S = 0.250
MIN_RATE_SHARE = 0.95
#: The serve tail percentile.  p98 has ten samples beyond it at 500
#: requests, but its spread (IQR / median) between seeds was 13-26%;
#: p95 keeps 25 samples beyond it.
TAIL_P = 95
#: Calibrate only when the next arrival is at least this far away;
#: while requests are in flight, the generator checks every POLL_S.
CALIBRATE_GAP_S = 0.005
POLL_S = 0.005
#: Host steal (CPU time the hypervisor gave other guests) above this
#: share of the timed window invalidates it: steal delays thread and
#: event-loop wake-ups, which the calibration kernel cannot correct.
#: Quiet windows on the reference host showed 0.1-1.1%; windows at
#: 3-11% moved p50 and the tail by ~30% between seeds.
MAX_STEAL = 0.02
#: Timed windows tried, each on a freshly warmed server, before a run
#: whose every window had too much steal is marked invalid.
STEAL_ATTEMPTS = 3


class ServeMixed:
    """Open loop at a fixed rate into an in-process ``PlanServer``."""

    name = "serve-mixed"

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.hot = [(m, q) for m in HOT_MODELS for q in HOT_QOS]

    def schedule(self, n: int) -> List[Tuple[str, str, Dict[str, Any]]]:
        """``n`` seeded (class, op, params) requests.

        Stratified so the work per run does not depend on the seed:
        every block of 20 requests holds exactly 14 hits, 3 misses and
        3 reprices, hot keys and miss models are dealt in seeded
        permutations, and each model's fresh QoS percents cover the
        range in equal slices.  Misses and reprices take the fixed slots
        HEAVY_SLOTS of each block, in seeded order, so heavy requests
        arrive evenly spaced: how often two of them overlap then
        depends on their service times, not on the seed's shuffle.
        The seed still picks the order, the keys, the exact QoS
        percents and the drift values.
        """
        rng = random.Random(self.seed)
        per_block = [(cls, int(round(share * BLOCK))) for cls, share in MIX]
        used = set(HOT_QOS)

        def dealer(items):
            while True:
                order = list(items)
                rng.shuffle(order)
                yield from order

        # Each model's misses take one draw from each of `strata` equal
        # slices of the QoS range, in seeded order: as many slices as
        # the schedule has misses per model, so every run plans the same
        # spread of QoS percents.
        misses = dict(per_block)["miss"] * math.ceil(n / BLOCK)
        strata = max(1, misses // len(HOT_MODELS))

        def stratified(lo: float, hi: float):
            width = (hi - lo) / strata
            while True:
                slices = list(range(strata))
                rng.shuffle(slices)
                for k in slices:
                    yield lo + (k + rng.random()) * width

        hot_keys = dealer(self.hot)
        reprice_keys = dealer(self.hot)
        miss_models = dealer(HOT_MODELS)
        miss_qos = {model: stratified(*MISS_QOS_RANGE) for model in HOT_MODELS}
        out = []
        while len(out) < n:
            heavy = [cls for cls, count in per_block if cls != "hit" for _ in range(count)]
            rng.shuffle(heavy)
            block = ["hit"] * BLOCK
            for slot, cls in zip(HEAVY_SLOTS, heavy):
                block[slot] = cls
            for cls in block:
                if cls == "hit":
                    model, qos = next(hot_keys)
                    out.append(("hit", "plan", {"model": model, "qos_percent": qos}))
                elif cls == "miss":
                    model = next(miss_models)
                    fresh = next(miss_qos[model])
                    while fresh in used:
                        fresh = next(miss_qos[model])
                    used.add(fresh)
                    out.append(
                        ("miss", "plan", {"model": model, "qos_percent": fresh})
                    )
                else:
                    model, qos = next(reprice_keys)
                    extra = rng.uniform(0.0, MAX_EXTRA_POWER_W)
                    out.append(
                        ("reprice", "reprice",
                         {"model": model, "qos_percent": qos, "extra_power_w": extra})
                    )
        return out[:n]

    async def _setup(self):
        from repro.serve.client import InProcessClient
        from repro.serve.server import PlanServer, ServeConfig

        server = PlanServer(ServeConfig(workers=WORKERS))
        client = InProcessClient(server)
        for model, qos in self.hot:
            await client.request("plan", model=model, qos_percent=qos)
        return server, client

    async def _run(self, client, schedule, recorder) -> Dict[str, Any]:
        n = len(schedule)
        speed = harness.HostSpeed()
        latencies: List[float] = [math.inf] * n
        lateness: List[float] = [0.0] * n
        served: List[Optional[Dict[str, Any]]] = [None] * n
        errors: List[str] = []
        inflight = 0

        async def one(i: int, due: float) -> None:
            nonlocal inflight
            cls, op, params = schedule[i]
            try:
                result = await client.request(op, **params)
            except Exception as err:  # noqa: BLE001 - counted as failed
                errors.append(f"{cls} {params}: {type(err).__name__}: {err}")
                return
            finally:
                inflight -= 1
            latencies[i] = time.perf_counter() - due
            served[i] = {"digest": result["digest"], "cached": result["cached"]}

        driver = (
            None if recorder is None else recorder.code["bench.driver"]
        )
        tasks = []
        calibration_cpu = 0.0
        speed.sample()
        steal0 = harness.steal_jiffies()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for i in range(n):
            due = t0 + i / RATE_PER_S
            calibrated = False
            while True:
                delay = due - time.perf_counter()
                if delay <= 0:
                    break
                # Calibrate once per gap, only while the server is idle
                # and well before the next arrival, so the kernel never
                # competes with a request.
                if not calibrated and inflight == 0 and delay > CALIBRATE_GAP_S:
                    c_start = time.process_time()
                    speed.sample()
                    calibration_cpu += time.process_time() - c_start
                    calibrated = True
                    continue
                await asyncio.sleep(min(delay, POLL_S))
            lateness[i] = time.perf_counter() - due
            inflight += 1
            awaitable = one(i, due)
            if driver is not None:
                recorder.count("bench.driver.calls")
                awaitable = harness.TimedAwaitable(awaitable, driver, recorder)
            tasks.append(asyncio.ensure_future(awaitable))
        await asyncio.gather(*tasks)
        t1 = time.perf_counter()
        # The server's CPU only: the kernel runs inside the window.
        cpu = time.process_time() - cpu0 - calibration_cpu
        steal = harness.steal_share(steal0, harness.steal_jiffies())
        speed.sample()
        factors = [speed.factor(t0 + i / RATE_PER_S) for i in range(n)]
        # Every request first waits out the batcher's collection window,
        # a timer that host speed does not change: only the rest of its
        # latency is scaled.  Scaling the whole latency moved the hit
        # p50 (half of it is the window) with every host-speed swing.
        window = client.server.batcher.window_s
        return {
            "latencies": latencies,
            "norm_latencies": [
                min(x, window) + max(0.0, x - window) * f
                for x, f in zip(latencies, factors)
            ],
            "norm_cpu_s": cpu * statistics.fmean(factors),
            "lateness": lateness,
            "served": served,
            "errors": errors,
            "t0": t0,
            "t1": t1,
            "kernel_s": speed.median_kernel_s(),
            "calibrations": len(speed.kernel_s),
            "steal": steal,
        }

    def _verify(self, schedule, served, out: Outcome) -> None:
        """Every distinct key's digest vs a cold recompute."""
        from repro.serve.service import PlanService

        digests: Dict[Tuple, set] = {}
        for (cls, op, params), got in zip(schedule, served):
            if got is None:
                continue
            key = (op, params["model"], params["qos_percent"], params.get("extra_power_w"))
            digests.setdefault(key, set()).add(got["digest"])
        cold_service = PlanService()
        reprice_service = PlanService()
        mismatches = 0
        for key in sorted(digests, key=repr):
            op, model, qos, extra = key
            if len(digests[key]) != 1:
                out.problems.append(f"serve-mixed: {key} served {len(digests[key])} digests")
                continue
            if op == "plan":
                want = cold_service.plan_cold(model, ("percent", qos))["digest"]
            else:
                want = reprice_service.reprice(
                    model, ("percent", qos), extra_power_w=extra
                )["digest"]
            if want not in digests[key]:
                mismatches += 1
                out.problems.append(f"serve-mixed: {key} digest differs from a cold recompute")
        out.notes.append(
            f"verified {len(digests)} distinct keys against cold recomputes, "
            f"{mismatches} mismatched"
        )
        out.sim_digest = _digest(
            {repr(k): sorted(v) for k, v in sorted(digests.items(), key=repr)}
        )
        out.sim_key = f"requests={len(schedule)}"

    def _late_check(self, lateness: List[float], out: Outcome) -> Tuple[float, float]:
        late_p99 = harness.percentile(lateness, 99)
        late_max = max(lateness)
        n = len(lateness)
        span_s = (n - 1) / RATE_PER_S + lateness[-1] - lateness[0]
        achieved = (n - 1) / span_s if span_s > 0 else RATE_PER_S
        if late_max > MAX_LATE_S or achieved < MIN_RATE_SHARE * RATE_PER_S:
            out.problems.append(
                f"serve-mixed: generator fell behind (lateness p99 "
                f"{late_p99 * 1e3:.1f} ms, max {late_max * 1e3:.1f} ms, "
                f"sent {achieved:.2f} req/s of {RATE_PER_S:g})"
            )
        return late_p99, late_max

    def run(self, traced: bool) -> Outcome:
        return asyncio.run(self._main(traced))

    async def _main(self, traced: bool) -> Outcome:
        out = Outcome()
        speed = harness.HostSpeed()
        setup_s = []
        servers = []
        try:
            for _ in range(SETUP_REPEATS):
                speed.sample()
                start = time.perf_counter()
                servers.append(await self._setup())
                end = time.perf_counter()
                speed.sample()
                setup_s.append((end - start) * speed.factor(0.5 * (start + end)))
                # The traced run needs two warm servers; stop the rest
                # so peak RSS counts one or two, not SETUP_REPEATS.
                if len(servers) > 2:
                    await servers.pop(0)[0].stop()
            if traced:
                return await self._main_traced(out, setup_s, servers)
            n = int(round(RATE_PER_S * self.seconds))
            schedule = self.schedule(n)
            steals = []
            for attempt in range(STEAL_ATTEMPTS):
                if attempt:
                    # The last window cached its misses: start afresh.
                    await servers.pop()[0].stop()
                    servers.append(await self._setup())
                res = await self._run(servers[-1][1], schedule, None)
                steals.append(res["steal"])
                if res["steal"] is None or res["steal"] <= MAX_STEAL:
                    break
        finally:
            for server, _ in servers:
                await server.stop()
        latencies = res["latencies"]
        norm = res["norm_latencies"]
        out.attempted = n
        out.failed = len(res["errors"])
        out.problems.extend(res["errors"][:5])
        late_p99, late_max = self._late_check(res["lateness"], out)
        if steals[-1] is not None:
            out.notes.append(
                "host steal per timed window: "
                + ", ".join(f"{100.0 * x:.1f}%" for x in steals)
            )
            if steals[-1] > MAX_STEAL:
                out.problems.append(
                    f"serve-mixed: host steal above {100.0 * MAX_STEAL:g}% in "
                    f"all {len(steals)} timed windows; latencies not valid"
                )
        out.metrics["p50_ms"] = harness.percentile(norm, 50) * 1e3
        out.metrics["tail_ms"] = harness.percentile(norm, TAIL_P) * 1e3
        out.metrics["cpu_ms_per_op"] = res["norm_cpu_s"] / n * 1e3
        _latency_named(out.named, "serve.p{p}_ms", latencies, (50, TAIL_P, 98))
        for cls, values in self._by_class(latencies, schedule).items():
            _latency_named(out.named, f"serve.{cls}_p{{p}}_ms", values, (50, 99))
        out.named["serve.generator_late_p99_ms"] = Named(late_p99 * 1e3, "ms", "host", samples=n)
        out.named["serve.generator_late_max_ms"] = Named(late_max * 1e3, "ms", "host", samples=n)
        plans = [s for s in res["served"] if s is not None]
        hit_share = sum(1 for s in plans if s["cached"]) / max(1, len(plans))
        out.notes.append(
            f"open loop at {RATE_PER_S:g} req/s for {res['t1'] - res['t0']:.2f} s, "
            f"{n} requests, measured cache-hit share {hit_share:.3f}; "
            f"{res['calibrations']} idle calibrations, kernel median "
            f"{res['kernel_s'] * 1e3:.3f} ms (reference "
            f"{harness.CALIBRATION_REF_S * 1e3:.3f} ms)"
        )
        self._verify(schedule, res["served"], out)
        _common(out, setup_s)
        return out

    @staticmethod
    def _by_class(latencies, schedule) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {"hit": [], "miss": [], "reprice": []}
        for lat, (cls, _, _) in zip(latencies, schedule):
            out[cls].append(lat)
        return out

    async def _main_traced(self, out, setup_s, servers) -> Outcome:
        n = int(round(RATE_PER_S * self.seconds * 0.4))
        schedule = self.schedule(n)
        # Each pass gets its own freshly warmed server.  _traced() is
        # not used: its passes would nest event loops.
        plain = await self._run(servers[-2][1], schedule, None)
        recorder = harness.Recorder(layers.LAYERS)
        patcher = layers.instrument(recorder)
        try:
            traced = await self._run(servers[-1][1], schedule, recorder)
        finally:
            patcher.undo()
        metrics, problems = layers.layer_metrics(recorder, traced["t0"], traced["t1"])
        metrics["trace.overhead_pct"] = (
            traced["norm_cpu_s"] / plain["norm_cpu_s"] - 1.0
        ) * 100.0
        out.problems.extend(problems)
        for cls, values in self._by_class(plain["latencies"], schedule).items():
            for p in (50, 99):
                metrics[f"serve.{cls}_p{p}_ms"] = harness.percentile(values, p) * 1e3
        for res in (plain, traced):
            out.problems.extend(res["errors"][:5])
            out.attempted += n
            out.failed += len(res["errors"])
            self._late_check(res["lateness"], out)
        digests = [
            [s and s["digest"] for s in res["served"]] for res in (plain, traced)
        ]
        if digests[0] != digests[1]:
            out.problems.append("serve-mixed: traced pass served different plans")
        self._verify(schedule, traced["served"], out)
        out.layer_metrics = metrics
        _common(out, setup_s)
        return out


# -- scenario-day ------------------------------------------------------------------

#: Fleet size and simulated span of one scenario-day repetition.
DEVICES = 100
HORIZON_H = 24.0
#: The fleet is sampled from this fixed seed; ``--seed`` draws the
#: day's traffic.  With the fleet drawn from ``--seed`` too, per-step
#: host time moved ~12% between seeds (hot devices replan more), which
#: is workload content, not measurement noise.
FLEET_SEED = 0


class ScenarioDay:
    """The ``steady-diurnal`` preset, timed deploy and per-step."""

    name = "scenario-day"

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds

    def _config(self):
        from repro.scenario.library import steady_diurnal
        from repro.serve.server import ServeConfig

        horizon_s = HORIZON_H * 3600.0
        cfg = steady_diurnal(devices=DEVICES, horizon_s=horizon_s, seed=FLEET_SEED)
        cfg.arrivals = steady_diurnal(
            devices=DEVICES, horizon_s=horizon_s, seed=self.seed
        ).arrivals
        cfg.max_workers = WORKERS
        cfg.serve = ServeConfig(workers=WORKERS)
        return cfg

    def _rep(self, recorder: Optional[harness.Recorder]) -> Dict[str, Any]:
        from repro.scenario.engine import ScenarioEngine

        speed = harness.HostSpeed()
        speed.sample()
        start = time.perf_counter()
        engine = ScenarioEngine(self._config())
        setup = time.perf_counter() - start
        speed.sample()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        steps: List[float] = []
        step_cpu: List[float] = []
        mids: List[float] = []
        try:
            engine.start()
            deployed = time.perf_counter()
            deploy_cpu = time.process_time() - cpu0
            while True:
                speed.sample()
                c_begin = time.process_time()
                begin = time.perf_counter()
                if recorder is None:
                    more = engine.step()
                else:
                    with recorder.span("bench.driver"):
                        more = engine.step()
                end = time.perf_counter()
                if not more:
                    break
                steps.append(end - begin)
                step_cpu.append(time.process_time() - c_begin)
                mids.append(0.5 * (begin + end))
            looped = time.perf_counter()
            report = engine.finish()
        finally:
            engine.close()
        t1 = time.perf_counter()
        factors = [speed.factor(t) for t in mids]
        serve = report.serve
        return {
            "setup": setup,
            "norm_setup": setup * speed.factor(start),
            "deploy": deployed - t0,
            "loop": looped - deployed,
            "steps": steps,
            "norm_steps": [x * f for x, f in zip(steps, factors)],
            "norm_cpu_s": deploy_cpu * speed.factor(t0)
            + sum(c * f for c, f in zip(step_cpu, factors)),
            "t0": t0,
            "t1": t1,
            "kernel_s": speed.median_kernel_s(),
            "epochs": report.demand["epochs_run"],
            "qos_met_pct": 100.0 * report.qos_met_fraction,
            "replans": dict(report.replans),
            "requests": sum(serve["requests"].values()),
            "errors": sum(serve["errors"].values()),
            "error_kinds": dict(serve["errors"]),
            "digest": report.digest(),
        }

    def _sim(self, rep: Dict[str, Any]) -> Dict[str, Any]:
        return {
            key: rep[key]
            for key in (
                "epochs", "qos_met_pct", "replans", "requests", "error_kinds", "digest",
            )
        }

    def run(self, traced: bool) -> Outcome:
        out = Outcome()
        if traced:
            reps: List[Dict[str, Any]] = []

            def run_pass(recorder):
                rep = self._rep(recorder)
                reps.append(rep)
                return rep["t0"], rep["t1"], rep["norm_cpu_s"]

            out.layer_metrics, problems = _traced(run_pass)
            out.problems.extend(problems)
        else:
            reps = []
            t_start = time.perf_counter()
            while True:
                reps.append(self._rep(None))
                elapsed = time.perf_counter() - t_start
                per_rep = statistics.median(
                    r["setup"] + r["t1"] - r["t0"] for r in reps
                )
                if elapsed + per_rep > self.seconds:
                    break
        sims = [self._sim(r) for r in reps]
        if any(s != sims[0] for s in sims):
            out.problems.append(
                "scenario-day: repetitions of one seed disagree: "
                + ", ".join(s["digest"][:12] for s in sims)
            )
        out.sim_digest = _digest(sims[0])
        # The operations are one day's serve-bridge requests (every day
        # of a run is identical, checked above), so the counts do not
        # grow with how many days fit in the budget.  A step that
        # raises aborts the run.
        first = reps[0]
        out.attempted = first["requests"]
        out.failed = first["errors"]
        _common(out, [r["norm_setup"] for r in reps])
        out.named["ops_failed_pct"].kind = "simulated"
        out.notes.append(f"serve-bridge errors by kind: {first['error_kinds']}")
        if traced:
            return out
        steps = [s for r in reps for s in r["steps"]]
        norm = [s for r in reps for s in r["norm_steps"]]
        ticks = len(steps)
        out.metrics["p50_ms"] = harness.percentile(norm, 50) * 1e3
        out.metrics["tail_ms"] = harness.percentile(norm, 90) * 1e3
        out.metrics["cpu_ms_per_op"] = sum(r["norm_cpu_s"] for r in reps) / ticks * 1e3
        deploys = [r["deploy"] for r in reps]
        out.named["fleet.deploy_s"] = Named(
            statistics.median(deploys), "s", "host", samples=len(deploys)
        )
        out.named["scenario.epochs_per_s"] = Named(
            statistics.median(r["epochs"] / r["loop"] for r in reps),
            "1/s", "host", better="higher", samples=len(reps),
        )
        _latency_named(out.named, "scenario.tick_p{p}_ms", steps, (50, 90))
        out.named["scenario.qos_met_pct"] = Named(
            first["qos_met_pct"], "%", "simulated", better="higher"
        )
        requested = first["replans"]["requested"]
        out.named["scenario.replan_applied_pct"] = Named(
            100.0 * first["replans"]["applied"] / requested if requested else 0.0,
            "%", "simulated", better="higher",
        )
        out.notes.append(
            f"{len(reps)} x steady-diurnal ({DEVICES} devices, {HORIZON_H:g} h, "
            f"{first['epochs']} device-epochs, {ticks // len(reps)} steps each), "
            f"report digest {first['digest'][:16]}; calibration kernel median "
            f"{statistics.median(r['kernel_s'] for r in reps) * 1e3:.3f} ms "
            f"(reference {harness.CALIBRATION_REF_S * 1e3:.3f} ms)"
        )
        return out


WORKLOADS = {cls.name: cls for cls in (PlanCold, ServeMixed, ScenarioDay)}
