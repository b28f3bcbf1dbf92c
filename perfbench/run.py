"""The repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
harness self-test, then an untraced and a traced pass of the same
inputs, and reports the per-layer table.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name, unit and kind (host time or simulated).  A failed output check
prints ``"correct": false`` and exits 1.  See ``perfbench/README.md``
for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Simulated-output digests of earlier runs in this checkout, keyed by
#: source version, workload and seed (see :func:`check_state`).
STATE_DIR = os.path.join(HERE, ".state")

#: End-to-end metric units, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def source_version() -> str:
    """Digest of the planning stack's and this benchmark's sources."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_state(workload: str, seed: int, sim_key: str, digest: str) -> List[str]:
    """Simulated outputs must be identical across runs of one seed.

    The first run of a (source version, workload, seed, ``sim_key``)
    records its digest under ``perfbench/.state``; later runs must
    match it.  ``sim_key`` names what else the outputs depend on (the
    serve schedule's length).
    """
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"{source_version()[:16]}.json")
    try:
        with open(path) as f:
            state: Dict[str, str] = json.load(f)
    except FileNotFoundError:
        state = {}
    key = f"{workload}/seed={seed}/{sim_key}"
    previous = state.get(key)
    if previous is not None:
        if previous != digest:
            return [
                f"{workload}: simulated outputs differ from an earlier run "
                f"of seed {seed} ({previous[:12]} vs {digest[:12]})"
            ]
        return []
    state[key] = digest
    fd, tmp = tempfile.mkstemp(dir=STATE_DIR, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    import harness
    import layers
    import selftest
    import workloads

    problems: List[str] = []
    steal_before = harness.steal_jiffies()
    if trace:
        failures = selftest.run_selftest()
        problems.extend(f"harness self-test: {f}" for f in failures)
    outcome = workloads.WORKLOADS[name](seed, seconds).run(traced=trace)
    problems.extend(outcome.problems)
    problems.extend(
        check_state(name, seed, outcome.sim_key, outcome.sim_digest)
    )

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for note in outcome.notes:
        print(f"   {note}")
    share = harness.steal_share(steal_before, harness.steal_jiffies())
    if share is not None:
        # The calibration kernel cannot correct the wake-up delays that
        # steal causes; serve-mixed also checks it over its window.
        print(f"   host steal during this run: {100.0 * share:.1f}% of CPU time")
    for metric, named in sorted(outcome.named.items()):
        samples = "" if named.samples is None else f"  n={named.samples}"
        print(
            f"   {metric:34s} {named.value:14.4f} {named.unit:4s} "
            f"({named.kind}, {named.better} is better{samples})"
        )
    if trace:
        metrics = {
            metric: {"value": float(outcome.layer_metrics.get(metric, 0.0)), "unit": unit}
            for metric, unit in layers.metric_units()
        }
        print_layer_table(outcome.layer_metrics)
    else:
        metrics = {
            metric: {"value": float(outcome.metrics[metric]), "unit": unit}
            for metric, unit in END_TO_END
        }
    for problem in problems:
        print(f"   CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def print_layer_table(values: Dict[str, float]) -> None:
    import layers

    wall = values.get("trace.wall_ms", 0.0) or 1.0
    print(f"   {'layer':20s} {'calls':>10s} {'self_ms':>12s} {'share':>7s}  extra")
    for layer in layers.LAYERS:
        self_ms = values.get(f"{layer}.self_ms")
        extra = ", ".join(
            f"{suffix}={values.get(f'{layer}.{suffix}', 0.0):.4g}"
            for suffix, _ in layers.EXTRA.get(layer, ())
        )
        shown = "-" if self_ms is None else f"{self_ms:12.2f}"
        share = "" if self_ms is None else f"{100.0 * self_ms / wall:6.2f}%"
        print(
            f"   {layer:20s} {values.get(f'{layer}.calls', 0.0):10.0f} "
            f"{shown:>12s} {share:>7s}  {extra}"
        )
    for name, _ in layers.TRACE_METRICS:
        print(f"   {name:20s} {values.get(name, 0.0):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("plan-cold", "serve-mixed", "scenario-day", "all"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no planning stack at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    names = (
        ["plan-cold", "serve-mixed", "scenario-day"]
        if args.workload == "all" else [args.workload]
    )
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
