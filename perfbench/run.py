"""The engelbook benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload construct-sweep --seed 1 --seconds 10 --trace 0

prints every end-to-end metric of the workload by name with its unit; with
``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics and the tracing overhead instead.  ``--workload all``
runs every workload in turn.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the metrics in it are the ones ``BENCHMARK.json`` lists.  Full results,
with the machine fingerprint and every op's output digest, are written to
``.perfbench/results/``.  ``--record-digests`` rewrites the reference output
digests in ``perfbench/digests.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run gives up after this long
P90_MIN_OPS = 100  # p90 is reported only with at least ten samples beyond it

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _spawn(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
           setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--tiny"] if tiny else []
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: workload process exited with status {proc.returncode}")
    result: dict = {}
    for line in out.splitlines():
        tag, _, payload = line.partition(" ")
        if tag == "READY":
            setup_s, speed = payload.split()
            result["setup_s"], result["setup_speed"] = float(setup_s), float(speed)
        elif tag == "RESULT":
            result.update(json.loads(payload))
    if "setup_s" not in result or (not setup_only and "records" not in result):
        raise RuntimeError(f"{workload}: workload process printed no result")
    return result


def end_to_end(result: dict, setup_samples: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """Times are wall seconds scaled by the host speed measured around them."""
    records = result["records"]
    wall = [r["seconds"] for r in records]
    durations = [r["seconds"] * r["speed"] for r in records]
    failed = sum(r["failure"] is not None for r in records)
    metrics = {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "latency_p50_s": (statistics.median(durations), "s"),
        "fail_frac": (failed / len(durations), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s * speed for s, speed in setup_samples), "s"),
        "host_speed": (statistics.median(result["speed_samples"]), "ratio"),
        "wall_ops_per_s": (len(wall) / sum(wall), "1/s"),
        "wall_latency_p50_s": (statistics.median(wall), "s"),
        "wall_setup_s": (statistics.median(s for s, _ in setup_samples), "s"),
    }
    if len(durations) >= P90_MIN_OPS:
        metrics["latency_p90_s"] = (statistics.quantiles(durations, n=10)[-1], "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload in fresh processes; return its metrics and raw result."""
    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    if not trace:
        for _ in range(SETUP_REPS - 1):
            setup = _spawn(name, seed, seconds, trace, tiny, True, deadline)
            setup_samples.append((setup["setup_s"], setup["setup_speed"]))
    result = _spawn(name, seed, seconds, trace, tiny, False, deadline)
    setup_samples.append((result["setup_s"], result["setup_speed"]))
    result["setup_samples"] = setup_samples
    if trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        metrics["reports.digest_mismatches"] = (float(result["digest_mismatches"]), "count")
    else:
        metrics = end_to_end(result, setup_samples)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny, metrics=metrics)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _listed_names(trace: int) -> list[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def report(result: dict) -> None:
    records = result["records"]
    failures = [r for r in result["setup_ops"] + records if r["failure"] is not None]
    print(
        f"{result['workload']}: seed {result['seed']}, {len(records)} ops in "
        f"{result['passes']} passes, trace {result['trace']}"
    )
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:32s} {value:.6g} {unit}")
    if not result["trace"]:
        if "latency_p90_s" not in result["metrics"]:
            print(f"  {'latency_p90_s':32s} omitted: {len(records)} ops < {P90_MIN_OPS}")
        samples = ", ".join(f"{s:.3f} s at speed {speed:.3f}" for s, speed in result["setup_samples"])
        print(f"  (setup_s is the median of {len(result['setup_samples'])} set-ups: {samples})")
        print("  (times are wall times scaled by host_speed, measured around each op; wall_* are unscaled)")
        print(f"  (output digests: {result['digest_mismatches']} mismatches, "
              f"{result['digests_unreferenced']} ops without a reference digest)")
    for r in failures[:10]:
        print(f"  FAILED {r['op']}: {r['failure']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed: op order and --seed values")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed whole passes run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="run every op a seed can generate and rewrite perfbench/digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "engelbook").is_dir():
        print(f"error: no engelbook sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        from workloads import record_digests

        record_digests()
        return 0

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    listed = _listed_names(args.trace)
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(result)
        records = result["records"]
        n_failed = sum(r["failure"] is not None for r in records)
        correct &= n_failed == 0 and all(r["failure"] is None for r in result["setup_ops"])
        attempted += len(records)
        failed += n_failed
        for metric in (listed if listed is not None else result["metrics"]):
            if metric not in result["metrics"]:
                print(f"error: {name} did not produce metric {metric}", file=sys.stderr)
                return 1
            value, unit = result["metrics"][metric]
            key = metric if len(names) == 1 else f"{name}/{metric}"
            out[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
