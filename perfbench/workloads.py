"""Benchmark workloads: generated CLI argv, output checks and the timed loop.

Run as a script, this is one workload process: it imports engelbook, sets
up, prints ``READY <setup seconds> <host speed>``, runs the closed loop (one client; the
next op starts when the previous one returns) and prints ``RESULT <json>``.
``perfbench/run.py`` starts it and reports the metrics; see the README.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
from hostspeed import SpeedLog

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench"
TMP_DIR = WORK_DIR / "tmp"
SPAN_DIR = WORK_DIR / "spans"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# the catalog at the commit that defined the benchmark; fixed here so that
# the program under test sees only generated argv
CATALOG = (
    "binding_Eb",
    "collar_xi",
    "darboux_even",
    "engel_darboux_loose",
    "engel_prolongation_Dk",
    "product_openbook",
    "prolongation_Eeps",
    "s3_openbook",
    "stabilization_local",
)
OP_SEEDS = 4  # --seed values are drawn from range(OP_SEEDS)
PORTRAIT_GRID = 41  # the foliation subcommand's default --grid
SPEED_EVERY_S = 0.1  # the host's speed is measured between ops this often
SETUP_SPEED_SAMPLES = 5  # speed measurements after set-up; their median scales setup_s


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]  # argv without output paths; also the digest key
    outputs: tuple[str, ...]  # output flags, each given a file under TMP_DIR
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def argv(self) -> list[str]:
        argv = list(self.args)
        for flag in self.outputs:
            argv += [flag, str(TMP_DIR / flag.lstrip("-"))]
        return argv


def _foliation(k: int, seed: int) -> Op:
    # the subcommand takes no seed; the drawn value is unused
    return Op(("foliation", "--k", str(k)), ("--out",))


def _construct(lam: int, k: int, seed: int) -> Op:
    args = ("construct", "--lambda", str(lam), "--k", str(k), "--seed", str(seed))
    return Op(args, ("--out", "--model-out"), {"lam": lam, "k": k})


def _verify(model: str, samples: int | None, seed: int) -> Op:
    args = ("verify", "--model", model)
    if samples is not None:
        args += ("--samples", str(samples))
    return Op(args + ("--seed", str(seed)), ("--out",))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[bool], list[Op]]  # (tiny) -> untimed ops run before the first pass
    universe: Callable[[bool], list[Callable[[int], Op]]]  # (tiny) -> op makers taking a seed
    reference: tuple[str, ...]  # hostspeed kernels that do the same kind of work as the ops
    setup_reference: tuple[str, ...]  # the same for the set-up

    def pass_ops(self, rng: np.random.Generator, tiny: bool) -> list[Op]:
        """One pass: every op of the universe once, in seeded order."""
        makers = self.universe(tiny)
        order = rng.permutation(len(makers))
        return [makers[i](int(rng.integers(OP_SEEDS))) for i in order]

    def all_ops(self) -> list[Op]:
        """Every op a seed can generate, for recording reference digests."""
        ops = {make(s) for make in self.universe(False) for s in range(OP_SEEDS)}
        return sorted(ops, key=lambda op: op.key)


DISK_KS = tuple(range(3, 20, 2))
SWEEP_KS = (3, 5, 7, 9)
SWEEP_PAIRS = tuple((lam, k) for k in SWEEP_KS for lam in range(-2, 5) if k + lam >= 1)
DENSE_SAMPLES = 100_000
TINY_SAMPLES = 2000

# why each workload was chosen: see README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "disk-cold",
            lambda tiny: [_foliation(3, 0)],
            lambda tiny: [partial(_foliation, k) for k in ((3,) if tiny else DISK_KS)],
            # batched Newton iteration over ~20k grid points
            ("vector_math",),
            ("vector_math",),
        ),
        Workload(
            "construct-sweep",
            # builds and caches each k's interior disk
            lambda tiny: [_construct(0, k, 0) for k in ((3,) if tiny else SWEEP_KS)],
            lambda tiny: [partial(_construct, lam, k) for lam, k in (((1, 3),) if tiny else SWEEP_PAIRS)],
            # symbolic algebra, small numpy calls, batched SVD, field evaluation;
            # the set-up is mostly the disks' Newton searches
            tuple(hostspeed.KERNELS),
            ("vector_math",),
        ),
        Workload(
            "verify-dense",
            lambda tiny: [_verify("darboux_even", TINY_SAMPLES if tiny else DENSE_SAMPLES, 0)],
            lambda tiny: [
                partial(_verify, m, TINY_SAMPLES if tiny else DENSE_SAMPLES)
                for m in (CATALOG[:2] if tiny else CATALOG)
            ],
            # batched SVD of 1e5-point stacks and evaluation on 1e5 points
            ("batched_svd", "vector_math"),
            ("batched_svd", "vector_math"),
        ),
        Workload(
            "verify-default",
            lambda tiny: [_verify("darboux_even", None, 0)],
            lambda tiny: [partial(_verify, m, None) for m in (CATALOG[:2] if tiny else CATALOG)],
            # one-point RK4 steps, per-call overheads, small SVDs
            tuple(hostspeed.KERNELS),
            tuple(hostspeed.KERNELS),
        ),
    )
}


# -- running and checking one op ------------------------------------------------


def run_op(op: Op) -> tuple[int, float, str]:
    """Run one op through the public entry point; return (status, seconds, stderr)."""
    from engelbook import cli

    argv = op.argv()
    for flag in op.outputs:
        (TMP_DIR / flag.lstrip("-")).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = cli.run(argv)
        except Exception:  # an op that crashes counts as failed; the loop goes on
            traceback.print_exc()
            status = -1
        elapsed = time.perf_counter() - t0
    return status, elapsed, err.getvalue()


def _portrait_rows(grid: int) -> int:
    axis = np.linspace(-0.98, 0.98, grid)
    p, q = np.meshgrid(axis, axis, indexing="ij")
    return int((np.hypot(p, q) <= 0.98).sum())


def check_op(op: Op, status: int, stderr: str) -> tuple[list[bytes], str | None]:
    """Read an op's outputs and check them; return (outputs, failure or None)."""
    outputs = []
    for flag in op.outputs:
        path = TMP_DIR / flag.lstrip("-")
        outputs.append(path.read_bytes() if path.exists() else b"")
    if status != 0:
        return outputs, f"exit status {status}: {stderr.strip()[-300:]}"
    try:
        return outputs, _check_outputs(op, outputs)
    except (ValueError, KeyError, TypeError) as exc:
        return outputs, f"unreadable output: {exc!r}"


def _check_outputs(op: Op, outputs: list[bytes]) -> str | None:
    if op.args[0] == "foliation":
        lines = outputs[0].decode().splitlines()
        want = _portrait_rows(PORTRAIT_GRID)
        if lines[:1] != ["u,v,direction_u,direction_v,singular_flag"] or len(lines) - 1 != want:
            return f"portrait has {len(lines) - 1} rows, the grid implies {want}"
        return None
    doc = json.loads(outputs[0])
    if doc.get("overall_pass") is not True:
        return "overall_pass is not true"
    if op.args[0] == "construct":
        lam, k = op.expect["lam"], op.expect["k"]
        want_inv = {"tw_gamma_x": 0, "tw_gamma_y": lam, "tw_gamma_phi": k, "rotation_k": k, "delta": 0}
        if doc["invariants"] != want_inv:
            return f"invariants {doc['invariants']} != {want_inv}"
        sing = doc["singularities"]
        want_sing = {"e_plus": (k + 1) // 2, "h_minus": (k - 1) // 2, "relative_euler": k}
        got = {key: sing.get(key) for key in want_sing}
        if got != want_sing:
            return f"singularities {got} != {want_sing}"
        from engelbook.modelfile import dump_model, load_model

        text = outputs[1].decode()
        if dump_model(load_model(text)) != text:
            return "model file does not round-trip through load_model/dump_model"
    return None


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out).digest())
    return h.hexdigest()


class Digests:
    """Output digests compared against the reference and earlier ops of the run."""

    def __init__(self) -> None:
        self.reference = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.unreferenced = 0

    def record(self, op: Op, value: str) -> None:
        want = self.reference.get(op.key) or self.seen.get(op.key)
        if op.key not in self.reference:
            self.unreferenced += op.key not in self.seen
        self.seen.setdefault(op.key, value)
        if want is not None and want != value:
            self.mismatches.append(op.key)


def record_digests() -> None:
    """Run every op any seed can generate and write the reference digests."""
    sys.path.insert(0, str(ROOT / "src"))
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in WORKLOADS.values():
        for op in workload.all_ops():
            status, _, stderr = run_op(op)
            outputs, failure = check_op(op, status, stderr)
            if failure is not None:
                raise RuntimeError(f"{op.key}: {failure}")
            reference[op.key] = digest(outputs)
    DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# -- machine fingerprint ------------------------------------------------------------


def _blas() -> dict:
    info = {"library": "unknown", "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        maps = Path("/proc/self/maps").read_text()
        libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    getattr(handle, sym).restype = ctypes.c_int
                    info["threads"] = int(getattr(handle, sym)())
                    return info
    except OSError:
        pass
    return info


def fingerprint() -> dict:
    import platform
    import subprocess

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": commit,
    }


# -- the workload process --------------------------------------------------------------


def _run_pass(ops: list[Op], digests: Digests, tracer=None, speed: SpeedLog | None = None) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        started = time.perf_counter()
        status, seconds, stderr = run_op(op)
        span = tracer.open("bench.check") if tracer is not None else None
        outputs, failure = check_op(op, status, stderr)
        if span is not None:
            tracer.close(span)
        value = digest(outputs)
        digests.record(op, value)
        records.append({"op": op.key, "started": started, "seconds": seconds, "failure": failure, "sha256": value})
        if speed is not None and speed.due():
            speed.sample()
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import engelbook.cli  # noqa: F401  (import cost belongs to set-up)

    TMP_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    digests = Digests()
    # fixed set-up ops, so that set-up time does not depend on the seed
    setup_records = _run_pass(workload.setup(args.tiny), digests)
    rng = np.random.default_rng(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    hostspeed.measure()  # the kernels' own first calls are slower
    setup_speed = statistics.median(
        hostspeed.combined(hostspeed.measure(), workload.setup_reference) for _ in range(SETUP_SPEED_SAMPLES)
    )
    print(f"READY {setup_s!r} {setup_speed!r}", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"setup_s": setup_s, "setup_speed": setup_speed, "setup_ops": setup_records}
    if args.trace:
        from tracing import Tracer, install, layer_metrics, write_spans

        ops = workload.pass_ops(rng, args.tiny)
        t0 = time.perf_counter()
        plain = _run_pass(ops, digests)
        plain_wall = time.perf_counter() - t0
        tracer = Tracer()
        restore = install(tracer)
        try:
            t0 = time.perf_counter()
            traced = _run_pass(ops, digests, tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            restore()
        spans = tracer.spans()
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        write_spans(spans, str(SPAN_DIR / f"{args.workload}-seed{args.seed}.csv"))
        layers = layer_metrics(spans, tracer.counts, traced_wall)
        layers["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
        result.update(records=plain + traced, layers=layers, passes=2)
    else:
        records: list[dict] = []
        passes = 0
        speed = SpeedLog(workload.reference, SPEED_EVERY_S)
        t0 = time.perf_counter()
        while True:
            records += _run_pass(workload.pass_ops(rng, args.tiny), digests, speed=speed)
            passes += 1
            # elapsed time at nominal host speed, so that a slow spell does
            # not change how many passes a run holds
            if (time.perf_counter() - t0) * speed.median() >= args.seconds:
                break
        speed.sample()
        for record in records:
            record["speed"] = speed.during(record["started"], record["started"] + record["seconds"])
        result.update(records=records, passes=passes, speed_samples=speed.speeds,
                      speed_times=speed.times, kernel_speeds=speed.kernel_speeds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["digest_mismatches"] = len(digests.mismatches)
    result["digests_unreferenced"] = digests.unreferenced
    result["machine"] = fingerprint()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
