"""One workload in one process: set up, then run timed or traced passes.

Started by ``run.py``; talks back over stdout in lines that start with
``BENCH``. The set-up ends with a ``BENCH ready`` line after the import, the
input generation for pass 0 and one untimed warm-up op; ``BENCH calibrated``
follows with the machine speed right after set-up and the warm-up results. A
``setup`` child exits there; a ``measure`` child goes on and ends with
``BENCH result``.

Timed runs execute whole passes until at least ``--seconds`` of op time and
the workload's minimum op count are reached. Traced runs alternate an
untraced pass with the same pass traced, for ``trace.overhead_frac``, then
time the kernel probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

#: a child stops starting passes after this long, so the run ends within its limit
HARD_STOP_S = 140.0
PROBE_BATCHES = 5
#: op time between two samples of the calibration kernel
CAL_EVERY_S = 0.1
#: kernel samples taken right after set-up
CAL_SETUP_SAMPLES = 20
#: kernel times that scaled times refer to: about their means between ops on
#: the 2-core Xeon (2.1 GHz, Python 3.11.7, numpy 2.4.6) the benchmark was
#: defined on, so that scaled times there read close to wall-clock ones
CAL_REFERENCE_S = {"linalg": 0.0033, "bigint": 0.003}


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"BENCH {tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


class Calibration:
    """Times a fixed CPU kernel, which calls no coherence_lab code, to follow the host's speed.

    The host's effective CPU speed drifts: one identical oracle pass took
    2.3 s to 4.0 s on a pinned core within a minute. The kernel is a float
    recurrence in plain Python plus the work its workload leans on: small
    complex ``eigh`` and SVD calls (``"linalg"``) or big-int to decimal
    conversions (``"bigint"``); each tracked its own workloads' drift better
    than the other did. ``scale`` is the factor that brings times measured at
    the sampled speed to the reference speed.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.herm = h + h.conj().T
        self.square = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.kind = kind
        self.samples: list = []

    def sample(self) -> None:
        started = time.perf_counter()
        x, z = 0.003, 0.03
        for _ in range(6000):
            denom = 1.0 + z * z
            z, x = z - z * x * x / denom, x * math.sqrt(denom)
        if self.kind == "linalg":
            for _ in range(40):
                np.linalg.eigh(self.herm)
                np.linalg.svd(self.square, compute_uv=False)
            str(7**3000)
        else:
            for bits in range(100, 7000, 100):
                str(1 << bits)
        self.samples.append(time.perf_counter() - started)

    def scale(self) -> float:
        return CAL_REFERENCE_S[self.kind] / (sum(self.samples) / len(self.samples))


class Runner:
    """Runs ops in a closed loop, checks them untimed, and folds results into a digest.

    With a calibration, the kernel is sampled before an op whenever
    ``CAL_EVERY_S`` of op time has passed since the last sample.
    """

    def __init__(self, workload, scratch: str, calibration: Calibration | None = None) -> None:
        self.workload = workload
        self.scratch = scratch
        self.calibration = calibration
        self.since_sample = math.inf
        self.latencies: list = []
        self.failed = 0
        self.wall = 0.0
        self.problems: list = []
        self.errors: dict = {}
        self.bytes_written = 0
        self.op_count = 0

    def run_pass(self, ops: list, tracer=None) -> tuple:
        """Run one pass; returns its op time and the digest of its results."""
        digest = hashlib.sha256()
        wall = 0.0
        for op in ops:
            if self.calibration is not None and self.since_sample >= CAL_EVERY_S:
                self.calibration.sample()
                self.since_sample = 0.0
            workdir = os.path.join(self.scratch, f"op{self.op_count}")
            if tracer is not None:
                tracer.op_id = self.op_count
            self.op_count += 1
            started = time.perf_counter()
            try:
                result = self.workload.run(op, workdir)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.op_id = None
            wall += elapsed
            self.since_sample += elapsed
            if error is None:
                self.latencies.append(elapsed)
                try:
                    self.problems += self.workload.check(op, result)
                    numbers = self.workload.numbers(op, result)
                except Exception as exc:  # unreadable output is a wrong result
                    self.problems.append(f"{op.kind} {op.args!r:.80}: output unreadable: {exc!r}")
                    numbers = ["unreadable"]
            else:
                self.latencies.append(math.inf)
                self.failed += 1
                key = f"{op.kind}: {type(error).__name__}: {error}"[:200]
                self.errors[key] = self.errors.get(key, 0) + 1
                numbers = ["failed", type(error).__name__]
            digest.update(repr((op.kind, numbers)).encode())
            if os.path.isdir(workdir):
                if tracer is not None:
                    self.bytes_written += sum(e.stat().st_size for e in os.scandir(workdir))
                shutil.rmtree(workdir)
        self.wall += wall
        return wall, digest.hexdigest()[:16]

    def summary(self) -> dict:
        return {
            "latencies": self.latencies,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "wall_s": self.wall,
            "problems": self.problems[:20],
            "errors": self.errors,
        }


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(PROBE_BATCHES):
        started = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - started) / reps * 1e6)
    return sorted(times)[len(times) // 2]


def probes() -> dict:
    """Per-call microseconds of ``parameterize_block`` by block size and ``bound_report`` by dimension."""
    from coherence_lab import bounds, optimizer, sampling, states

    rng = np.random.default_rng(0)
    out = {}
    # (local dimension, eigenvalue index) of a block of size n
    for n, (d, c) in enumerate(((2, 0), (2, 1), (3, 2), (4, 3)), start=1):
        gen = states.BipartiteGenerator(states.NumberOperator(d))
        params = rng.uniform(-math.pi, math.pi, n * n)
        out[f"optimizer.parameterize_block.us.n{n}"] = _median_us(
            lambda: optimizer.parameterize_block(gen, c, params), 400
        )
    for d in (3, 4):
        rho = sampling.random_density_matrix(d, d, rng)
        local = states.NumberOperator(d)
        out[f"bounds.bound_report.us.d{d}"] = _median_us(
            lambda: bounds.bound_report(rho, local, 1), 40
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    import coherence_lab
    import spans
    import workloads

    src = os.path.join(os.path.realpath(args.root), "src")
    if not os.path.realpath(coherence_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"coherence_lab imported from {coherence_lab.__file__}, not from {src}")
    workload = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(args.root, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        ops = workload.make_pass(args.seed, 0)
        warm = Runner(workload, scratch)
        _, warm_digest = warm.run_pass([workload.warmup()])
        emit("ready", {})
        setup_cal = Calibration(workload.calibration)
        for _ in range(CAL_SETUP_SAMPLES):
            setup_cal.sample()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        emit("calibrated", {
            "setup_scale": setup_cal.scale(),
            "warmup_digest": warm_digest,
            "warmup_problems": warm.problems + [f"warm-up op failed: {e}" for e in warm.errors],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        })
        if args.role == "setup":
            return 0

        runner = Runner(workload, scratch, None if args.trace else Calibration(workload.calibration))
        passes = 0
        digests = []
        if args.trace:
            tracer = spans.Tracer()
            traced_wall = 0.0
            while True:
                tracer.install()
                try:
                    tracer.op_id = -1  # input generation
                    ops = workload.make_pass(args.seed, passes)
                    tracer.op_id = None
                finally:
                    tracer.uninstall()
                _, digest = runner.run_pass(ops)
                tracer.install()
                try:
                    traced, traced_digest = runner.run_pass(ops, tracer)
                finally:
                    tracer.uninstall()
                if traced_digest != digest:
                    runner.problems.append(f"pass {passes}: traced results differ from untraced ones")
                digests.append(digest)
                traced_wall += traced
                passes += 1
                if runner.wall >= args.seconds or time.monotonic() - started > HARD_STOP_S:
                    break
            untraced_wall = runner.wall - traced_wall
            per_layer = tracer.per_layer()
            per_layer["cli.bytes_written"] = runner.bytes_written
            per_layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
            per_layer.update(probes())
            if list(per_layer) != spans.per_layer_names():
                raise SystemExit("traced run reports other metrics than spans.per_layer_names()")
            tracer.write(os.path.join(args.root, ".bench_out", f"spans-{workload.name}.npz"))
            extra = {"per_layer": per_layer, "spans": len(tracer.start)}
        else:
            while True:
                _, digest = runner.run_pass(ops)
                digests.append(digest)
                passes += 1
                enough = runner.wall >= args.seconds and len(runner.latencies) >= workload.min_ops
                if enough or time.monotonic() - started > HARD_STOP_S:
                    break
                ops = workload.make_pass(args.seed, passes)
            runner.calibration.sample()
            extra = {"scale": runner.calibration.scale(), "cal_samples": len(runner.calibration.samples)}
        emit("result", {
            **runner.summary(),
            **extra,
            "passes": passes,
            "pass_digests": digests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
