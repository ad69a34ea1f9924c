"""Benchmark of coherence-lab: one command runs a workload and prints its metrics.

Usage, from the root of the repository::

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs one at a time, in child processes started from this
parent with one BLAS thread. With ``--trace 0`` the parent starts
``SETUPS`` children: all but the last stop after set-up, and the last also
runs the timed closed loop. ``setup_s`` is the median set-up time, from
process start to the end of one warm-up op. With ``--trace 1`` one child
runs paired untraced and traced passes and reports the per-layer metrics.

Op and set-up times are reported at a reference CPU speed. The host's
speed drifts by tens of percent within minutes, so the child times a fixed
calibration kernel between ops (``child.Calibration``) and times are scaled
by the reference kernel time over the measured one; this halves the
run-to-run spread. The wall-clock values are printed beside the scaled ones
and kept in the run record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give each
metric with its unit and sample count, and the machine. The exit code is 1
when an output check failed and 2 when the benchmark could not run.
Run records, scratch files and span dumps go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from spans import layer_unit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("oracle", "bounds-nogo", "recurrence-cli")
SETUPS = 5
#: a workload's children together must finish within this many seconds
CHILD_LIMIT_S = 170.0
#: standard percentiles, from which the tail percentile is picked
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` (one decimal at most) among ``n`` samples."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; infinite values (failed ops) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """Highest standard percentile with at least ten of ``n`` samples beyond it."""
    usable = [p for p in PERCENTILES if n - _rank(p, n) >= TAIL_MIN_BEYOND]
    if not usable:
        raise ValueError(f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median")
    return usable[-1]


def source_hash() -> str:
    """Hash of the package and benchmark sources, which fix every op's results for a seed."""
    digest = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "coherence_lab"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "load_before": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the recurrence-cli workload relies on the default int-to-str digit limit
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_child(args: list, deadline: float) -> tuple:
    """Start one child; returns (set-up seconds, calibrated payload, result payload or None)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT, *args]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup = calibrated = result = None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" {")
            if tag == "BENCH ready":
                setup = time.perf_counter() - started
            elif tag == "BENCH calibrated":
                calibrated = json.loads("{" + payload)
            elif tag == "BENCH result":
                result = json.loads("{" + payload)
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup is None or calibrated is None:
        raise BenchError(f"child {' '.join(args)} exited with code {code}")
    return setup, calibrated, result


def check_digests(workload: str, seed: int, digests: list) -> list:
    """Every pass of one seed must give the same results on every run of the same sources."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = f"{workload} seed={seed} src={source_hash()}"
    earlier = known.get(key, [])
    problems = [
        f"pass {index} results differ from an earlier run of the same sources"
        for index, (old, new) in enumerate(zip(earlier, digests))
        if old != new
    ]
    if len(digests) > len(earlier):
        known[key] = digests
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        _, calibrated, result = run_child(base, deadline)
        setups, infos = [], [calibrated]
    else:
        setups, infos = [], []
        for i in range(SETUPS):
            role = "measure" if i == SETUPS - 1 else "setup"
            setup, calibrated, result = run_child(base + ["--role", role], deadline)
            setups.append(setup)
            infos.append(calibrated)
    if result is None:
        raise BenchError(f"workload {name} returned no result")
    problems = list(result["problems"])
    problems += infos[-1]["warmup_problems"]
    if len({r["warmup_digest"] for r in infos}) != 1:
        problems.append("warm-up results differ between processes")
    problems += check_digests(name, seed, result.pop("pass_digests"))
    lat = result.pop("latencies")
    ok = result["attempted"] - result["failed"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "numpy": infos[0]["numpy"],
        "blas": infos[0]["blas"],
        "setups_wall_s": setups,
        **result,
        "problems": problems,
        "correct": not problems,
    }
    if trace:
        record["metrics"] = {k: (v, layer_unit(k)) for k, v in result["per_layer"].items()}
        return record
    n = len(lat)
    scale = result["scale"]
    setup_scaled = [s * r["setup_scale"] for s, r in zip(setups, infos)]
    record["tail_percentile"] = tail_percentile(n)
    record["metrics"] = {
        "ops_per_s": (ok / (result["wall_s"] * scale), UNITS["ops_per_s"]),
        "op_p50_ms": (percentile(lat, 50.0) * 1e3 * scale, UNITS["op_p50_ms"]),
        "op_p90_ms": (percentile(lat, 90.0) * 1e3 * scale, UNITS["op_p90_ms"]),
        "peak_rss_mb": (result["peak_rss_mb"], UNITS["peak_rss_mb"]),
        "setup_s": (statistics.median(setup_scaled), UNITS["setup_s"]),
    }
    record["wall"] = {
        "ops_per_s": ok / result["wall_s"],
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_p90_ms": percentile(lat, 90.0) * 1e3,
        "setup_s": statistics.median(setups),
    }
    record["samples"] = {
        "ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n, "peak_rss_mb": 1, "setup_s": len(setups)
    }
    record["tail_ms"] = percentile(lat, record["tail_percentile"]) * 1e3 * scale
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}: seed {record['seed']}, closed loop, 1 client, "
          f"{record['passes']} passes, {record['wall_s']:.2f} s of op time")
    for key, (value, unit) in record["metrics"].items():
        samples = record.get("samples", {}).get(key)
        suffix = f"  (n={samples})" if samples is not None else ""
        if key in record.get("wall", {}):
            suffix += f"  wall-clock {record['wall'][key]:.6g}"
        print(f"  {key:<48} {value:>14.6g} {unit}{suffix}")
    if "scale" in record:
        print(f"  times scaled by {record['scale']:.4f} to the reference speed "
              f"({record['cal_samples']} calibration samples)")
    if "tail_percentile" in record:
        print(f"  tail: p{record['tail_percentile']:g} = {record['tail_ms']:.6g} ms "
              f"(highest percentile with >= {TAIL_MIN_BEYOND} samples beyond it)")
    print(f"  ops_attempted {record['attempted']}  ops_failed {record['failed']}")
    for error, count in record["errors"].items():
        print(f"  failed x{count}: {error}")
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coherence_lab", "__init__.py")):
        print(f"error: no coherence_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    machine = machine_info()
    if machine["load_before"][0] > machine["nproc"]:
        print(f"warning: load average {machine['load_before'][0]:.2f} exceeds "
              f"{machine['nproc']} processors; timings will be noisy", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine["load_after"] = os.getloadavg()
    machine["numpy"] = records[0]["numpy"]
    machine["blas"] = records[0]["blas"]
    print(f"machine: nproc {machine['nproc']}, load {machine['load_before'][0]:.2f} before, "
          f"{machine['load_after'][0]:.2f} after, python {machine['python']}, "
          f"numpy {machine['numpy']}, blas {machine['blas']}")
    for record in records:
        report(record)
        with open(os.path.join(OUT_DIR, f"last-{record['workload']}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, **record}, fh, indent=1)

    def metrics(record, prefix=""):
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}

    if len(records) == 1:
        merged = metrics(records[0])
    else:
        merged = {}
        for record in records:
            merged.update(metrics(record, record["workload"] + "/"))
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": merged,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
