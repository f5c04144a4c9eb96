"""Benchmark entry point for deadend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/``, and scratch files go to ``.perfbench_work/`` and are removed at
the end.  Each pass of a workload runs in a fresh Python process
(``worker.py``), so peak RSS is per pass.  Passes repeat while the next one
is expected to end within ``--seconds``.

Times are speed-normalised.  On a shared 2-vCPU host, other tenants change
the speed this process gets by up to 1.9x, in bursts of milliseconds to
seconds and in regimes that last minutes, so raw wall times of the same
work spread by 15-40% between runs whatever statistic is taken.  The
worker therefore times a fixed calibration kernel (``calib.calibrate``, a
pure-Python BFS) after the set-up and after every operation, and each
measured time is scaled by ``REF_CALIB_S`` divided by the mean kernel time
on either side of it: the result is the time the work would take at the
speed at which the kernel takes ``REF_CALIB_S``, in seconds.  ``wall_s``
sums each operation's median scaled time over the passes and ``max_op_s``
is the largest of those medians.  ``setup_s`` (interpreter start, ``import
deadend``, writing the generated inputs) is scaled the same way by the
mean of the kernel times just before the worker starts and right after
its set-up, and is the median over the passes and
``SETUP_PROBES`` extra processes that stop after the set-up.  Peak RSS is
a median.  Raw, unscaled times are in the details line.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each pass is run once plain and once under the outside-in
tracer, and the last line reports the per-layer metrics, including the
tracing overhead.  The line before it gives the details: per-operation
times, input digests, failures.  A failed operation or check is counted
in ``failed`` and makes ``correct`` false; the benchmark itself exits
non-zero only when it cannot run (no ``src/deadend``, a crashed worker).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
# Time of one run of the calibration kernel on the reference host (2-vCPU
# Intel Xeon VM, Python 3.11.7) when no other tenant slows it.
REF_CALIB_S = 0.0015
TIME_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(Exception):
    """A worker process crashed or timed out: the benchmark cannot go on."""


class Runner:
    """Starts worker processes, one at a time, under a shared deadline."""

    def __init__(self, workload: str, seed: int, base: Path):
        self.workload = workload
        self.seed = seed
        self.base = base
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.started = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def run(self, trace: bool = False, setup_only: bool = False) -> tuple[dict, float]:
        """One worker; returns its result and its raw set-up time in seconds."""
        self.started += 1
        workdir = self.base / f"pass{self.started}"
        result = self.base / f"pass{self.started}.json"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir), "--result", str(result)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        data = {"spawn_calib": calib.calibrate()}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        data.update(json.loads(result.read_text(encoding="utf-8")))
        return data, data["ready"] - spawned


def _scaled(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * REF_CALIB_S / kernel_s


def _op_medians(passes: list[dict], scaled: bool = True) -> list[float]:
    """Median time of each operation over the passes, in operation order."""

    def seconds(op: dict) -> float:
        return _scaled(op["seconds"], op["calib"]) if scaled else op["seconds"]

    return [statistics.median(seconds(data["ops"][i]) for data in passes)
            for i in range(len(passes[0]["ops"]))]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args: argparse.Namespace, base: Path) -> tuple[dict, dict]:
    runner = Runner(args.workload, args.seed, base)
    setups = []  # (raw seconds, mean kernel time around it)
    for _ in range(SETUP_PROBES):
        data, setup = runner.run(setup_only=True)
        setups.append((setup, (data["spawn_calib"] + data["setup_calib"]) / 2))
    plain: list[dict] = []
    traced: list[dict] = []
    began = time.monotonic()
    last = 0.0
    while not plain or time.monotonic() - began + last <= args.seconds:
        pass_began = time.monotonic()
        data, setup = runner.run()
        plain.append(data)
        setups.append((setup, (data["spawn_calib"] + data["setup_calib"]) / 2))
        if args.trace:
            traced.append(runner.run(trace=True)[0])
        last = time.monotonic() - pass_began

    ops = [op for data in plain + traced for op in data["ops"]]
    failures = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    problems: list[str] = []
    op_times = _op_medians(plain)
    names = [op["name"] for op in plain[0]["ops"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "inputs": plain[0]["inputs"],
        "error_rate": len(failures) / len(ops),
        "op_seconds": dict(zip(names, op_times)),
        "op_seconds_raw": dict(zip(names, _op_medians(plain, scaled=False))),
        "setup_s_raw": statistics.median(raw for raw, _ in setups),
        "calib_s": statistics.median(op["calib"] for data in plain for op in data["ops"]),
        "failures": failures[:20],
        "problems": problems,
    }
    if args.trace:
        details["traced_wall_s"] = sum(_op_medians(traced))
        details["missing_trace_targets"] = traced[0]["missing"]
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        metrics = {}
        for name in units:
            if name == "trace.overhead":
                continue
            values = [data["per_layer"][name] for data in traced]
            if name in tracer.EXACT and len(set(values)) > 1:
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = _metric(statistics.median(values), units[name])
        overhead = details["traced_wall_s"] / sum(op_times) - 1
        metrics["trace.overhead"] = _metric(overhead, units["trace.overhead"])
    else:
        values = {
            "wall_s": sum(op_times),
            "max_op_s": max(op_times),
            "peak_rss_mb": statistics.median(data["peak_rss_mb"] for data in plain),
            "setup_s": statistics.median(_scaled(raw, kernel_s) for raw, kernel_s in setups),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}

    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "deadend" / "__init__.py").is_file():
        print(f"error: no deadend sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work" / f"run{os.getpid()}"
    try:
        details, result = measure(args, base)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
