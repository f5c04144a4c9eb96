"""One benchmark pass in a fresh interpreter.

Imports deadend, writes the workload's generated inputs (together the
set-up), then runs every operation in a closed loop with one client: the
next operation starts when the previous one has returned.  CLI operations
call ``deadend.cli.main`` in-process with stdout captured.  Each operation
is timed, then checked outside its timed region.  The outcome goes to the
``--result`` file as JSON; ``--setup-only`` stops after the set-up.

A fixed calibration kernel is timed right after the set-up and after every
operation, so that ``run.py`` can scale each time by the speed the host
gave this process at that moment (see ``run.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

import deadend.cli

import workloads
from calib import calibrate


def run_ops(workload: workloads.Workload, calib_before: float) -> list[dict]:
    """Runs the operations; each gets the mean kernel time before and after it."""
    state: dict = {}
    out = []
    for op in workload.ops:
        buf = io.StringIO()
        error = None
        started = time.perf_counter()
        try:
            if op.argv is not None:
                with contextlib.redirect_stdout(buf):
                    code = deadend.cli.main(op.argv)
                result = None
            else:
                code, result = 0, op.call()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is a failed operation, not a crash
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if code != 0:
            error = error or f"exit code {code}"
        else:
            try:
                if op.argv is not None:
                    result = json.loads(buf.getvalue())
                error = op.check(result, state)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        calib_after = calibrate()
        out.append({"name": op.name, "seconds": seconds, "error": error,
                    "calib": (calib_before + calib_after) / 2})
        calib_before = calib_after
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](Path(args.workdir), args.seed)
    out: dict = {"ready": time.monotonic(), "setup_calib": calibrate()}
    out["inputs"] = {path.name: workloads.sha256_file(path) for path in workload.inputs}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out["ops"] = run_ops(workload, out["setup_calib"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["per_layer"] = tracer.metrics()
            out["missing"] = tracer.missing
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
