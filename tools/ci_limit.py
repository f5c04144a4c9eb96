"""Run one ``python -m deadend`` command and hold it to a time and a peak-RSS limit.

    python3 tools/ci_limit.py --seconds S --mb M --expect passed -- ARGV...
    python3 tools/ci_limit.py --seconds S --mb M --expect diameter=257 -- ARGV...

ARGV is the deadend command line.  The run passes when it exits 0, its
report's ``results`` holds the expected value (``passed`` means
``passed`` is true), and it took under S seconds with a peak RSS under M
MB.  The peak RSS is the child's ``ru_maxrss``, which starts from this
process's own peak at the spawn, so this script imports nothing large.
Prints one line of figures and the command's stderr; exits 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mb", type=float, required=True)
    parser.add_argument("--expect", required=True, help="KEY or KEY=VALUE (VALUE read as JSON)")
    parser.add_argument("argv", nargs="+", help="the deadend command line, after --")
    args = parser.parse_args()
    key, _, value = args.expect.partition("=")
    want = json.loads(value) if value else True

    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "deadend", *args.argv],
                         capture_output=True, text=True)
    seconds = time.monotonic() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    got = json.loads(run.stdout)["results"].get(key) if run.returncode == 0 else None
    print(f"exit {run.returncode}, {key} {got}, {seconds:.2f} s, peak RSS {rss_mb:.0f} MB")
    print(run.stderr, end="")
    return int(not (got == want and seconds < args.seconds and rss_mb < args.mb))


if __name__ == "__main__":
    raise SystemExit(main())
