#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload keyed_ingest --seed 1 --seconds 10 --trace 0

The Go module in this directory builds against the library in the parent
directory. Build cache, binary and scratch files all stay under
.bench_build/ in the checkout; nothing is fetched from the network. The
last line of standard output is the benchmark's JSON result; a failed
build or run exits non-zero without one.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("keyed_ingest", "window_p99", "single_stream", "checkpoint")

# The whole invocation, build included, must end within this many seconds.
DEADLINE_S = 170
# A first build in a fresh checkout compiles the standard library too.
FIRST_BUILD_S = 840


def go_env():
    """Environment that keeps the go tool inside the checkout and offline."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD_DIR, "gocache"),
        "GOTMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "GOPATH": os.path.join(BUILD_DIR, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD_DIR, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD_DIR, "cache"),
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout or interrupt kill it and every
    process it started (the go tool's compilers), and wait for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def build(env, timeout):
    go = shutil.which("go", path=env.get("PATH"))
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    for d in ("tmp", "bin"):
        os.makedirs(os.path.join(BUILD_DIR, d), exist_ok=True)
    binary = os.path.join(BUILD_DIR, "bin", "perfbench")
    code, _, err = run([go, "build", "-o", binary, "."], timeout, cwd=BENCH_DIR,
                       env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        sys.exit("perfbench: --seconds must be in (0, 60]")

    start = time.monotonic()
    env = go_env()
    fresh = not os.path.isdir(env["GOCACHE"])
    binary = build(env, FIRST_BUILD_S if fresh else DEADLINE_S)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(BUILD_DIR, "run", f"{tag}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    left = max(DEADLINE_S - (time.monotonic() - start), 30)
    try:
        code, out, _ = run(cmd, left, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        sys.exit(f"perfbench: {args.workload} exited with {code}")
    sys.stdout.write(out.decode())


if __name__ == "__main__":
    main()
