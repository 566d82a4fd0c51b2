#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload sweep-intensive --seed 42 --seconds 20 --trace 0

The benchmark is its own Go module (benchmark/go.mod) that imports the
simulator's packages from the enclosing checkout. Everything the build and
the run write goes under .bench_build/ in the checkout: the Go build cache,
temporary files, the Go toolchain's user configuration and telemetry
counters, the binary, and the traced run's span file and CPU profile.
Arguments are passed through to the binary; its exit code is this
script's exit code.
"""

import os
import signal
import subprocess
import sys

# The benchmark itself stops queued work at 170 s; this is a backstop.
RUN_TIMEOUT_S = 178


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "gotmp", "tmp", "config", "bin"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        TMPDIR=os.path.join(build, "tmp"),
        PPROF_TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "bin", "benchmark")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return built.returncode or 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
