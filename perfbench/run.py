#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stream-local --seed 2003 --seconds 20 --trace 0

The Go build cache, the binary, run records, spans and WAL journals all
live under .bench_build/ at the repository root, so a run reads and
writes nothing outside the checkout. The last line of standard output
is the benchmark's JSON result. A failed build exits non-zero without
printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(cmd, cwd, env, timeout, capture):
    """Runs cmd, killing and reaping it if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        sys.exit(3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2003)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    for d in ("gocache", "gopath", "config", "home", "perfbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    code, _ = run(["go", "build", "-o", BINARY, "."], HERE, env,
                  BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % code)
        sys.exit(2)

    env["PERFBENCH_COMMIT"] = commit()
    code, out = run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                     "-seconds", str(args.seconds), "-trace", str(args.trace),
                     "-out", os.path.join(BUILD, "perfbench")],
                    ROOT, env, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
