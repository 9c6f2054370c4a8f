#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pythia-1c --seed 1 --seconds 35 --trace 0

Builds perfbench and pythia-serve from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), with the Go build cache kept
there too, then runs one workload in its own process. Build output goes to
standard error; the workload's last line of standard output is its JSON
result. Exits non-zero, printing no result, when the checkout does not hold
the program's sources.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("pythia-1c", "nopf-4c", "serve-mixed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "harness"))
            and os.path.isdir(os.path.join(root, "cmd", "pythia-serve"))):
        sys.exit("run.py: run from the root of a checkout holding go.mod, internal/ and cmd/")

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    bindir = os.path.join(build, "bin")
    for d in (bindir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    bench = os.path.join(bindir, "perfbench")
    serve = os.path.join(bindir, "pythia-serve")
    for out, pkg, cwd in ((bench, ".", os.path.join(root, "perfbench")),
                          (serve, "./cmd/pythia-serve", root)):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("run.py: build of %s failed" % pkg)

    workdir = os.path.join(build, "work-%d" % os.getpid())
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", workdir, "-serve-bin", serve]
    sys.stdout.flush()
    os.execve(bench, cmd, env)


if __name__ == "__main__":
    main()
