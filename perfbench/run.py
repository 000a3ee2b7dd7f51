#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. The Go build cache,
the benchmark binary and the determinism guard's recorded counts (keyed
by a hash of the repository's Go sources) live in
$CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
read or written outside it apart from the Go toolchain itself. The last
line of standard output is the result as one JSON object. Build errors go
to standard error and end the run with a non-zero exit code.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    ran = subprocess.run([binary] + sys.argv[1:] + ["--state", os.path.join(build, "counts"),
                                                    "--src", os.path.dirname(here)], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
