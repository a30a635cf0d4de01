#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv_ycsb --seed 1 --seconds 30 --trace 0

It builds the Go program in this directory against the simulator
sources one directory up, with every build artefact under the build
directory (CARGO_TARGET_DIR when set, else .bench_build in the
checkout), then runs it with the given arguments. The program prints its
result as the last line of standard output. Without the simulator
sources the build fails and this exits non-zero with no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    made = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if made.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = list(sys.argv[1:])
    if "--span-dir" not in args:
        args += ["--span-dir", build]
    try:
        return subprocess.run([binary] + args, cwd=ROOT, env=dict(env, GODEBUG="madvdontneed=0"),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
