#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload retrieve-uniform --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ at the
root: the Go build cache, the binary, and the index files and WALs of the
run (removed when it ends). The last line of standard output is the JSON
result; the exit code is non-zero when the build fails or any operation
of the run failed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([exe, "-workdir", build] + sys.argv[1:], cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
