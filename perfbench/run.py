#!/usr/bin/env python3
"""Build and run the dclab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench/` (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark
binary with the same arguments. `--workload all` runs every workload, each
in its own process so peak memory is per workload, and exits non-zero if
any of them fails. The last line of a single workload's stdout is its JSON
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["warm-repeat", "cold-mixed", "oracle-large"]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "dclab-perfbench")
    env["PERFBENCH_GIT_REV"] = git_rev()

    if "--workload" in argv:
        at = argv.index("--workload") + 1
        if at < len(argv) and argv[at] == "all":
            status = 0
            for name in WORKLOADS:
                args = argv[:at] + [name] + argv[at + 1 :]
                print(f"== {name}", flush=True)
                code = subprocess.run([exe] + args, env=env).returncode
                if code != 0:
                    print(f"run.py: {name} exited {code}", file=sys.stderr)
                    status = 1
            return status
    return subprocess.run([exe] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
