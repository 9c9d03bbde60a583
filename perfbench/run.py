#!/usr/bin/env python3
"""Build the default Release configuration and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: offline_fp32_32px, serve_int8_16px, dse_sweep. The library and
the benchmark binary are built from source into .bench_build/perfbench (the first run
builds, later runs only relink what changed). The binary's last line of
standard output is the JSON result; a traced run also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the library sources (CMakeLists.txt, src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    cmd = [os.path.join(BUILD, "perfbench")] + args
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        name = args[args.index("--workload") + 1] if "--workload" in args else "x"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "x"
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{name}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
