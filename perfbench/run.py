#!/usr/bin/env python3
"""Builds the perfbench binary from the repository sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload admit-small --seed 1 --seconds 16 --trace 0

Every argument is passed through to the binary (see README.md).  The build
lands in $CARGO_TARGET_DIR (default .bench_build) under the current
directory, as does the span file of a traced run.  Build output goes to
stderr, so the last line of stdout is the binary's JSON result.
"""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the binary itself stops well before this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def out_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(env):
    """Configures once, then lets the build tool bring the binary up to date."""
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH")
    build_dir = out_dir() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    # Flush the build's writes now, so their writeback does not run
    # alongside the measurement.
    os.sync()
    return build_dir / "perfbench"


def main():
    args = sys.argv[1:]
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/; nothing to build")
    scratch = out_dir() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Keeps the compiler's and the binary's temporary files in the checkout.
    env = dict(os.environ, TMPDIR=str(scratch))
    binary = build(env)
    if "--spans" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else ""
        # The binary rejects unknown workloads; only a plain name may name a file.
        if not re.fullmatch(r"[a-z][a-z-]*", workload):
            workload = "run"
        spans = out_dir() / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans", str(spans / f"{workload}.json")]
    try:
        code = subprocess.run([str(binary)] + args, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
