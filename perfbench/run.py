#!/usr/bin/env python3
"""Builds and runs the sfi campaign benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig1_cheap --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
builds libsfi from the repository sources) into .bench_build/perfbench,
characterizes the shared CDF cache into .bench_work/ on first use (untimed,
in its own process), then runs one workload. The last line of standard
output is the JSON result; results and span traces are also kept in
.bench_work/results/.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig5_cold", "fig1_cheap", "fig4_opstream", "mitigation_all")
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log is not None and log.exists():
        print(log.read_text(errors="replace")[-4000:], file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, cwd):
    with open(log, "ab") as out:
        return subprocess.run(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(root, build_dir, log):
    generated = (build_dir / "Makefile").exists() or (build_dir / "build.ninja").exists()
    if not generated:
        if run_logged(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"], log, root) != 0:
            fail("cmake configure failed", log)
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs,
                   "--target", "sfi_perfbench"], log, root) != 0:
        fail("build failed", log)
    return build_dir / "sfi_perfbench"


def code_version(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")) + [root / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="Monte-Carlo worker threads (default: one per CPU, "
                             "one for fig1_cheap)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.threads < 0:
        fail("--seed and --threads must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    log = work / "build.log"
    binary = build(root, root / ".bench_build" / "perfbench", log)

    cache = work / "cdf_cache.bin"
    if not cache.exists():
        if run_logged([str(binary), "prepare-cache", "--cdf-cache", str(cache)], log,
                      root) != 0:
            fail("CDF cache characterization failed", log)

    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--cdf-cache", str(cache),
           "--digests", str(root / "perfbench" / "digests.txt"),
           "--git-sha", code_version(root), "--threads", str(args.threads)]
    try:
        result = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
