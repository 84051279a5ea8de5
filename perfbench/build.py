"""Build the program under test from the checkout's sources."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class BenchError(Exception):
    """A failure that leaves the run without a result."""


def build_dir():
    """The build tree: $CARGO_TARGET_DIR if set, else .bench_build."""
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"{ROOT} is not a graphr checkout (no CMakeLists.txt or src/)")


def build(trace=False):
    """Configure once, then build graphr_run and graphr_serve (and the
    trace replay binary when @p trace). Returns the binary paths."""
    check_checkout()
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        _run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"])
    targets = ["graphr_run", "graphr_serve"]
    if trace:
        targets.append("perfbench_trace")
    _run(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    return {
        "run": out / "graphr" / "graphr_run",
        "serve": out / "graphr" / "graphr_serve",
        "trace": out / "perfbench_trace",
    }


def binary_digest(path):
    """Identifies a build, so cached references never outlive it."""
    return hashlib.sha1(Path(path).read_bytes()).hexdigest()[:16]


def _run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")
