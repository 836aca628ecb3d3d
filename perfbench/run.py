#!/usr/bin/env python3
"""Entry point of the benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload thm11|wwy|recertify --seed N \
        --seconds S --trace 0|1

Run it from the root of a source tree. It builds the `qcongest` CLI and
the benchmark executable with dune (no shared dune cache, temporary files
kept in the tree), pins itself to one CPU when ops run on one domain,
and hands over to the benchmark executable (perfbench/main.ml), whose
last stdout line is the result JSON. Every other argument goes to it
unchanged.
"""

import hashlib
import os
import subprocess
import sys

WORK = "_perfbench"
TMP = ".perfbench-tmp"
CLI = "_build/default/bin/qcongest_cli.exe"
MAIN = "_build/default/perfbench/main.exe"
SOURCES = ("dune-project", "bin", "lib", "perfbench")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over every source file the measured binaries are built from."""
    digest = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def revision():
    """The git commit when this tree is a work tree of its own, plus the source digest."""
    git = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath("."):
            git = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"git:{git},src:{source_digest()}"


def main():
    missing = [p for p in ("dune-project", "bin/qcongest_cli.ml", "lib", "perfbench/dune")
               if not os.path.exists(p)]
    if missing:
        fail(f"run from the root of a qcongest source tree (missing {', '.join(missing)})", 2)
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(TMP))
    build = subprocess.run(["dune", "build", "--root", ".", CLI, MAIN], env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)
    cpus = sorted(os.sched_getaffinity(0))
    jobs = os.environ.get("QCONGEST_JOBS", "1")
    pinned = "none"
    if jobs.strip() == "1":
        try:
            os.sched_setaffinity(0, {cpus[-1]})
            pinned = str(cpus[-1])
        except OSError:
            pass
    args = [MAIN, "--nproc", str(len(cpus)), "--revision", revision(), "--pinned", pinned,
            "--cli", CLI, "--goldens", "perfbench/goldens.json", "--work", WORK]
    sys.stdout.flush()
    os.execve(MAIN, args + sys.argv[1:], env)


if __name__ == "__main__":
    main()
