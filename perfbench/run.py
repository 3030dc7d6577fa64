#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload churn|lookup --seed N \
        --seconds S --trace 0|1

Builds hrdb_server and the load generator (perfbench/hrbench.ml) from the
source tree this file sits in, stamps the host, then runs the generator.
Its last line of output is the JSON result. Everything it writes stays
under the source tree (.perfbench_work/ and dune's _build/).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_TIMEOUT = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit if there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "commit " + r.stdout.strip()
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "source-sha1 " + h.hexdigest()


def fs_type(path):
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["churn", "lookup"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for need in ["dune-project", "bin/hrdb_server.ml", "lib"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("source tree incomplete: %s is missing" % need)
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    build = subprocess.run(
        # the perfbench profile enables perfbench/hrbench.exe (see
        # perfbench/dune); it compiles the same code as the default
        # profile, with fewer warnings enabled
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "--profile", "perfbench",
         "./bin/hrdb_server.exe", "./perfbench/hrbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 3)

    # The generator and every process it starts (servers, replay arms)
    # run on one core, taking turns. A request's hand-offs between client
    # and server are then switches on that core, not wake-ups across
    # cores, whose cost on a shared virtual machine swings with the
    # host's load.
    cpu = max(os.sched_getaffinity(0))
    print("host: cores=%d pinned to cpu %d, %s fsync=on fs=%s (latencies "
          "are this host's, not a storage device's)"
          % (os.cpu_count() or 0, cpu, source_id(), fs_type(ROOT)), flush=True)

    # a SIGTERM or SIGINT still runs the clean-up below
    def stop(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "hrbench.exe")
    server = os.path.join(ROOT, "_build", "default", "bin", "hrdb_server.exe")
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", server, "--work", run_dir],
        start_new_session=True, env=env,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = 124
    finally:
        # the generator and every server it started share one session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
