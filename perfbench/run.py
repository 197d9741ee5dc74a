"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rns-b1 --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and then with the per-layer ledger installed,
and prints the per-layer metrics.  The last line of standard output is
the result object; the line before it holds ungated context (host load,
tail latency, largest logit error).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import ctypes
import os

# One thread per BLAS/OpenMP pool, set before numpy loads: the workload
# processes never outnumber the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# One malloc arena for all threads (glibc M_ARENA_MAX = -8).  With one
# arena per thread, how much freed memory the gateway's scheduler thread
# and the client thread could reuse depended on timing: the same gateway
# run peaked at 1.27 or 1.53 GB.  With one arena it peaks at 1.05 GB
# every time, at the same speed.  Forked cluster workers inherit it.
ctypes.CDLL(None).mallopt(-8, 1)

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3

#: Longest a ``--setup-probe`` process may take, and longest the
#: resource tracker may take to exit once told to stop.
PROBE_TIMEOUT_S = 120.0
TRACKER_TIMEOUT_S = 30.0


def process_age() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, answer the warm-up request and print setup_s",
    )
    return ap.parse_args(argv)


def setup_probe(args) -> float:
    """``setup_s`` of a fresh process running this script with --setup-probe."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    # A session of its own, so a probe that overruns is killed together
    # with every process it started (cluster workers, resource tracker).
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return json.loads(out.splitlines()[-1])["setup_s"]


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Cluster workers are joined by the service's ``close``; any still
    alive (a run that failed before it could close) are killed here.
    The cluster's shared-memory plan cache also starts multiprocessing's
    resource tracker, a process that otherwise outlives this one: it
    exits only on end-of-file on its pipe, which comes after this
    process has gone.  Closing the pipe once the workers are gone and
    reaping the tracker ends the run with nothing left behind.  The
    tracker is killed only if it has not exited after
    ``TRACKER_TIMEOUT_S``.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.kill()
        child.join()
    rt = sys.modules.get("multiprocessing.resource_tracker")
    if rt is None:
        return
    tracker = rt._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + TRACKER_TIMEOUT_S
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv=None) -> int:
    try:
        return run(parse(argv))
    finally:
        stop_children()


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    os.environ["REPRO_CACHE"] = str(ROOT / ".perfbench_cache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads as wl

    if args.trace:
        import ledger  # patches nothing until installed

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t = time.perf_counter()
    models, ref = wl.prepare()
    prep_s = time.perf_counter() - t
    rng = np.random.default_rng(args.seed)

    def phase(seconds: float, traced: bool = False):
        """Set up, load for *seconds*, close.  Returns the tally, the
        process age when the warm-up request was answered, and (traced)
        the ledger snapshots at set-up start, window start and end."""
        snaps = [ledger.snapshot()] if traced else []
        service, client = wl.build(args.workload, models, args.seed)
        built_at = process_age()
        try:
            requests = None
            if wl.CLIENTS[args.workload] > 1:
                requests = wl.inventory(args.workload, client, models, rng, seconds)
            snaps += [ledger.snapshot()] if traced else []
            tally = wl.run_window(
                args.workload, service, client, models, ref, rng, seconds, requests
            )
            snaps += [ledger.snapshot()] if traced else []
        finally:
            wl.close(service)
        return tally, built_at, snaps

    if args.setup_probe:
        service, _ = wl.build(args.workload, models, args.seed)
        setup_s = process_age() - prep_s
        wl.close(service)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    if args.trace:
        plain, _, _ = phase(args.seconds / 2)
        ledger.Ledger().install()
        traced, _, (s0, s1, s2) = phase(args.seconds / 2, traced=True)
        rows = ledger.derive_rows(
            ledger.diff(s2, s1), ledger.diff(s2, s0), traced.ok, traced.attempted
        )
        rows["obs.trace_overhead_frac"] = plain.images_per_s / traced.images_per_s - 1
        metrics = {
            name: {"value": rows.get(name, 0.0), "unit": unit}
            for name, unit in ledger.PER_LAYER.items()
        }
        tallies = [plain, traced]
        context.update(traced.context())
    else:
        tally, built_at, _ = phase(args.seconds)
        setups = [built_at - prep_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        values = {"setup_s": statistics.median(setups), **tally.metrics()}
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in wl.END_TO_END.items()
        }
        tallies = [tally]
        context.update(tally.context(), setup_samples_s=setups)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": all(t.correct() for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
