#!/usr/bin/env python3
"""Benchmark of the mdg verifier at n = 3, run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mdg is imported from ./src.  One
client, closed loop: each CLI command runs in a fresh interpreter, one at
a time, in a fresh empty directory that is also its HOME,
XDG_CACHE_HOME and TMPDIR.  Whole workload iterations repeat until S
seconds have passed (at least one).  Every output is checked with
perfbench/checks.py, which shares no code with mdg.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
untraced (per-command wall time and peak RSS) and then once more with
each command driven in-process by trace_child.py, and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True   # keep the benchmark directory free of build output

import checks      # noqa: E402
import workloads   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170          # a run must end within 180 s
SETUP_PROBES = 5           # setup_s is the median of these fresh interpreters
MDG_MAIN = "import sys; from mdg.cli import main; sys.argv[0] = 'mdg'; sys.exit(main())"

Proc = collections.namedtuple("Proc", "exit wall_s cpu_s rss_mb")


class Launcher:
    """Runs one child at a time and reads its rusage with wait4."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline

    def run(self, argv, stdout_path):
        home = tempfile.mkdtemp(prefix="cmd-", dir=self.run_dir)
        # mdg's CLI reads MDG_<OPTION> variables; none may change the declared command.
        env = {k: v for k, v in os.environ.items() if not k.startswith("MDG_")}
        env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
                   HOME=home, XDG_CACHE_HOME=home, TMPDIR=home, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        err_path = os.path.join(self.run_dir, "stderr.txt")
        try:
            with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    print("perfbench: out of time, command not started", file=sys.stderr)
                    return Proc(-1, 0.0, 0.0, 0.0)
                start = time.perf_counter()
                p = subprocess.Popen(argv, cwd=home, env=env, stdin=subprocess.DEVNULL,
                                     stdout=out, stderr=err)
                timer = threading.Timer(remaining, p.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(p.pid, 0)
                except BaseException:
                    p.kill()
                    p.wait()
                    raise
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            shutil.rmtree(home, ignore_errors=True)
        if p.returncode != 0:
            with open(err_path, "rb") as f:
                tail = f.read()[-2000:].decode(errors="replace")
            print(f"perfbench: exit {p.returncode}: {' '.join(argv[-8:])}\n{tail}", file=sys.stderr)
        return Proc(p.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_iteration(launcher, commands, traced):
    """Run the workload's commands in order and check their outputs.
    Returns ({command: Proc}, ops, {command: span document})."""
    it_dir = tempfile.mkdtemp(prefix="it-", dir=launcher.run_dir)
    try:
        procs, outputs, docs = {}, {}, {}
        for cmd in commands:
            out = os.path.join(it_dir, cmd.name + ".out")
            spans = os.path.join(it_dir, cmd.name + ".spans.json")
            if traced:
                argv = [sys.executable, os.path.join(HERE, "trace_child.py"), spans, *cmd.args]
            else:
                argv = [sys.executable, "-c", MDG_MAIN, *cmd.args]
            procs[cmd.name] = launcher.run(argv, out)
            with open(out, "rb") as f:
                outputs[cmd.name] = (procs[cmd.name].exit, f.read())
            if traced:
                try:
                    with open(spans) as f:
                        docs[cmd.name] = json.load(f)
                except (OSError, ValueError) as e:
                    print(f"perfbench: no spans for {cmd.name}: {e}", file=sys.stderr)
        ops = checks.check_outputs(workloads.N, outputs)
    finally:
        shutil.rmtree(it_dir, ignore_errors=True)
    for cmd in commands:
        p = procs[cmd.name]
        print(f"  {'traced ' if traced else ''}{cmd.name:<22} wall {p.wall_s:8.3f} s  "
              f"cpu {p.cpu_s:8.3f} s  peak rss {p.rss_mb:7.1f} MB  exit {p.exit}")
        exit_code, data = outputs[cmd.name]
        if cmd.args[0] == "export" and exit_code == 0:
            print(f"    {cmd.name}: {len(data)} bytes, sha256 {checks.digest(data)}")
    for name, ok, note in ops:
        if not ok:
            print(f"  FAILED {name}: {note}")
    return procs, ops, docs


def measure_iterations(launcher, commands, seconds, reserve):
    """Whole iterations until `seconds` have passed, stopping early if
    the next one (plus `reserve` times its length) would pass the deadline."""
    results = []
    start = time.monotonic()
    while True:
        results.append(run_iteration(launcher, commands, traced=False))
        now = time.monotonic()
        per = (now - start) / len(results)
        if now - start >= seconds or now + per * (1 + reserve) > launcher.deadline:
            return results


def src_digest():
    """SHA-256 over the paths and contents of every file under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def declared_metrics(section):
    """(name, unit) of the metrics BENCHMARK.json declares in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def layer_metrics(commands, untraced, traced_procs, docs):
    """Per-layer metrics from the traced iteration's span documents."""
    self_ns, calls, counts = collections.Counter(), collections.Counter(), collections.Counter()
    covered = inproc = 0
    for doc in docs.values():
        spans = doc["spans"]
        inside = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                inside[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, _), child in zip(spans, inside):
            self_ns[name] += end - start - child
            calls[name] += 1
        counts.update(doc["counts"])
        inproc += doc["end_ns"] - doc["start_ns"]
    m = collections.defaultdict(float)   # a layer the workload never reaches reads 0
    for cmd in commands:
        m[f"cli.{cmd.name}.wall_s"] = statistics.median(it[0][cmd.name].wall_s for it in untraced)
        m[f"cli.{cmd.name}.peak_rss_mb"] = statistics.median(it[0][cmd.name].rss_mb for it in untraced)
    m["cli.self_s"] = (inproc - covered) / 1e9
    for name, ns in self_ns.items():
        m[f"{name}.self_s"] = ns / 1e9
        m[f"{name.split('.')[0]}.self_s"] += ns / 1e9
    for name, n in calls.items():
        m[f"{name}.calls"] = n
    m.update(counts)
    m["trace.coverage_frac"] = covered / inproc if inproc else 0.0
    untraced_wall = statistics.median(sum(p.wall_s for p in it[0].values()) for it in untraced)
    if untraced_wall:
        m["trace.overhead_frac"] = sum(p.wall_s for p in traced_procs.values()) / untraced_wall - 1
    return m


def measure(args, run_dir):
    commands = workloads.WORKLOADS[args.workload]
    launcher = Launcher(run_dir, time.monotonic() + RUN_LIMIT_S)
    print(f"workload {args.workload}, seed {args.seed} (recorded only: the n = 3 inputs are "
          f"fixed), trace {args.trace}")
    probe = [sys.executable, "-c", workloads.SETUP_CODE]
    probes = [launcher.run(probe, os.devnull) for _ in range(0 if args.trace else SETUP_PROBES)]
    # The first run of a workload on these sources runs one extra iteration
    # and discards it, so that cold file and byte-code caches are never timed.
    # The marker is keyed by the sources, so that two commits benchmarked in
    # one checkout each get their warm-up.
    marker = os.path.join(WORK, f"warm-{args.workload}-{src_digest()[:16]}")
    if not os.path.exists(marker):
        print("warm-up iteration (discarded)")
        procs, warm_ops, _ = run_iteration(launcher, commands, traced=False)
        if all(p.exit == 0 for p in procs.values()) and all(ok for _, ok, _ in warm_ops):
            open(marker, "w").close()
    untraced = measure_iterations(launcher, commands, args.seconds, reserve=1.5 if args.trace else 0)
    ops = [op for it in untraced for op in it[1]]
    if args.trace:
        traced_procs, traced_ops, docs = run_iteration(launcher, commands, traced=True)
        ops += traced_ops
        metrics = layer_metrics(commands, untraced, traced_procs, docs)
        names = declared_metrics("per_layer")
    else:
        metrics = {
            "wall_s": statistics.median(sum(p.wall_s for p in it[0].values()) for it in untraced),
            "cpu_s": statistics.median(sum(p.cpu_s for p in it[0].values()) for it in untraced),
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in it[0].values()) for it in untraced),
            "setup_s": statistics.median(p.wall_s for p in probes),
        }
        names = declared_metrics("end_to_end")
    failed = sum(not ok for _, ok, _ in ops)
    setup_ok = all(p.exit == 0 for p in probes)
    print(f"iterations {len(untraced)}, failed_frac {failed}/{len(ops)} = "
          f"{failed / max(len(ops), 1):.4f}, setup probes ok: {setup_ok}")
    for name, unit in names:
        print(f"{name} {metrics[name]:.6g} {unit}")
    return {"correct": failed == 0 and setup_ok, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in names}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a polite stop into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "mdg", "cli.py")):
        print(f"perfbench: no mdg sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
