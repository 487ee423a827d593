"""qcurv benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload exact-jets --seed 1 --seconds 10 --trace 0

Run from the repository root; nothing needs installing, since `src` is
put on the import path.  One caller runs one task at a time, in rounds that
each hold the workload's whole fixed mix (see workloads.py), until at least
``--seconds`` have passed and at least MIN_TASKS tasks are done.  Every
task's output is checked; a task that fails its check or raises counts
against `fail_ratio` and the run goes on.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds, reports the per-layer
metrics of BENCHMARK.json from the traced ones and the tracing overhead
from the difference, and runs `qcurv verify all --seed 1` as a behaviour
guard.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller record of the run,
with provenance, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    KERNELS, NUMPY_IMPORT_S, SINGLE_THREAD, CliRunner, child_env, numpy_import, round_tasks,
    run_child, speed_reference,
)

os.environ.update(SINGLE_THREAD)  # before numpy is imported, here or in a child

MIN_TASKS = 100  # so task_p90_ms has at least ten samples beyond it
SETUP_PROBES = 3
PROBE_ROUNDS = 8  # inputs a probe generates; more rounds than a run at run_seconds uses
GUARD_TIMEOUT_S = 90  # `verify all` takes about 11 s
clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


# -- set-up ------------------------------------------------------------------------


def _probe_code(workload: str, seed: int) -> str:
    module = "qcurv.cli" if workload == "cli-calls" else "inproc"
    return (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        f"import {module}\n"
        "t1 = time.perf_counter()\n"
        "from workloads import round_tasks\n"
        f"inputs = [round_tasks({workload!r}, {seed}, r) for r in range({PROBE_ROUNDS})]\n"
        "print(t1 - t0)\n"
    )


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Wall time of fresh interpreters that import what the workload needs
    and generate its inputs, of an interpreter importing numpy just before
    each, and the import time each probe saw inside."""
    walls, refs, imports = [], [], []
    code = _probe_code(workload, seed)
    env = child_env(ROOT)
    for _ in range(SETUP_PROBES):
        try:
            t0 = clock()
            numpy_import()
            refs.append(clock() - t0)
            t0 = clock()
            proc = run_child([sys.executable, "-c", code], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            walls.append(clock() - t0)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as e:
            raise BenchError(f"set-up probe failed: {e}")
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        imports.append(float(proc.stdout.split()[-1]))
    return walls, refs, imports


def make_runner(workload: str, tracer: Tracer):
    if workload == "cli-calls":
        cli = CliRunner(ROOT, OUT, tracer)
        return lambda label, kind, params: cli(label, **params)
    sys.path.insert(0, SRC)
    import inproc

    return lambda label, kind, params: inproc.TASKS[kind](tracer, **params)


# -- the timed loop ------------------------------------------------------------------


class Loop:
    """Closed loop over whole rounds; keeps latencies per round kind
    (False = untraced, True = traced)."""

    def __init__(self, workload: str, seed: int, tracer: Tracer, run_task):
        self.workload, self.seed, self.tr, self.run_task = workload, seed, tracer, run_task
        self.rounds = 0
        self.attempted = 0
        self.failures: list[str] = []
        # latencies in ms by task label: as measured, and at reference speed
        self.wall: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.scaled: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.ok = {False: 0, True: 0}
        self.nrounds = {False: 0, True: 0}
        self.speed_scale: list[dict[str, float]] = []  # per round, by kernel

    def round(self, traced: bool) -> None:
        self.tr.enabled = traced
        measured, kernel_s, paired = [], {}, {}
        for label, kind, params in round_tasks(self.workload, self.seed, self.rounds):
            ref = speed_reference(kind, params)
            if ref:
                kernel, _, every = KERNELS[ref]
                if paired.get(ref, 0) % every == 0:
                    t0 = clock()
                    kernel()
                    kernel_s.setdefault(ref, []).append(clock() - t0)
                paired[ref] = paired.get(ref, 0) + 1
            self.tr.task_id = self.attempted
            self.attempted += 1
            t0 = clock()
            try:
                with self.tr.span("task"):
                    self.run_task(label, kind, params)
                self.ok[traced] += 1
            except Exception as e:  # a raising task is a failed task, not a failed run
                self.failures.append(f"round {self.rounds} {label}: {type(e).__name__}: {e}")
            measured.append((label, ref, (clock() - t0) * 1e3))
        self.tr.enabled = False
        scale = {ref: KERNELS[ref][1] / statistics.median(ts) for ref, ts in kernel_s.items()}
        for label, ref, ms in measured:
            self.wall[traced].setdefault(label, []).append(ms)
            self.scaled[traced].setdefault(label, []).append(ms * scale.get(ref, 1.0))
        self.speed_scale.append(scale)
        self.nrounds[traced] += 1
        self.rounds += 1


def run_loop(loop: Loop, seconds: float, trace: bool) -> float:
    t0 = clock()
    while True:
        loop.round(traced=trace and loop.rounds % 2 == 1)
        elapsed = clock() - t0
        if trace:
            if elapsed >= seconds and loop.rounds % 2 == 0:
                return elapsed
        elif elapsed >= seconds and loop.attempted >= MIN_TASKS:
            return elapsed


# -- metrics ------------------------------------------------------------------------


def timing(ok: int, lat: dict[str, list[float]]) -> dict[str, float]:
    """Throughput over the summed task time, and latency percentiles.

    For the percentiles each task counts at the median latency of its
    stratum over the run's rounds, which filters the host's second-scale
    speed swings out of them; the raw latencies go into the record.
    """
    per_task = [statistics.median(vs) for vs in lat.values() for _ in vs]
    return {
        "tasks_per_s": ok / (sum(map(sum, lat.values())) / 1e3),
        "task_p50_ms": statistics.median(per_task),
        "task_p90_ms": statistics.quantiles(per_task, n=10)[-1],
    }


def setup_seconds(walls: list[float], refs: list[float]) -> float:
    """Median set-up probe, at the reference speed of the numpy import."""
    return statistics.median(walls) * NUMPY_IMPORT_S / statistics.median(refs)


def end_to_end(loop: Loop, walls: list[float], refs: list[float],
               workload: str) -> dict[str, float]:
    who = resource.RUSAGE_CHILDREN if workload == "cli-calls" else resource.RUSAGE_SELF
    return {
        **timing(loop.ok[False], loop.scaled[False]),
        "setup_s": setup_seconds(walls, refs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, tracer: Tracer, imports: list[float], workload: str) -> dict:
    rounds = loop.nrounds[True]
    totals = tracer.totals()
    out: dict[str, float] = {}
    for name, (_, total, _) in totals.items():
        if name != "task":
            out[f"{name}.s"] = total / rounds
    out["task.self.s"] = totals["task"][2] / rounds
    for name, value in tracer.counts.items():
        out[name] = value / rounds
    _, iter_s, _ = totals.get("spectral.extremal_iteration", (0, 0.0, 0.0))
    steps = tracer.counts.get("spectral.steps", 0)
    out["spectral.step_ms"] = 1e3 * iter_s / steps if steps else 0.0
    out["cli.import.s"] = statistics.median(imports) if workload == "cli-calls" else 0.0
    out["trace.overhead.tasks_per_s"] = (
        timing(loop.ok[False], loop.scaled[False])["tasks_per_s"]
        - timing(loop.ok[True], loop.scaled[True])["tasks_per_s"]
    )
    return out


def select(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics, in declared order, with their declared units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# -- provenance and the behaviour guard ---------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qcurv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def provenance() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "threads_env": SINGLE_THREAD,
    }


def behaviour_guard() -> dict:
    """Time `qcurv verify all --seed 1` and record the sha256 of its report."""
    path = os.path.join(OUT, "guard-report.json")
    t0 = clock()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "qcurv.cli", "verify", "all", "--seed", "1", "--report", path],
            cwd=ROOT, env=child_env(ROOT), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=GUARD_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    out = {"command": "qcurv verify all --seed 1", "wall_s": clock() - t0,
           "exit": code, "report_sha256": None}
    if os.path.exists(path):
        with open(path, "rb") as f:
            out["report_sha256"] = hashlib.sha256(f.read()).hexdigest()
        os.unlink(path)
    return out


# -- main -----------------------------------------------------------------------------


def parse_args(spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not os.path.isfile(os.path.join(SRC, "qcurv", "__init__.py")):
        raise BenchError(f"no qcurv sources under {SRC}; run from a full checkout")
    os.makedirs(OUT, exist_ok=True)
    trace = bool(args.trace)

    setup_walls, setup_refs, imports = measure_setup(args.workload, args.seed)
    tracer = Tracer()
    loop = Loop(args.workload, args.seed, tracer, make_runner(args.workload, tracer))
    loop_s = run_loop(loop, args.seconds, trace)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "rounds": loop.rounds,
        "loop_s": loop_s,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "setup_probes_s": setup_walls,
        "setup_numpy_import_s": setup_refs,
        "probe_import_s": imports,
    }
    fail_ratio = len(loop.failures) / loop.attempted
    if trace:
        # a layer the workload never reaches reads 0
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(per_layer(loop, tracer, imports, args.workload))
        metrics = select(values, spec["per_layer"])
        record["self_time_s_per_round"] = {
            name: {"calls": calls / loop.nrounds[True], "total": total / loop.nrounds[True],
                   "self": self_s / loop.nrounds[True]}
            for name, (calls, total, self_s) in sorted(tracer.totals().items())
        }
        record["guard"] = behaviour_guard()
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = select(end_to_end(loop, setup_walls, setup_refs, args.workload),
                         spec["end_to_end"])
    record["metrics"] = metrics
    record["wall_latency_ms_by_task"] = {"untraced": loop.wall[False], "traced": loop.wall[True]}
    record["speed_scale_by_round"] = loop.speed_scale
    record["fail_ratio"] = fail_ratio
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {loop.attempted} tasks "
          f"in {loop.rounds} rounds, {loop_s:.1f} s loop")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':36s} {fail_ratio:.6g} ratio")
    if not trace:
        unscaled = {**timing(loop.ok[False], loop.wall[False]),
                    "setup_s": statistics.median(setup_walls)}
        for name, value in unscaled.items():
            print(f"  {name + ' (unscaled)':36s} {value:.6g} {metrics[name]['unit']}")
    if trace:
        g = record["guard"]
        print(f"  {g['command']}: {g['wall_s']:.2f} s, exit {g['exit']}, "
              f"report sha256 {g['report_sha256']}")
    for line in loop.failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"record written to {os.path.relpath(os.path.join(OUT, stem + '.json'), ROOT)}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        sys.exit(2)
