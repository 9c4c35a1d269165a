"""Benchmark of the metaaudit command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md says
what each one is for. A run:

1. builds the workload's inputs from the seed in a temporary directory
   inside the checkout (deleted afterwards);
2. runs iterations of the workload in a closed loop, one fresh
   ``python -m metaaudit.cli`` process at a time, until the next iteration
   would end after ``--seconds``; wall time, CPU time and max RSS come from
   ``os.wait4`` of each child;
3. times a fresh ``python -c "import metaaudit"`` process before each
   iteration, and at least SETUP_PROBES in all (``setup_s`` is their
   median); spreading the probes over the run keeps a burst of load on the
   machine from deciding ``setup_s``;
4. checks every output: exit codes, the workload's own content checks, and
   identical sha256 of every output file across iterations.

With ``--trace 1`` the first half of the time runs untraced and the second
half runs every invocation through ``perfbench/tracer.py``, which reports
the per-layer metrics. The last line of standard output is the result JSON;
the line before it, starting with ``record:``, holds the raw samples, the
seed, the input hashes and the environment.

Children run with the caller's environment, plus ``PYTHONPATH`` pointing at
the checkout's ``src``; thread counts are not pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_ITERATIONS = 2  # two runs of the same seed are needed to check determinism
RUN_LIMIT_S = 150.0  # no child is started, or left running, after this
IMPORT_LAYERS = ("interpreter_s", "numpy_s", "scipy_special_s", "metaaudit_s")


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    spawned: float  # time.monotonic() just before spawn


@dataclass
class Iteration:
    children: list[Child]
    failed: list[str] = field(default_factory=list)  # names of failed invocations

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.maxrss_mb for c in self.children)


def run_child(argv: list[str], env: dict[str, str], cwd: Path, stderr_path: Path,
              deadline: float) -> Child:
    """Run one process to completion and take its own rusage from wait4.

    A child still running at ``deadline`` (a ``time.monotonic()`` value) is
    killed.
    """
    with open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, ended - spawned, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, spawned)


def tree_hashes(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): workloads.sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


class Runner:
    """Runs iterations of one workload and checks their outputs."""

    def __init__(self, workload: workloads.Workload, scratch: Path, env: dict[str, str],
                 deadline: float):
        self.workload = workload
        self.scratch = scratch
        self.env = env
        self.deadline = deadline
        self.reference: dict[str, str] | None = None  # output hashes of the first iteration
        self.reference_problems: workloads.Problems = {}
        self.problems: list[str] = []
        self.traces: list[list[tuple[Child, dict]]] = []
        self.setup_s: list[float] = []

    def probe_setup(self) -> None:
        argv = [sys.executable, "-c", "import metaaudit"]
        self.setup_s.append(run_child(argv, self.env, self.scratch,
                                      self.scratch / "setup.stderr", self.deadline).wall_s)

    def iteration(self, label: str, traced: bool) -> Iteration:
        out_root = self.scratch / label
        it = Iteration([])
        traces = []
        for inv in self.workload.invocations:
            out = out_root / inv.name
            cli_args = [*inv.args, "--out", str(out)]
            if traced:
                spans = out_root / f"{inv.name}.spans.json"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cli_args]
            else:
                argv = [sys.executable, "-m", "metaaudit.cli", *cli_args]
            out_root.mkdir(parents=True, exist_ok=True)
            child = run_child(argv, self.env, self.scratch,
                              out_root / f"{inv.name}.stderr", self.deadline)
            it.children.append(child)
            if child.code != 0:
                err = (out_root / f"{inv.name}.stderr").read_text(errors="replace")
                self.fail(it, inv.name, f"{label}: exit code {child.code}: {err.strip()[-300:]}")
            if traced and child.code == 0:
                traces.append((child, json.loads(spans.read_text(encoding="utf-8"))))
                spans.unlink()
        if traced:
            self.traces.append(traces)
        self.check_outputs(it, label, out_root)
        shutil.rmtree(out_root, ignore_errors=True)
        return it

    def fail(self, it: Iteration, name: str, message: str) -> None:
        if name not in it.failed:
            it.failed.append(name)
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_outputs(self, it: Iteration, label: str, out_root: Path) -> None:
        for p in out_root.glob("*.stderr"):
            p.unlink()
        hashes = tree_hashes(out_root) if out_root.exists() else {}
        if self.reference is None:
            self.reference = hashes
            self.reference_problems = self.workload.check(out_root)
            for inv in self.workload.invocations:
                missing = [f for f in inv.outputs if f"{inv.name}/{f}" not in hashes]
                if missing:
                    self.reference_problems.setdefault(inv.name, []).append(f"missing {', '.join(missing)}")
        for inv in self.workload.invocations:
            for problem in self.reference_problems.get(inv.name, []):
                self.fail(it, inv.name, f"{label}: {inv.name}: {problem}")
            mine = {k: v for k, v in hashes.items() if k.startswith(inv.name + "/")}
            theirs = {k: v for k, v in self.reference.items() if k.startswith(inv.name + "/")}
            if mine != theirs:
                self.fail(it, inv.name, f"{label}: {inv.name}: outputs differ from the first iteration")

    def loop(self, prefix: str, seconds: float, traced: bool) -> list[Iteration]:
        """Closed loop: stop once the next iteration would end after ``seconds``.

        Past the run's deadline no further iteration starts.
        """
        done: list[Iteration] = []
        start = time.monotonic()
        while True:
            if not traced:
                self.probe_setup()
            it = self.iteration(f"{prefix}{len(done)}", traced)
            done.append(it)
            elapsed = time.monotonic() - start
            if (len(done) >= MIN_ITERATIONS and elapsed + it.wall_s > seconds
                    or time.monotonic() > self.deadline):
                return done


def layer_values(traces: list[tuple[Child, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its invocations.

    A span's self time is its duration minus its children's durations, so
    the self times of one invocation add up to its ``cli.main`` span. RSS
    rises are per process: each function's self rise is summed within an
    invocation and the largest over the iteration's invocations is kept.
    """
    values: dict[str, float] = defaultdict(float)
    for child, trace in traces:
        values["import.interpreter_s"] += trace["t_start"] - child.spawned
        for key, seconds in trace["import"].items():
            values[f"import.{key}"] += seconds
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        child_rise = [0] * len(spans)
        for name, start, end, parent, rss0, rss1 in spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_rise[parent] += rss1 - rss0
        rises: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, rss0, rss1) in enumerate(spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += (end - start) - child_s[i]
            rises[name] += (rss1 - rss0) - child_rise[i]
        for name, rise in rises.items():
            key = f"{name}.maxrss_rise_mb"
            values[key] = max(values[key], rise / 1024.0)
        for key, count in trace["counters"].items():
            values[key] += count
        values["trace.wall_s"] += child.wall_s
    accounted = sum(v for k, v in values.items()
                    if k.startswith("import.") or k.endswith(".self_s"))
    values["trace.unattributed_s"] = values["trace.wall_s"] - accounted
    return values


def known_layer_metrics() -> set[str]:
    names = {f"import.{k}" for k in IMPORT_LAYERS}
    names |= {"trace.wall_s", "trace.overhead_s", "trace.unattributed_s"}
    names |= set(tracer.COUNTERS)
    for module, fnames in tracer.TIMED.items():
        for f in fnames:
            names |= {f"{module}.{f}.{m}" for m in ("calls", "self_s", "maxrss_rise_mb")}
    for module, fnames in tracer.COUNTED.items():
        names |= {f"{module}.{f}.calls" for f in fnames}
    return names


def environment(versions: dict[str, str], env: dict[str, str]) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    record = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
              "cpu_model": model, **versions}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE"):
        record[var] = env.get(var)
    return record


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail_setup(f"--seed must lie in [0, 2**64), got {args.seed}")
    if not (SRC / "metaaudit" / "__init__.py").is_file():
        fail_setup(f"no metaaudit package under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = {m["name"] for m in spec["per_layer"]} - known_layer_metrics()
    if unknown:
        fail_setup(f"BENCHMARK.json names per-layer metrics nobody measures: {sorted(unknown)}")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, record = measure(args, spec, env, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("record: " + json.dumps(record))
    print(json.dumps(result))


def measure(args, spec: dict, env: dict[str, str], scratch: Path,
            deadline: float) -> tuple[dict, dict]:
    probe = ("import json, sys, numpy, scipy, metaaudit; print(json.dumps({"
             "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'metaaudit_file': metaaudit.__file__}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=scratch,
                          capture_output=True, text=True, timeout=RUN_LIMIT_S)
    if done.returncode != 0:
        fail_setup(f"cannot import metaaudit: {done.stderr.strip()[-500:]}")
    versions = json.loads(done.stdout)
    if not Path(versions.pop("metaaudit_file")).resolve().is_relative_to(SRC.resolve()):
        fail_setup("metaaudit does not resolve to this checkout's src/")

    inputs_dir = scratch / "inputs"
    inputs_dir.mkdir()
    workload = workloads.WORKLOADS[args.workload](ROOT, inputs_dir, args.seed)
    runner = Runner(workload, scratch, env, deadline)
    if args.trace:
        plain = runner.loop("run", args.seconds / 2, traced=False)
        traced = runner.loop("traced", args.seconds / 2, traced=True)
    else:
        plain = runner.loop("run", args.seconds, traced=False)
        traced = []
    while len(runner.setup_s) < SETUP_PROBES:
        runner.probe_setup()
    every = plain + traced

    samples = {
        "setup_s": runner.setup_s,
        "wall_s": [it.wall_s for it in plain],
        "cpu_s": [it.cpu_s for it in plain],
        "peak_rss_mb": [it.peak_rss_mb for it in plain],
        "work_per_s": [workload.work / it.wall_s for it in plain],
    }
    attempted = sum(len(it.children) for it in every)
    failed = sum(len(it.failed) for it in every)
    end_to_end = {name: statistics.median(values) for name, values in samples.items()}

    layers = [layer_values(t) for t in runner.traces]
    layer_samples = {m["name"]: [v.get(m["name"], 0.0) for v in layers]
                     for m in spec["per_layer"]} if layers else {}
    if layers:
        layer_samples["trace.overhead_s"] = [v["trace.wall_s"] - end_to_end["wall_s"]
                                             for v in layers]

    print(f"workload {workload.name}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iteration(s) of {len(workload.invocations)} invocation(s)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, values in samples.items():
        print(f"  {name:<12} median {end_to_end[name]:.6g} {units[name]}"
              f"  (n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    print(f"  work_per_s counts {workload.work_unit} per second")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g}  ({failed} of {attempted} invocations)")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    for name, values in layer_samples.items():
        if any(values):
            print(f"  {name:<44} median {statistics.median(values):.6g}  (n={len(values)})")

    if args.trace:
        chosen, source = spec["per_layer"], {k: statistics.median(v) for k, v in layer_samples.items()}
    else:
        chosen, source = spec["end_to_end"], end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "inputs": {name: workloads.sha256(path) for name, path in workload.inputs.items()},
        "environment": environment(versions, env),
        "attempted": attempted,
        "failed": failed,
        "problems": runner.problems,
        "samples": samples,
        "layer_samples": layer_samples,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


if __name__ == "__main__":
    main()
