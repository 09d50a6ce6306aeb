"""The permbreak benchmark: runs the `permbreak` CLI as users run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chosen-break --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``chosen-break``, ``sweep`` and ``byte-known``.  Load is closed-loop: this
one process runs one CLI command at a time, each as its own
``python -m permbreak.cli ...`` process with the checkout's ``src`` on the
path, repeating whole passes of the workload until ``--seconds`` of command
time is used (at least one pass).  Every pass's outputs are checked.

Times are speed-adjusted.  On a shared machine the same work takes up to
1.7x longer when other tenants load the core, in swings that last from
seconds to minutes, so raw wall times of identical runs spread by 20 %.
While each child runs, a ``SpeedProbe`` times a fixed loop on the same CPU;
a time is reported as the wall time divided by the probe's slowdown, i.e. in
seconds on a core where the loop takes NOMINAL_PROBE_S.  The probe misses
part of the interference (memory-bound code suffers more than the loop), and
interference only ever adds time, so each command's time is the fastest of
its adjusted runs, as timeit does.  Raw wall times and the slowdowns are kept
in the run record.

``--trace 0`` prints the end-to-end metrics: the pass time (the sum over the
workload's commands of each one's fastest time), the set-up time (fastest of
several set-ups), the largest peak RSS of any CLI child and the recovered
map's accuracy.  ``--trace 1`` prints the per-layer metrics
instead, from one pass whose commands run in-process with the public
functions wrapped (``tracing.py``), compared against one untraced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failed checks are named on
stderr.  A record of the run (environment, raw and adjusted times, slowdowns
and, for traced runs, the spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
RUN_LIMIT_S = 170.0  # every child is killed once the whole run reaches this age
PROBE_LOOPS = 20_000
PROBE_PERIOD_S = 0.05
NOMINAL_PROBE_S = 0.0015  # the probe loop on a quiet core of a 2.0 GHz Xeon VM


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def environment() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


class SpeedProbe:
    """Samples how slow the CPU is while a block runs, on the CPU it runs on.

    The benchmark pins itself and its children to one CPU.  Every
    PROBE_PERIOD_S a thread here wakes, preempts the child and times a fixed
    pure-Python loop, so each sample sees the core as the child sees it at
    that moment.  ``slowdown`` is the median sample over NOMINAL_PROBE_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def loop() -> float:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        return time.perf_counter() - start

    def _sample(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(self.loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:  # the block ended before the first sample
            self.samples.append(self.loop())

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) / NOMINAL_PROBE_S


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    slowdown: float

    @property
    def adjusted_s(self) -> float:
        return self.wall_s / self.slowdown


class Children:
    """Runs child processes one at a time, each killed at the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], cwd: Path) -> Child:
        with open(cwd / "commands.log", "ab") as out, SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, probe.slowdown)

    def cli(self, argv: list[str], cwd: Path) -> Child:
        return self.run([sys.executable, "-m", "permbreak.cli", *argv], cwd)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def set_up(workload, children: Children, work: Path) -> tuple[Path, float, list]:
    """Write the inputs and start the CLI once, several times.  Starting the CLI
    loads the interpreter, NumPy and SciPy from disk before anything is timed.
    Returns the inputs, the fastest adjusted set-up time and the raw times."""
    adjusted, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = fresh(work / "inputs")
        workload.prepare(inputs)
        child = children.cli(["--help"], inputs)
        elapsed = time.perf_counter() - start
        if child.code != 0:
            raise RuntimeError(f"`permbreak --help` exited with {child.code}; see {inputs / 'commands.log'}")
        adjusted.append(elapsed / child.slowdown)  # the CLI start is most of it
        raw.append(elapsed)
    return inputs, min(adjusted), raw


def score(workload, p, inputs: Path, codes: list[int]) -> int:
    """Check one pass; return the number of failed commands and name each failure."""
    workload.check(p, inputs)
    failed = 0
    for index, argv in enumerate(p.commands):
        problems = list(p.failures.get(index, []))
        if codes[index] != 0:
            problems.insert(0, f"exited with {codes[index]} (log: {p.cwd / 'commands.log'})")
        for problem in problems:
            log(f"FAILED {argv[0]}: {problem}")
        failed += bool(problems)
    return failed


def measure(workload, children: Children, work: Path, inputs: Path, seconds: float) -> dict:
    """Closed loop: whole passes, one command at a time, until `seconds` of
    adjusted command time (so a slow spell does not change the pass count)."""
    passes, raw, rss, accuracy, commands = [], [], [], [], []
    fastest: dict[int, float] = {}  # command index -> its fastest adjusted time
    attempted = failed = 0
    while not passes or sum(passes) + statistics.median(passes) <= seconds:
        p = workload.new_pass(inputs, fresh(work / "pass"))
        runs = [children.cli(argv, p.cwd) for argv in p.commands]
        attempted += len(runs)
        failed += score(workload, p, inputs, [r.code for r in runs])
        passes.append(sum(r.adjusted_s for r in runs))
        raw.append(sum(r.wall_s for r in runs))
        rss += [r.peak_rss_mb for r in runs]
        accuracy.append(p.perm_accuracy)
        for k, (argv, r) in enumerate(zip(p.commands, runs)):
            fastest[k] = min(fastest.get(k, r.adjusted_s), r.adjusted_s)
            commands.append({"command": argv[0], "adjusted_s": r.adjusted_s, **vars(r)})
    log(f"{len(passes)} passes; adjusted pass times {[round(v, 3) for v in passes]} s, "
        f"raw {[round(v, 3) for v in raw]} s")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pass_s": sum(fastest.values()),
            "peak_rss_mb": max(rss),
            "perm_accuracy": statistics.median(accuracy),
        },
        "record": {"pass_s": passes, "raw_pass_s": raw, "commands": commands},
    }


def in_process(workload, children: Children, work: Path, inputs: Path, traced: bool):
    """One pass with each command run by ``tracing.py`` in a process of its own."""
    p = workload.new_pass(inputs, fresh(work / ("traced" if traced else "untraced")))
    results = []
    for k, argv in enumerate(p.commands):
        spec_path, out_path = p.cwd / f"spec{k}.json", p.cwd / f"result{k}.json"
        spec = {"src": str(SRC), "cwd": str(p.cwd), "argv": argv, "trace": traced}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        child = children.run([sys.executable, str(HERE / "tracing.py"), str(spec_path), str(out_path)], p.cwd)
        if child.code == 0:
            result = json.loads(out_path.read_text(encoding="utf-8"))
        else:  # the command raised or was killed; its log holds the traceback
            result = {"code": child.code, "wall_s": child.wall_s, "missing": [], "aggregate": {}, "spans": []}
        result["slowdown"] = child.slowdown
        results.append(result)
    return p, results


def import_time(children: Children, cwd: Path) -> float:
    """Median fresh-process import of permbreak.cli minus a bare interpreter start."""
    def median_adjusted(code):
        return statistics.median(
            children.run([sys.executable, "-c", code], cwd).adjusted_s for _ in range(IMPORT_REPEATS)
        )

    return median_adjusted("import permbreak.cli") - median_adjusted("pass")


def trace(workload, children: Children, work: Path, inputs: Path, per_layer: list[dict]) -> dict:
    _, untraced = in_process(workload, children, work, inputs, traced=False)
    p, traced = in_process(workload, children, work, inputs, traced=True)
    failed = score(workload, p, inputs, [r["code"] for r in traced]) + sum(r["code"] != 0 for r in untraced)

    def adjusted(r):
        # Span times of one traced command, divided by the slowdown seen while it ran.
        agg = dict(r["aggregate"])
        for kind in ("total", "own"):
            agg[kind] = {k: v / r["slowdown"] for k, v in agg.get(kind, {}).items()}
        return agg

    aggs = [adjusted(r) for r in traced]
    phases = [{"command": argv[0], "metrics": tracing.layer_metrics(a)} for argv, a in zip(p.commands, aggs)]
    merged = tracing.merge(aggs)
    calls = merged.get("calls", {})
    missing = sorted({m for r in traced for m in r["missing"]})
    missing += [f"{n} (no calls)" for n in sorted(tracing.EXPECTED[workload.name]) if not calls.get(n)]
    absent = {m.split(" ")[0] for m in missing}
    metrics = {k: v for k, v in tracing.layer_metrics(merged).items() if tracing.LAYER_METRICS[k][0] not in absent}
    metrics["cli.import_s"] = import_time(children, work)
    metrics["trace.overhead_s"] = sum(r["wall_s"] / r["slowdown"] for r in traced) - sum(
        r["wall_s"] / r["slowdown"] for r in untraced
    )
    for name in missing:
        log(f"MISSING probe {name}: its metrics are left out")
    for phase in phases:
        nonzero = sorted(k for k, v in phase["metrics"].items() if v and k.split(".")[0] in ("keystream", "recovery"))
        log(f"phase {phase['command']}: nonzero keystream/recovery metrics: {', '.join(nonzero) or 'none'}")
    return {
        "attempted": 2 * len(p.commands),
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in per_layer if m["name"] in metrics},
        "record": {
            "untraced": [{k: r[k] for k in ("code", "wall_s", "slowdown")} for r in untraced],
            "traced": [{k: r[k] for k in ("code", "wall_s", "slowdown", "spans")} for r in traced],
            "missing": missing,
            "phases": phases,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=json.loads((HERE / "layers.json").read_text())["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0, help="command time to measure (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the smoke test's sizes")
    args = parser.parse_args(argv)

    if not (SRC / "permbreak" / "cli.py").is_file():
        log(f"no permbreak sources under {SRC}; run from the root of a checkout")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    started = time.monotonic()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it; see SpeedProbe
    env = environment()
    log("environment " + json.dumps(env))
    children = Children(started + RUN_LIMIT_S)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    sys.path.insert(0, str(SRC))  # the checks use the program's own compose_permutation
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        inputs, setup_s, raw_setup = set_up(workload, children, work)
        if args.trace:
            result = trace(workload, children, work, inputs, declared)
        else:
            result = measure(workload, children, work, inputs, args.seconds)
            result["metrics"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
              "environment": env, **line, "raw_setup_s": raw_setup, **result["record"]}
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    log(f"load average 1m: {env['loadavg_1m_start']:.2f} at start, {env['loadavg_1m_end']:.2f} at end")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
