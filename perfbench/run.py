"""picardkit benchmark: drives the real CLI and checks every output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports picardkit from
``src/`` and writes only under ``.perfbench_runs/``.

Load model: a closed loop with one client. One ``picardkit --config``
invocation runs at a time, and the next starts after the previous exits,
until ``--seconds`` have passed (at least MIN_INVOCATIONS). The config is
written once per run from ``--seed``. Children run with one BLAS thread, so
the figures are single-threaded and do not depend on what else holds a core.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
and peak RSS of an invocation, and the median time a fresh interpreter
takes to ``import picardkit``. The times are scaled to a reference core
speed with the core-speed probe (see ``Probe``); the raw ones are printed
too. ``--trace 1`` reports per-layer metrics from
an in-process traced run (see tracing.py) plus import times taken with
``python -X importtime``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

from gate import check_outputs
from tracing import COUNTED_METRICS, PER_LAYER_METRICS
from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_INVOCATIONS = 3
MIN_SETUPS = 7
IMPORTTIME_REPEATS = 3
# times are scaled to the core speed at which one loop of the core-speed
# probe (probe.py) takes REFERENCE_LOOP_S, about what it takes on an
# uncontended core of the 2-vCPU Xeon VM the benchmark was tuned on
REFERENCE_LOOP_S = 280e-6
PROBE = Path(__file__).with_name("probe.py")
# a child still running this long after the start is killed, so that a run
# always ends within 180 s
RUN_DEADLINE_S = 165.0

ENV_PROBE = """\
import json, sys
import numpy, scipy, picardkit
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "picardkit_file": picardkit.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child crashed)."""


class Child:
    """One child process: exit code, wall seconds from spawn to reap, and
    the user + system CPU seconds and peak RSS that ``wait4`` reports.
    ``began`` and ``ended`` are the same interval on ``time.monotonic``."""

    def __init__(self, argv: list[str], env: dict, log: Path, deadline: float):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            self.began = time.monotonic()
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
        finally:
            os.close(fd)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
            self.timed_out = not ready
            if self.timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        self.wall_s = time.perf_counter() - start
        self.ended = time.monotonic()
        self.exit = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


class Probe:
    """The core-speed probe, started on the core this process and its
    children are pinned to, and killed and reaped on leaving the block.

    This machine's cores run at changing speed: other tenants of the host
    slow a core by up to ~1.8x in stretches of a few seconds, so the raw
    time of one invocation says as much about the host as about the
    program. The probe times a fixed loop every 20 ms on the same
    core, and ``scale`` turns a child's raw time into the time it would
    have taken on a core that runs the loop in REFERENCE_LOOP_S."""

    def __init__(self, path: Path, deadline: float):
        self.path = path
        self.pid = os.posix_spawn(sys.executable, [
            sys.executable, str(PROBE), str(path)], dict(os.environ))
        while not self.loops():
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("the core-speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def loops(self) -> list[tuple[float, float]]:
        """(start, seconds) of every probe loop so far."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        return list(struct.iter_unpack("dd", data[:len(data) // 16 * 16]))


def scale(children: list[Child], loops: list[tuple[float, float]],
          raw: str) -> tuple[list[float], list[float]]:
    """Each child's ``raw`` time in reference seconds, and its slowdown: the
    mean probe loop while the child ran over REFERENCE_LOOP_S. A child too
    short to hold a whole loop takes the loop that started nearest to it."""
    scaled, slowdowns = [], []
    for child in children:
        inside = [s for t, s in loops if child.began <= t and t + s <= child.ended]
        if not inside:
            inside = [min(loops, key=lambda loop: abs(loop[0] - child.began))[1]]
        slowdown = statistics.fmean(inside) / REFERENCE_LOOP_S
        slowdowns.append(slowdown)
        scaled.append(getattr(child, raw) / slowdown)
    return scaled, slowdowns


def environment(workdir: Path, env: dict, deadline: float) -> dict:
    """Versions, BLAS, CPU and source revision; also checks that the
    children import picardkit from this checkout."""
    probe = Child([sys.executable, "-c", ENV_PROBE], env, workdir / "env.log", deadline)
    text = probe.log.read_text()
    if probe.exit != 0:
        raise BenchError(f"cannot import picardkit from {SRC}:\n{text}")
    record = json.loads(text.strip().splitlines()[-1])
    if not Path(record["picardkit_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"picardkit was imported from {record['picardkit_file']}, not {SRC}")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "picardkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    record.update({
        "blas_threads": {k: env[k] for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    })
    return record


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; an
    exported tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def spread(values: list[float]) -> str:
    return (f"median of {len(values)}; min {min(values):.6g}, "
            f"max {max(values):.6g}")


def timed_run(workload, config: Path, workdir: Path, env: dict, seconds: float,
              deadline: float, log: dict) -> tuple[dict, int, int]:
    """End-to-end metrics: a closed loop of CLI invocations, each checked by
    the gate and each preceded by one fresh-interpreter import, so that
    both medians are taken over the same stretch of time. This process, its
    children and the core-speed probe share one core; wall, CPU and setup
    times are scaled by the probe (see ``Probe``) before the medians are
    taken, and the raw ones are logged beside them."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    try:
        with Probe(workdir / "probe.bin", deadline) as probe:
            setups, invocations, failures = closed_loop(workload, config, workdir, env,
                                                        seconds, deadline)
            loops = probe.loops()
    finally:
        os.sched_setaffinity(0, cores)
    wall, slowdowns = scale(invocations, loops, "wall_s")
    samples = {
        "wall_s": wall,
        "cpu_s": scale(invocations, loops, "cpu_s")[0],
        "peak_rss_mb": [c.peak_rss_mb for c in invocations],
        "setup_s": scale(setups, loops, "wall_s")[0],
    }
    raw = {"wall_s": [c.wall_s for c in invocations],
           "cpu_s": [c.cpu_s for c in invocations],
           "setup_s": [c.wall_s for c in setups]}
    log.update(samples=samples, raw_samples=raw, slowdowns=slowdowns,
               fastest_probe_loop_s=min(s for _, s in loops), failures=failures)
    return ({name: statistics.median(v) for name, v in samples.items()},
            len(invocations), len(failures))


def closed_loop(workload, config: Path, workdir: Path, env: dict, seconds: float,
                deadline: float) -> tuple[list[Child], list[Child], list]:
    """Setup children, CLI invocations and the gate's findings of one run.
    Once a child has been killed at the deadline, nothing more is started:
    a killed invocation counts as failed, a killed setup is dropped."""
    def setup() -> Child | None:
        child = Child([sys.executable, "-c", "import picardkit"], env,
                      workdir / "setup.log", deadline)
        if child.timed_out:
            return None
        if child.exit != 0:
            raise BenchError("import picardkit failed:\n" + child.log.read_text())
        return child

    setups: list[Child] = []
    invocations: list[Child] = []
    failures = []
    stopped = False
    start = time.monotonic()
    while not stopped and (len(invocations) < MIN_INVOCATIONS
                           or time.monotonic() - start < seconds):
        ready = setup()
        if ready is None:
            stopped = True
            break
        setups.append(ready)
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        child = Child([sys.executable, "-m", "picardkit", "--config", str(config),
                       "--out", str(out)], env, workdir / "cli.log", deadline)
        invocations.append(child)
        problems = check_outputs(workload, child.exit, out)
        if problems:
            failures.append(problems)
        stopped = child.timed_out
    while not stopped and len(setups) < MIN_SETUPS:
        ready = setup()
        stopped = ready is None
        if ready is not None:
            setups.append(ready)
    if not invocations:
        raise BenchError("import picardkit did not finish before the deadline")
    return setups, invocations, failures


def import_times(text: str) -> dict[str, float]:
    """Cumulative seconds of numpy, scipy and picardkit from ``-X importtime``
    output. scipy is the sum of the outermost scipy modules, because
    ``scipy.linalg`` and its parent package report side by side."""
    rows = []
    for line in text.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if match:
            rows.append((match.group(3), len(match.group(2)), int(match.group(1)) * 1e-6))
    out = {}
    for package in ("numpy", "scipy", "picardkit"):
        own = [(depth, cum) for name, depth, cum in rows
               if name == package or name.startswith(package + ".")]
        top = min((depth for depth, _ in own), default=0)
        out[f"import.{package}_s"] = sum(cum for depth, cum in own if depth == top)
    return out


def traced_run(workload, config: Path, workdir: Path, env: dict, seconds: float,
               deadline: float, log: dict) -> tuple[dict, int, int]:
    """Per-layer metrics: import times from ``-X importtime``, then the
    in-process traced worker; every in-process run is gated too."""
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        child = Child([sys.executable, "-X", "importtime", "-c", "import picardkit"],
                      env, workdir / "importtime.log", deadline)
        if child.exit != 0:
            raise BenchError("import picardkit failed:\n" + child.log.read_text())
        imports.append(import_times(child.log.read_text()))
    result = workdir / "trace.json"
    worker = Child([sys.executable, str(Path(__file__).with_name("trace_worker.py")),
                    str(config), str(workdir), str(seconds), str(result)],
                   env, workdir / "worker.log", deadline)
    if worker.exit != 0:
        raise BenchError("traced run failed:\n" + worker.log.read_text())
    runs = json.loads(result.read_text())
    failures = [p for p in (check_outputs(workload, r["exit"], Path(r["out"])) for r in runs) if p]
    traced = [r for r in runs if r["role"] == "traced"]
    untraced = [r for r in runs if r["role"] == "untraced"]
    counted = next(r for r in runs if r["role"] == "counted")
    metrics = {name: statistics.median(i[name] for i in imports) for name in imports[0]}
    for name, value in counted["metrics"].items():
        # span times are the median over the span-only runs, free of the
        # counters' cost; counts repeat exactly, so one run gives them
        timed = PER_LAYER_METRICS[name] in ("s", "us") and name not in COUNTED_METRICS
        metrics[name] = (statistics.median(r["metrics"][name] for r in traced)
                         if timed else value)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    log.update(runs=runs, imports=imports, failures=failures,
               missing=counted["missing"])
    return metrics, len(runs), len(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "picardkit" / "__init__.py").is_file():
        print(f"perfbench: no picardkit source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        config = workdir / "run.cfg"
        config.write_text(config_text(workload, args.seed))
        env = child_env()
        log = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "load": "closed loop, 1 client",
               "environment": environment(workdir, env, deadline)}
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed = run(workload, config, workdir, env,
                                         args.seconds, deadline, log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_METRICS if args.trace else END_TO_END
    log["metrics"] = metrics
    (RUNS / "results").mkdir(exist_ok=True)
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(log, indent=1))

    print(f"perfbench {tag}: {attempted} runs, closed loop with 1 client, "
          f"BLAS threads {log['environment']['blas_threads']}")
    print("environment: " + json.dumps(log["environment"]))
    for name, values in log.get("samples", {}).items():
        print(f"{name} = {metrics[name]:.6g} {units[name]}  ({spread(values)})")
    for name, values in log.get("raw_samples", {}).items():
        print(f"raw {name} = {statistics.median(values):.6g} {units[name]}  "
              f"({spread(values)}; before scaling by the core-speed probe)")
    if "slowdowns" in log:
        print(f"core slowdown = {statistics.median(log['slowdowns']):.4g}x the reference "
              f"during an invocation ({spread(log['slowdowns'])}); probe loop: reference "
              f"{REFERENCE_LOOP_S * 1e6:.0f} us, fastest in this run "
              f"{log['fastest_probe_loop_s'] * 1e6:.1f} us")
    if args.trace:
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
        if log["missing"]:
            print("missing wrapped names (reported as 0): " + ", ".join(log["missing"]))
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} failed the gate)")
    for problems in log["failures"][:3]:
        print("gate: " + "; ".join(problems))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
