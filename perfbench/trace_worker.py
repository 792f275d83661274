"""In-process traced run of one picardkit config.

Run as ``python trace_worker.py <config> <workdir> <seconds> <result.json>``
with ``src`` on ``PYTHONPATH``. After one untraced warm-up run it alternates
an untraced ``cli.run`` on the config with a traced one (spans only) until
``seconds`` have passed (at least one pair), then makes one counted run
(spans and per-call counters). It writes each run's artifacts to
``<workdir>/inproc-<i>`` and saves the exit codes, wall times, spans and
per-layer metrics to ``result.json``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def main(argv: list[str]) -> int:
    config_path, workdir, seconds, result_path = argv
    from picardkit import builtins, bvp, cli, report

    def one_run(role: str) -> dict:
        out = Path(workdir) / f"inproc-{len(runs)}"
        tracer = Tracer(run_id=len(runs))
        if role in ("traced", "counted"):
            tracer.install(cli, bvp, builtins, report, counters=role == "counted")
        try:
            t0 = time.perf_counter()
            code = cli.run(cli.load_config(config_path), out)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        run = {"role": role, "exit": code, "out": str(out), "wall_s": wall}
        if role in ("traced", "counted"):
            run["metrics"] = layer_metrics(tracer)
            run["metrics"]["artifacts.bytes"] = _artifact_bytes(out)
            run["missing"] = tracer.missing
            run["spans"] = [dataclasses.astuple(span) for span in tracer.spans]
        return run

    runs: list[dict] = []
    runs.append(one_run("warmup"))
    start = time.perf_counter()
    while len(runs) == 1 or time.perf_counter() - start < float(seconds):
        runs.append(one_run("untraced"))
        runs.append(one_run("traced"))
    runs.append(one_run("counted"))
    Path(result_path).write_text(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
