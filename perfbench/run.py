"""vtembed benchmark: one run of one workload.

    python3 perfbench/run.py --workload pipeline|serve|curate --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.  A fixed
number of units of every phase runs spread evenly over the run, then the
workload's focus phases run on until S seconds have passed since the
first set-up.  The two table4 seeds of the pipeline workload take 40-50 s
on their own, so its runs last longer than S.

``--trace 1`` runs the phases three times: untraced to warm up (without
the workload's focus phases), traced, and untraced again.  It reports the
per-layer metrics of the traced pass and its overhead against the last
pass, and writes the spans to ``perfbench/out/``.

Inputs come from ``--seed`` alone.  BLAS runs on one thread, so that runs
on a shared machine are comparable; the environment block records it.
Each run also writes a report with the environment, every metric, the
pipeline ``content_id`` digests and any failures to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

E2E_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "index_items_per_s": "items/s",
    "query_ms.p50": "ms", "query_ms.p95": "ms", "encode_ms.s1": "ms",
    "encode_ms.s2": "ms", "encode_ms.s4": "ms", "curate_queries_per_s": "queries/s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith(("_ratio", "_fraction", ".overhead")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run(workload, seed: int, seconds: float, trace: bool):
    """Return the result line, the run report and the tracer (None
    without tracing) of one run of `workload`."""
    import workloads
    from tracing import Tracer
    from workloads import Runner

    if not trace:
        p = Runner(workload, seed).run(workload.counts(trace=False), seconds, extend=True)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in workloads.end_to_end(p).items()}
        passes, spans = {"measured": p}, None
    else:
        # warm-up, traced, untraced: the first pass in a process runs slower
        # (allocator and cache warm-up), so the overhead compares the later
        # two.  The warm-up leaves out the focus phases, which hold the
        # longest units (table4 seeds, curation rounds).
        counts = workload.counts(trace=True)
        warm = Runner(workload, seed).run({**counts, **{ph: 0 for ph in workload.focus}},
                                          seconds, extend=False)
        tracer = Tracer()
        runner = Runner(workload, seed, tracer)
        tracer.install()
        try:
            traced = runner.run(counts, seconds, extend=False)
        finally:
            tracer.uninstall()
        plain = Runner(workload, seed).run(counts, seconds, extend=False)
        if traced.digests != plain.digests:
            traced.failures.append(f"content_id differs between passes: "
                                   f"{traced.digests} {plain.digests}")
        layer = tracer.metrics()
        layer["retrieval.rerank_overflows"] = runner.overflows.count
        for s in workloads.SWEEP_FACTORS:
            layer[f"profiler.visual_tokens.s{s}"] = traced.visual_tokens.get(s, 0)
        layer["trace.overhead"] = traced.wall_s / plain.wall_s - 1.0
        metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
        passes = {"warm-up": warm, "traced": traced, "untraced": plain}
        spans = tracer

    attempted = sum(p.attempted for p in passes.values())
    failures = [f for p in passes.values() for f in p.failures]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "result": result,
        "failures": failures,
        "pipeline_content_ids": {k: p.digests for k, p in passes.items()},
        "p_at_1_judge_ft": {k: p.values.get("p_at_1_judge_ft", []) for k, p in passes.items()},
        "wall_s": {k: p.wall_s for k, p in passes.items()},
        "phase_s": {k: p.phase_s for k, p in passes.items()},
        "values": {k: {n: v for n, v in p.values.items() if n != "query_latencies_ms"}
                   for k, p in passes.items()},
    }
    return result, report, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vtembed" / "__init__.py").is_file():
        print(f"error: vtembed sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    result, report, spans = run(w, args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if spans is not None:
        spans.write(OUT_DIR / f"{stem}.spans.jsonl")

    print("environment " + json.dumps(report["environment"]))
    for kind, digests in report["pipeline_content_ids"].items():
        print(f"pipeline content_id ({kind}): {' '.join(digests)}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
