"""Smoke test of the benchmark: every workload and every check, tiny inputs.

    python3 perfbench/smoke.py

Runs each workload shrunk to a tiny corpus and one step per training
stage, once with tracing off and once with it on.  Fails unless every
check passes and each run reports exactly the metrics BENCHMARK.json
names, with its units.  Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import run  # sets the BLAS thread count before numpy is imported

TINY = dict(corpus_size=150, queries_per_class=5, pipeline_corpus=150,
            pipeline_queries_per_class=5, steps=(1, 1, 1, 1), p_at_1_floor=0.0,
            curate_queries=4, queries=12, sweep_trials=3, setups=2, index_chunks=2)
CURATE_CORPUS = {"pipeline": 150, "serve": 128, "curate": 150}  # whole corpus and a prefix


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if set(spec_w["name"] for spec_w in spec["workloads"]) != set(workloads.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    problems = []
    for name, w in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(w, curate_corpus=CURATE_CORPUS[name], **TINY)
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, report, _spans = run.run(tiny, seed=1, seconds=0.01, trace=bool(trace))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            bad = list(report["failures"])
            if got != want[trace]:
                bad.append(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(want[trace]) - set(got))}, "
                           f"extra {sorted(set(got) - set(want[trace]))}, "
                           f"units {[k for k in got if want[trace].get(k, got[k]) != got[k]]}")
            if result["attempted"] < 1 or result["failed"] != len(report["failures"]):
                bad.append(f"bad counts {result['attempted']}/{result['failed']}")
            status = "ok" if not bad else "FAIL"
            print(f"{status} {name} trace={trace} attempted={result['attempted']} "
                  f"{time.perf_counter() - t0:.1f}s")
            problems += [f"{name} trace={trace}: {b}" for b in bad]
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
