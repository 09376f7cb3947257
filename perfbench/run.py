"""netctrl benchmark: `check`, `design` and `realize` end to end, and per layer.

    python3 perfbench/run.py --workload check-hetero --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one thread (BLAS pinned to one thread), closed loop with one
client: each call of `netctrl.cli.main([...])` starts after the previous one
returned. Set-up builds the workload's documents from `--seed`; the timed
loop then makes whole passes over them, as many as fit in `--seconds` (at
least MIN_PASSES). With `--trace 0` the run reports the end-to-end
metrics from each document's median time over the passes, with every
time scaled to a reference host speed (see `hostspeed`);
with `--trace 1` it makes one untraced reference pass, then traced
passes, and reports the per-layer metrics per traced pass. Every call's output is checked (see
`harness.check_call`). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Full results, and
the spans of a traced run, are written under `perfbench/out/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

try:
    import harness  # noqa: E402  (pins BLAS threads; puts src/ and tests/ on the path)
    import hostspeed  # noqa: E402
    import spans  # noqa: E402
    import workloads  # noqa: E402
except ImportError as e:
    sys.exit(f"error: cannot import the program under test: {e}")

IMPORT_S = time.perf_counter() - T_START
WORKLOAD_NAMES = ("check-hetero", "check-homog", "design", "realize")
SETUP_REPEATS = 5
MIN_PASSES = 3
# The span that carries each command's work, directly under the CLI call.
ENTRY_SPANS = {
    "check": "verify.check_structural_controllability",
    "design": "design.design_topology",
    "realize": "verify.randomized_realization_check",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(samples: int) -> float:
    """The highest multiple of 5 percent with at least ten samples beyond it."""
    return max(50.0, 5.0 * ((100.0 - 1000.0 / samples) // 5.0))


def nearest_rank(sorted_values: list, p: float) -> float:
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def setup_once(workload: str, seed: int, workdir: str) -> list[tuple[list, dict]]:
    """Golden load, selection, generation and writing of one workload's documents."""
    command, _, _, with_sec7 = workloads.WORKLOADS[workload]
    golden = workloads.load_golden()
    picked = workloads.select(workload, seed, golden)
    docs = [(dict(golden["sec7"], family="sec7", rung=0, seed=0),
             workloads.sec7_document())] if with_sec7 else []
    docs += [(e, workloads.build_document(e["family"], e["rung"], e["seed"]))
             for e in picked]
    calls = []
    for i, (entry, doc) in enumerate(docs):
        path = os.path.join(workdir, f"{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        calls.append((command + [path], entry))
    harness.call_cli(calls[0][0])  # warm-up: lazy library set-up happens before the loop
    return calls


def run_passes(calls, seconds: float, min_passes: int, recorder=None) -> dict:
    """Closed loop over whole passes; returns times, failures and output facts.

    A further pass starts only while it is expected to end within `seconds`
    of the first call, judged by the mean pass so far. The host-speed kernel
    runs between calls, outside the timed span; `scaled` holds each call's
    time at reference host speed.
    """
    clock = time.perf_counter
    command = calls[0][0][0]
    times: list[float] = []
    spans_s: list[tuple[float, float]] = []
    kernels = [hostspeed.kernel()]
    failures: list[str] = []
    facts: list[dict] = []
    passes = 0
    begin = clock()
    while passes < min_passes or (clock() - begin) * (passes + 1) / passes <= seconds:
        passes += 1
        for argv, entry in calls:
            call_id = len(times)
            t0 = clock()
            root = recorder.open_call(call_id, t0) if recorder is not None else None
            try:
                code, out = harness.call_cli(argv)
                raised = None
            except Exception as e:  # a raising call is a counted failure
                raised = e
            finally:
                t1 = clock()
                if recorder is not None:
                    recorder.close_call(root, t1)
            times.append(t1 - t0)
            spans_s.append((t0, t1))
            kernels.append(hostspeed.kernel())
            if raised is not None:
                reason, fact = f"raised {raised!r}", {}
            else:
                reason, fact = harness.check_call(command, code, out, entry)
            if reason:
                failures.append(f"{entry['family']}/{entry['rung']}/{entry['seed']}: {reason}")
            facts.append(dict(fact, controllable=entry.get("controllable")))
    return {"times": times, "scaled": hostspeed.scaled(spans_s, kernels),
            "kernels": [s for _, s in kernels], "failures": failures,
            "facts": facts, "passes": passes}


def quality(facts: list[dict], passes: int) -> dict:
    """witness_rate, design_links and the design link split, per pass."""
    golden_ok = [f for f in facts if f.get("controllable") and "witness" in f]
    witness_rate = (sum(f["witness"] for f in golden_ok) / len(golden_ok)
                    if golden_ok else 0.0)
    return {
        "witness_rate": witness_rate,
        "design_links": sum(f.get("links", 0) for f in facts) / passes,
        "design.stage1_links": sum(f.get("stage1_links", 0) for f in facts) / passes,
        "design.stage2_links": sum(f.get("stage2_links", 0) for f in facts) / passes,
    }


def end_to_end(res: dict, n_docs: int, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from each document's median call over the passes.

    Call times are scaled to reference host speed (`hostspeed`): raw wall
    times on the shared host move with a neighbour's load by up to 30%
    between runs of the same code. calls_per_s, p50_ms and tail_ms are
    taken over the per-document medians. The same figures from raw wall
    time are kept in the result file.
    """
    def figures(times: list[float], p: float) -> dict:
        per_doc = sorted(statistics.median(times[i::n_docs]) for i in range(n_docs))
        return {"calls_per_s": n_docs / sum(per_doc),
                "p50_ms": statistics.median(per_doc) * 1e3,
                "tail_ms": nearest_rank(per_doc, p) * 1e3,
                "beyond": sum(1 for t in per_doc if t > nearest_rank(per_doc, p))}

    p = tail_percentile(n_docs)
    fig = figures(res["scaled"], p)
    tail = {"percentile": p, "samples": n_docs, "passes": res["passes"],
            "beyond": fig.pop("beyond")}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (fig["calls_per_s"], "1/s"),
        "p50_ms": (fig["p50_ms"], "ms"),
        "tail_ms": (fig["tail_ms"], "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return metrics, dict(tail, raw_wall=figures(res["times"], p))


# Traced spans reported per layer: (span name, report its seconds, report its calls).
SPAN_METRICS = [
    ("cli.load_document", True, False),
    ("model.check_well_posedness", True, True),
    ("model.assemble_lumped", True, True),
    ("exactla.exact_det", True, True),
    ("exactla.exact_solve", True, True),
    ("exactla.exact_rank", True, True),
    ("exactla.mmul", True, True),
    ("ratfun.nds_tfms", True, False),
    ("ratfun.spectrum", True, False),
    ("ratfun.mode_data", True, True),
    ("structgraph.build_nacg", True, True),
    ("structgraph.scc_decompose", True, True),
    ("structgraph.find_input_unreachable_lambda_edge", True, True),
    ("structgraph.find_input_unreachable_lambda_cycle", True, True),
    ("matroid.intersection", True, True),
    ("matroid.numeric_oracle", True, True),
    ("matroid.generic_oracle", True, True),
    ("verify.check_structural_controllability", True, False),
    ("verify.check_fum_networked", True, False),
    ("verify.check_feasibility", True, False),
    ("verify.realize_numeric", True, True),
    ("verify.uncontrollable_modes", True, True),
    ("design.greedy_link_rows", True, False),
    ("design.extract_cover_sets", True, False),
    ("design.greedy_color", True, False),
    ("design.eliminate_pdums", True, False),
    ("design.g_value", False, True),
]
LAYERS = ("cli", "model", "exactla", "ratfun", "structgraph", "matroid", "verify", "design")


def per_layer(recorder, res: dict, reference_s: float, n_docs: int, command: str) -> dict:
    """Per-layer metrics per traced pass, from the spans and counters."""
    passes = res["passes"]
    total, own, count = recorder.totals()
    e2e = total["cli.main"] / passes
    m: dict[str, tuple[float, str]] = {}
    for name, report_s, report_calls in SPAN_METRICS:
        if report_s:
            m[name + ".s"] = (total.get(name, 0.0) / passes, "s")
        if report_calls:
            m[name + ".calls"] = (count.get(name, 0) / passes, "count")
    entry = recorder.direct_child_time("cli.main", {ENTRY_SPANS[command]})
    m["cli.overhead.s"] = ((total["cli.main"] - entry) / passes, "s")
    augmentations = recorder.counters["matroid.augmentations"]
    oracle_calls = count.get("matroid.numeric_oracle", 0) + count.get("matroid.generic_oracle", 0)
    m["matroid.augmentations"] = (augmentations / passes, "count")
    m["matroid.oracle_calls_per_augmentation"] = (
        oracle_calls / augmentations if augmentations else 0.0, "ratio")
    for name in ("verify.realize.trials_used", "verify.realize.redraws"):
        m[name] = (recorder.counters[name] / passes, "count")
    q = quality(res["facts"], passes)
    m["design.stage1_links"] = (q["design.stage1_links"], "count")
    m["design.stage2_links"] = (q["design.stage2_links"], "count")
    m["design_links"] = (q["design_links"], "count")
    m["witness_rate"] = (q["witness_rate"], "ratio")
    m["error_rate"] = (len(res["failures"]) / len(res["times"]), "ratio")
    layers: dict[str, float] = defaultdict(float)
    for name, s in own.items():
        layers[name.split(".")[0]] += s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layers[layer] / passes, "s")
        m[f"{layer}.self_share"] = (layers[layer] / passes / e2e, "ratio")
    m["trace.e2e_s"] = (e2e, "s")
    # Tracing overhead from scaled pass times, so host load does not pass for it.
    traced_s = sum(res["scaled"]) / passes
    m["trace.overhead_share"] = ((traced_s - reference_s) / reference_s, "ratio")
    m["trace.calls_per_s_delta"] = (n_docs / traced_s - n_docs / reference_s, "1/s")
    return m


def environment() -> dict:
    import numpy  # already loaded by netctrl

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def measure(args, calls: list, command: str, setup_s: float) -> tuple:
    """The timed passes of one run: (metrics, loop result, extra facts, recorder)."""
    if not args.trace:
        res = run_passes(calls, args.seconds, MIN_PASSES)
        metrics, tail = end_to_end(res, len(calls), setup_s)
        q = quality(res["facts"], res["passes"])
        extra = {"tail": tail, "error_rate": len(res["failures"]) / len(res["times"]),
                 "witness_rate": q["witness_rate"], "design_links": q["design_links"]}
        return metrics, res, extra, None
    reference = run_passes(calls, 0.0, 1)
    recorder = spans.Recorder()
    recorder.install()
    try:
        res = run_passes(calls, args.seconds - sum(reference["times"]), 1, recorder)
    finally:
        recorder.uninstall()
    metrics = per_layer(recorder, res, sum(reference["scaled"]), len(calls), command)
    extra = {"reference_pass_s": sum(reference["times"]),
             "reference_pass_scaled_s": sum(reference["scaled"]),
             "reference_failures": reference["failures"]}
    return metrics, res, extra, recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    command = workloads.WORKLOADS[args.workload][0][0]
    harness.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"docs-{args.workload}-", dir=harness.OUT_DIR)
    try:
        # Set-up times are scaled to reference host speed like call times.
        # The imports end before the kernel can first run; they are judged by
        # the median of the set-up's kernels.
        kernels = [hostspeed.kernel()]
        spans_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            calls = setup_once(args.workload, args.seed, workdir)
            spans_s.append((t0, time.perf_counter()))
            kernels.append(hostspeed.kernel())
        reps = [t1 - t0 for t0, t1 in spans_s]
        import_speed = statistics.median(k for _, k in kernels)
        setup_s = (IMPORT_S * hostspeed.REFERENCE_KERNEL_S / import_speed
                   + statistics.median(hostspeed.scaled(spans_s, kernels)))
        # The benchmark's own long-lived objects (golden data, modules) stay out
        # of the cyclic collector, so a call pays for its own garbage only, as
        # it would in a fresh netctrl process.
        gc.collect()
        gc.freeze()
        metrics, res, extra, recorder = measure(args, calls, command, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = res["failures"] + extra.get("reference_failures", [])
    attempted = len(res["times"]) + (len(calls) if args.trace else 0)
    env = environment()
    summary = dict(extra, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   environment=env, documents=len(calls), passes=res["passes"],
                   setup_repeats_s=reps, setup_kernels_s=[s for _, s in kernels], import_s=IMPORT_S,
                   instances=[e for _, e in calls], failures=failures[:20],
                   call_s=res["times"], scaled_call_s=res["scaled"],
                   kernel_s=res["kernels"],
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(harness.OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if recorder is not None:
        recorder.dump(harness.OUT_DIR / f"trace-{stem}.json",
                      {"workload": args.workload, "seed": args.seed, "environment": env,
                       "instances": summary["instances"]})
    print(f"# {args.workload} seed={args.seed} docs={len(calls)} passes={res['passes']} "
          f"calls={len(res['times'])} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']}")
    for reason in failures[:5]:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        t = extra["tail"]
        print(f"{args.workload} tail_ms is p{t['percentile']:g} of {t['samples']} documents' "
              f"medians over {t['passes']} passes ({t['beyond']} beyond it)")
        raw = t["raw_wall"]
        print(f"# raw wall time, unscaled: calls_per_s {raw['calls_per_s']:.6g} "
              f"p50_ms {raw['p50_ms']:.6g} tail_ms {raw['tail_ms']:.6g}")
        print(f"{args.workload} error_rate = {extra['error_rate']:.6g} ratio")
        if command == "realize":
            print(f"{args.workload} witness_rate = {extra['witness_rate']:.6g} ratio")
        if command == "design":
            print(f"{args.workload} design_links = {extra['design_links']:.6g} count")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": summary["metrics"]},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
