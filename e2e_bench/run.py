#!/usr/bin/env python3
"""Time-to-solution benchmark for sparta: build, run, check, report.

One run:
    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds e2e_bench/ (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the
named workload as one closed-loop process on min(--threads, nproc) OpenMP
threads with SPARTA_TELEMETRY unset, and prints the benchmark's informational
lines followed by one JSON line: the end-to-end metrics (--trace 0) or the
per-layer metrics of a separate traced run (--trace 1). The exit code is
non-zero on any correctness failure, on a plan that differs from the one
recorded in the workload's "why" in BENCHMARK.json, or on a metric set that
differs from BENCHMARK.json. mtx-stream runs the same way but is not in
BENCHMARK.json (see UNGATED).

    python3 e2e_bench/run.py --list
prints every metric with its unit, layer and the end-to-end metric it
should move.

    python3 e2e_bench/run.py --aa [--runs 10] [--workloads a,b] [--seed0 1]
runs two sets of the same build per workload (alternating A and B on the
same seeds) and marks each end-to-end metric agree, disagree or unresolved
against the bounds in BENCHMARK.json.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175

# layer, and the end-to-end metric (and workload) each metric should move.
CATALOG = {
    "setup_s": ("end-to-end", "read + plan + prepare + engine construction per workload pass (sum over requests)"),
    "solve_s": ("end-to-end", "iterate-phase wall time per workload pass"),
    "time_to_solution_s": ("end-to-end", "whole timed workload pass (setup_s + solve_s)"),
    "request_p50_ms": ("end-to-end", "median over passes of each pass's nearest-rank p50 request latency; a request is one RHS solve (poisson), one batch (webgraph) or one file (mtx-stream); set-up is charged to the request that triggers it"),
    "request_p90_ms": ("end-to-end", "as request_p50_ms at p90 (the set-up-carrying population)"),
    "peak_rss_mib": ("end-to-end", "peak resident memory of the workload process, input generation included"),
    "sparse.mm_read_s": ("sparse", "setup_s, request_p50_ms, request_p90_ms on mtx-stream; elsewhere a probe read of a <=1M-nnz row slice"),
    "sparse.mm_read_mb_per_s": ("sparse", "same as sparse.mm_read_s"),
    "tuner.fingerprint_s": ("tuner", "request_p50_ms on mtx-stream (one fingerprint per tune call, probe-timed)"),
    "tuner.plan_hit_s": ("tuner", "request_p50_ms on mtx-stream; elsewhere one re-tune probe on the rep's cache"),
    "tuner.plan_cache_hit_ratio": ("tuner", "request_p50_ms on mtx-stream (base: tune calls of the traced pass; 0 where every pass starts cold)"),
    "tuner.plan_miss_s": ("tuner", "setup_s on poisson27-cg and webgraph-ppr4, request_p90_ms on mtx-stream"),
    "tuner.evaluate.bounds_s": ("tuner", "as tuner.plan_miss_s (Evaluation phase 'bounds', summed over misses)"),
    "features.extract_s": ("features", "as tuner.plan_miss_s (Evaluation phase 'features')"),
    "sim.simulate_s": ("sim", "as tuner.plan_miss_s (Evaluation phase 'simulate')"),
    "sim.configs_simulated": ("sim", "as tuner.plan_miss_s (Evaluation::perf.size() of the largest matrix, exact)"),
    "kernels.prepare_s": ("kernels", "setup_s on all workloads (PlanCache::prepare wall time)"),
    "kernels.prep_inner_s": ("kernels", "setup_s on all workloads (PreparedSpmv::prep_seconds())"),
    "kernels.config": ("kernels", "solve_s (bit id of the largest matrix's KernelConfig; an identifier, direction meaningless)"),
    "kernels.matrix_bytes": ("kernels", "solve_s (computed bytes_per_run(k) of the largest matrix)"),
    "kernels.spmv_ms": ("kernels", "solve_s on poisson27-cg (median one-shot run at the workload's width)"),
    "kernels.spmv_gbps": ("kernels", "solve_s on poisson27-cg (computed bytes / kernels.spmv_ms)"),
    "kernels.stream_frac": ("kernels", "solve_s on poisson27-cg (kernels.spmv_gbps / machine.stream_gbs)"),
    "kernels.spmv_ms_1t": ("kernels", "solve_s on poisson27-cg (same plan prepared for 1 thread)"),
    "kernels.thread_speedup": ("kernels", "solve_s on poisson27-cg (spmv_ms_1t / spmv_ms)"),
    "kernels.spmm4_vs_4spmv": ("kernels", "solve_s on webgraph-ppr4 (4 width-1 runs / one width-4 run)"),
    "vendor.spmv_ms": ("vendor", "solve_s (vendor_csr_host, width 1)"),
    "kernels.speedup_vs_vendor": ("kernels", "solve_s (vendor.spmv_ms / tuned width-1 run)"),
    "tuner.break_even_iters": ("tuner", "setup_s vs solve_s: (plan + prepare) / (vendor - tuned) per SpMV; -1 = never"),
    "engine.iters": ("engine", "solve_s on poisson27-cg and mtx-stream (exact per thread count)"),
    "engine.iter_ms": ("engine", "solve_s on poisson27-cg and mtx-stream"),
    "engine.gflops": ("engine", "solve_s on poisson27-cg and mtx-stream (SpMV flops / solve time)"),
    "engine.non_spmv_ms": ("engine", "solve_s on poisson27-cg and mtx-stream (iter_ms - one-shot spmv time: BLAS-1, barriers, fork/join)"),
    "machine.stream_gbs": ("machine", "ceiling for kernels.stream_frac (triad, each array 4x L3)"),
    "machine.lib_probe_main_gbs": ("machine", "max - min of 5 stream_triad_probe() main_gbs: the cause of the host_machine(true) plan flip"),
    "check.max_rel_residual": ("check", "correctness: max true residual / PPR residual / one-shot error"),
    "obs.trace_overhead_frac": ("obs", "traced vs untraced time_to_solution_s"),
    "fail_frac": ("check", "failed / attempted checks of the traced run (also the JSON failed/attempted of every run)"),
}


# Workloads the binary runs that BENCHMARK.json does not gate. mtx-stream's
# short fork/join-bound solves spread solve_s by 0.33 (IQR / median) over ten
# seeds on a 4-vCPU shared host, above any allowed bound.
UNGATED = {
    "mtx-stream": "32 .mtx matrices <=0.83M nnz (90 MB CSR, 0.29x L3; population seed 42), "
                  "100 requests, 2/3 plan-cache hits: set-up-bound reader/fingerprint/cache path; "
                  "plan csr:16,csr+delta+vec:13,csr+sym:3",
}


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"run.py: {path.name} not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e_bench"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: library sources (src/) not found; cannot build the benchmark")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / "e2e_bench"


def expected_plan(spec, workload):
    """The plan recorded at the end of the workload's "why"."""
    whys = dict(UNGATED, **{w["name"]: w["why"] for w in spec["workloads"]})
    if workload not in whys:
        sys.exit(f"run.py: unknown workload '{workload}'")
    m = re.search(r"plan (\S+)\s*$", whys[workload])
    return m.group(1) if m else ""


def run_once(binary, spec, workload, seed, seconds, trace, threads):
    """Runs one workload; returns (exit code, info lines, parsed JSON or None)."""
    work = build_dir() / "work"
    env = {k: v for k, v in os.environ.items() if k != "SPARTA_TELEMETRY"}
    env["OMP_NUM_THREADS"] = str(threads)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--threads", str(threads), "--work-dir", str(work),
           "--expect-plan", expected_plan(spec, workload)]
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [f"# run.py: {workload} timed out after {RUN_TIMEOUT_S} s"], None
    lines = res.stdout.strip().splitlines()
    if res.stderr:
        sys.stderr.write(res.stderr)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return res.returncode, lines, result


def check_metrics(spec, result, trace):
    """The metric names and units must be exactly the BENCHMARK.json set."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return want == got


def cmd_run(args):
    spec = load_spec()
    binary = build()
    threads = max(1, min(args.threads, os.cpu_count() or 1))
    code, lines, result = run_once(binary, spec, args.workload, args.seed, args.seconds, args.trace, threads)
    for line in lines:
        print(line)
    print(f"# run.py: threads {threads}, exit {code}")
    if result is None:
        print("# run.py: no result line", flush=True)
        return 1
    if not check_metrics(spec, result, args.trace):
        print("# run.py: metric set differs from BENCHMARK.json", flush=True)
        code = code or 1
    print(json.dumps(result), flush=True)
    return code


def cmd_list(_args):
    spec = load_spec()
    print(f"{'metric':30} {'unit':8} {'kind':10} {'layer':10} moves / meaning")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            layer, moves = CATALOG.get(m["name"], ("?", "?"))
            print(f"{m['name']:30} {m['unit']:8} {kind:10} {layer:10} {moves}")
    print()
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for name, why in UNGATED.items():
        print(f"workload {name} (not gated): {why}")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_aa(args):
    spec = load_spec()
    binary = build()
    threads = max(1, min(args.threads, os.cpu_count() or 1))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    report = {}
    ok = True
    for name in names:
        sets = {"A": {m["name"]: [] for m in metrics}, "B": {m["name"]: [] for m in metrics}}
        for i in range(args.runs):
            seed = args.seed0 + i
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                t0 = time.time()
                code, _lines, result = run_once(binary, spec, name, seed, seconds, 0, threads)
                if code != 0 or result is None or not result["correct"]:
                    print(f"{name} set {side} seed {seed}: run failed (exit {code})", flush=True)
                    return 1
                for m in metrics:
                    sets[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{name} set {side} seed {seed}: {time.time() - t0:.1f} s", flush=True)
        report[name] = {}
        for m in metrics:
            a, b = sets["A"][m["name"]], sets["B"][m["name"]]
            qa, qb = quartiles(a), quartiles(b)
            spread = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            worse = (qb[1] - qa[1]) / qa[1] * (1 if m["better"] == "lower" else -1)
            if max(spread) > m["bound"]:
                verdict = "unresolved"
            elif abs(worse) <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "disagree"
            ok = ok and verdict == "agree"
            report[name][m["name"]] = {"A": {"q1": qa[0], "median": qa[1], "q3": qa[2], "values": a},
                                       "B": {"q1": qb[0], "median": qb[1], "q3": qb[2], "values": b},
                                       "spread": spread, "change": worse, "bound": m["bound"],
                                       "verdict": verdict}
            print(f"{name:14} {m['name']:20} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  spread {max(spread):.3f}  "
                  f"change {worse:+.3f}  bound {m['bound']}  {verdict}", flush=True)
    out = build_dir() / "aa_report.json"
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"report written to {out}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--list", action="store_true")
    p.add_argument("--aa", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()
    if args.list:
        return cmd_list(args)
    if args.aa:
        return cmd_aa(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
