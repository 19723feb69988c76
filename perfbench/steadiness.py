#!/usr/bin/env python3
"""Steadiness report: run each workload N times, each with its own seed,
and give every end-to-end metric's median, quartiles and spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
        [--first-seed 101] [--seconds S] [--report perfbench/STEADINESS.md]

Runs are interleaved across workloads (seed i of every workload, then
seed i + 1, ...), so each workload's runs span the whole measurement.  The
spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4) over one set; it is compared with the
metric's bound from BENCHMARK.json.  With --sets 2 a second set of runs
(fresh seeds) is made and each median compared with the first set's.
Each workload also gets one traced run, whose span coverage, tracing
overhead and per-layer metrics are listed.  Before every run a fixed
pure-Python loop is timed (the "host probe"): its spread shows how much
the host's own speed moved meanwhile.  Without --report the tables
are only printed; with it the raw results are kept as JSON beside it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Drift of the previous benchmark definition between two sets of runs of the
# same program code (first median -> second median).
PREVIOUS_DRIFT = {
    ("large_trace", "setup_s"): "1.66 -> 1.45 s (12%)",
    ("large_trace", "ops_per_s"): "5.9 -> 6.4 (8%)",
    ("large_trace", "op_p50_ms"): "7%",
    ("service", "setup_s"): "46 -> 43 ms (8%)",
}

# Per-layer counts that must read 0 on the workload that measures them.
ZERO_EXPECTED = {
    "sweep": ("runner.failed_cells",),
    "large_trace": ("diff.deltas",),
    "service": ("service.coalesced_waits", "service.shed", "service.errors",
                "service.deadline_expired"),
}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def host_probe():
    """Seconds one core takes for a fixed loop: median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    lines = out.stdout.strip().split("\n")
    ctx = json.loads(lines[0])["context"]
    info = json.loads(lines[-2])["info"]
    return ctx, info, json.loads(lines[-1])


def values(results, name):
    return [r["result"]["metrics"][name]["value"] for r in results]


def render(spec, sets, traced, context):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    first = sets[0]
    out = ["# perfbench steadiness report", "",
           "Generated by `python3 perfbench/steadiness.py`; do not edit by hand.",
           "",
           f"Host: {context['cores']} cores, {context['build_type']} build, "
           f"{context['compiler']}, commit `{context['commit']}`, "
           f"{spec['run_seconds']} s per run, runs interleaved across workloads.",
           ""]
    for workload, results in first.items():
        seeds = [r["seed"] for r in results]
        ok = all(r["result"]["correct"] and r["result"]["failed"] == 0
                 for s in sets for r in s[workload])
        ops = sum(r["result"]["attempted"] for s in sets for r in s[workload])
        out += [f"## {workload}", "",
                f"Set 1: {len(results)} runs, seeds {seeds[0]}..{seeds[-1]}. "
                f"Over all {len(sets)} set(s): {ops} ops attempted, every "
                f"output correct and no failed op: {'yes' if ok else 'NO'}.",
                "",
                "| metric | unit | median | Q1 | Q3 | spread | bound | spread / bound |"
                + (" set 2 median | drift |" if len(sets) > 1 else ""),
                "|---|---|---|---|---|---|---|---|" + ("---|---|" if len(sets) > 1 else "")]
        for name in bounds:
            med, q1, q3, sp = spread(values(results, name))
            row = (f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | "
                   f"{q3:.6g} | {100 * sp:.2f}% | {100 * bounds[name]:.0f}% | "
                   f"{sp / bounds[name]:.2f} |")
            if len(sets) > 1:
                med2 = statistics.median(values(sets[1][workload], name))
                row += f" {med2:.6g} | {100 * (med2 / med - 1):+.2f}% |"
            out.append(row)
        probe = [r["host_probe_s"] for r in results]
        med, q1, q3, sp = spread(probe)
        out.append(f"| host probe (not a metric) | s | {med:.6g} | {q1:.6g} | "
                   f"{q3:.6g} | {100 * sp:.2f}% | - | - |"
                   + (" - | - |" if len(sets) > 1 else ""))
        tails = sorted({r["info"]["op_tail_percentile"] for r in results})
        samples = [r["info"]["op_samples"] for r in results]
        out += ["", f"op_tail_ms is the p{'/p'.join(f'{t:g}' for t in tails)} "
                f"latency; ops per run {min(samples)}..{max(samples)}.", ""]
    out += ["## Against the previous definition's offenders", "",
            "The previous benchmark definition drifted on these metrics "
            "between two sets of runs of the same code. "
            "Here the spread is the quartile distance over set 1"
            + (" and the drift is set 2's median against set 1's." if len(sets) > 1 else "."),
            "",
            "| workload/metric | previous drift | spread here | drift here | bound |",
            "|---|---|---|---|---|"]
    offenders = list(PREVIOUS_DRIFT) + [("large_trace", n) for n in
                                        ("events_per_s", "op_tail_ms", "peak_rss_mb")]
    for workload, name in offenders:
        if workload not in first:
            continue
        med, _, _, sp = spread(values(first[workload], name))
        drift = "-"
        if len(sets) > 1:
            drift = f"{100 * (statistics.median(values(sets[1][workload], name)) / med - 1):+.2f}%"
        out.append(f"| {workload}/{name} | {PREVIOUS_DRIFT.get((workload, name), '-')} | "
                   f"{100 * sp:.2f}% | {drift} | {100 * bounds[name]:.0f}% |")
    if traced:
        out += ["", "## Traced runs", "",
                "One `--trace 1` run per workload: half the time untraced, half traced. "
                "Coverage is the share of op wall time inside child spans; "
                "overhead is untraced ops/s over traced ops/s, minus one. "
                "Per-layer metrics of layers a workload does not call (they "
                "read 0) are left out.", ""]
        for workload, r in traced.items():
            m = r["result"]["metrics"]
            out += [f"### {workload} (seed {r['seed']}, correct: "
                    f"{'yes' if r['result']['correct'] else 'NO'})", "",
                    "| metric | value | unit |", "|---|---|---|"]
            for name, v in m.items():
                if v["value"] != 0 or name in ZERO_EXPECTED.get(workload, ()):
                    out.append(f"| {name} | {v['value']:.6g} | {v['unit']} |")
            out.append("")
    return "\n".join(out) + "\n"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--report", help="write the Markdown report here")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    sets, context = [], None
    seed = args.first_seed
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        for _ in range(args.runs):
            for workload in workloads:
                probe = host_probe()
                context, info, result = run_once(workload, seed, args.seconds)
                runs[workload].append({"seed": seed, "info": info, "result": result,
                                       "host_probe_s": probe})
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)
            seed += 1
        sets.append(runs)
    traced = {}
    for workload in workloads:
        _, info, result = run_once(workload, seed, args.seconds, trace=1)
        traced[workload] = {"seed": seed, "info": info, "result": result}
    text = render(spec, sets, traced, context)
    print(text)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text)
        with open(os.path.splitext(args.report)[0] + ".json", "w") as f:
            json.dump({"context": context, "sets": sets, "traced": traced}, f,
                      indent=1)


if __name__ == "__main__":
    main()
