#!/usr/bin/env python3
"""Steadiness check for the wire benchmark.

Runs each workload once per seed 1..N, each run lasting BENCHMARK.json's
run_seconds, and reports, for every end-to-end metric, the per-run
values, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json and a
third of it:

    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json \
        --md perfbench/STEADINESS.md
    python3 perfbench/steady.py --workloads legacy_mining --seeds 5

With --baseline FILE (an earlier --out record of the same code) the
record also carries that first set and, per metric, how much worse the
second set's median reads than the first's, against the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", help="write the record as JSON")
    ap.add_argument("--md", help="write the record as a markdown table")
    ap.add_argument("--baseline", help="an earlier --out record to compare with")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for w in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(w, seed, seconds, 0)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect run")
            runs.append(res["metrics"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                flush=True)
        summary = {}
        for name in runs[0]:
            s = summarize([r[name]["value"] for r in runs])
            s["bound"] = bounds[name]
            summary[name] = s
            flag = ""
            if s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {w}/{name}: median {s['median']:.4g} "
                  f"Q1 {s['q1']:.4g} Q3 {s['q3']:.4g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}",
                  flush=True)
        report["workloads"][w] = summary
    if args.baseline:
        with open(args.baseline) as f:
            first = json.load(f)
        report["first_set"] = first["workloads"]
        report["median_shift"] = shifts(first["workloads"], report["workloads"],
                                        bounds, better)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if args.md:
        with open(args.md, "w") as f:
            f.write(markdown(report, args))


def shifts(first, second, bounds, better):
    """Per workload and metric: the share by which the second set's
    median is worse than the first's (negative when better)."""
    out = {}
    for w, metrics in second.items():
        if w not in first:
            continue
        out[w] = {}
        for name, s in metrics.items():
            m1, m2 = first[w][name]["median"], s["median"]
            worse = 0.0 if m1 == 0 else (
                (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1)
            out[w][name] = {"first": m1, "second": m2, "worse_by": worse,
                            "bound": bounds[name], "ok": worse <= bounds[name]}
    return out


# The two metrics most exposed to closed-loop scheduling noise on a
# shared two-core host; the record names them first.
CALLED_OUT = [("virt_interactive", "throughput_qps"),
              ("virt_interactive", "read_p95_ms")]


def markdown(report, args):
    seeds = f"1..{args.seeds}"
    lines = ["# Steadiness record of the wire benchmark", "",
             f"Each workload ran once per seed {seeds}, "
             f"{report['run_seconds']} s per run, with "
             "`python3 perfbench/steady.py`. Spread is (Q3 - Q1) / median "
             "of the per-run values, quartiles by "
             "`statistics.quantiles(values, n=4)`. The bound is the one in "
             "BENCHMARK.json; the target is a spread under a third of it.", ""]
    ws = report["workloads"]
    called = [(w, m) for w, m in CALLED_OUT if w in ws and m in ws[w]]
    if called:
        lines.append("Called out:")
        lines.append("")
        for w, m in called:
            s = ws[w][m]
            lines.append(f"- `{w}/{m}`: median {s['median']:.4g}, "
                         f"Q1 {s['q1']:.4g}, Q3 {s['q3']:.4g}, spread "
                         f"{s['spread']:.3f} against a bound of {s['bound']}.")
        lines.append("")
    if "median_shift" in report:
        lines += ["## Second set against the first", "",
                  "Both sets ran the same code with the same seeds, one "
                  "after the other. `worse by` is the share by which the "
                  "second median reads worse than the first (negative: "
                  "better).", "",
                  "| workload | metric | first median | second median | worse by | bound | within |",
                  "|---|---|---|---|---|---|---|"]
        for w, metrics in report["median_shift"].items():
            for name, d in metrics.items():
                lines.append(f"| {w} | {name} | {d['first']:.4g} | {d['second']:.4g} "
                             f"| {d['worse_by']:+.3f} | {d['bound']} | "
                             f"{'yes' if d['ok'] else 'no'} |")
        lines.append("")
    sets = [("", ws)]
    if "first_set" in report:
        sets = [(" (second set)", ws), (" (first set)", report["first_set"])]
    for label, group in sets:
        lines += table_lines(group, label)
    return "\n".join(lines)


def table_lines(ws, label):
    lines = []
    for w, metrics in ws.items():
        lines += [f"## {w}{label}", "",
                  "| metric | per-run values | Q1 | median | Q3 | spread | bound | under a third |",
                  "|---|---|---|---|---|---|---|---|"]
        for name, s in metrics.items():
            vals = " ".join(f"{v:.4g}" for v in s["values"])
            ok = "yes" if s["spread"] <= s["bound"] / 3 else "no"
            lines.append(f"| {name} | {vals} | {s['q1']:.4g} | {s['median']:.4g} "
                         f"| {s['q3']:.4g} | {s['spread']:.3f} | {s['bound']} | {ok} |")
        lines.append("")
    return lines


if __name__ == "__main__":
    main()
