"""Print every benchmark metric by name and unit, workload by workload.

Usage (from the root of a checkout)::

    python3 perfbench/report.py                  # latest results on disk
    python3 perfbench/report.py --run --seed 7   # run every workload first

For each workload the end-to-end row (the latest untraced run) is
printed next to its layer breakdown (the latest traced run), and the
simulated I-SPY metrics are set against the paper's Fig. 10 numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Optional

import checkout

#: the paper's Fig. 10 means (MICRO 2020); its "over AsmDB" is the
#: mean relative gain of I-SPY's speedup over AsmDB's, ours the ratio
#: of the mean speedups
PAPER = {
    "ispy_speedup": ("+37.7% mean speedup", 0.377),
    "ispy_pct_of_ideal": ("74.3% of ideal", 0.743),
    "ispy_over_asmdb": ("+12.7% over AsmDB", 0.127),
}

#: per-layer metrics whose 0 is a result, not "the layer did no work"
ZERO_IS_A_VALUE = {"failed_frac"}

CAVEATS = (
    "Simulated metrics come from the repository's trace-driven model,\n"
    "which has not been validated against hardware.  Its statistics\n"
    "start after each replay's warm-up window (the workload's\n"
    "'warmup' blocks), and the workloads run at reduced scale, so the\n"
    "gap to the paper is expected and is not a regression by itself."
)


def latest(workload: str, trace: int) -> Optional[dict]:
    found = [
        json.loads(path.read_text())
        for path in checkout.RESULTS.glob(f"{workload}-trace{trace}-seed*.json")
    ]
    return max(found, key=lambda r: r["finished_at"]) if found else None


def fmt(value: float, name: str = "") -> str:
    if value == 0:
        return "0" if name in ZERO_IS_A_VALUE else "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def paper_gap(name: str, value: float) -> Optional[str]:
    if name not in PAPER or value == 0:
        return None
    label, paper = PAPER[name]
    if name == "ispy_pct_of_ideal":
        ours, shown = value, f"{value:.1%} of ideal"
    else:
        ours = value - 1.0
        shown = f"{ours:+.1%}"
    return (f"{name}: {shown} here vs paper {label}; "
            f"gap to the paper {100 * (ours - paper):+.1f} points")


def left_column(result: Optional[dict], units: Dict[str, str]) -> List[str]:
    if result is None:
        return ["(no untraced run)"]
    lines = [f"end to end (seed {result['seed']}, {result['iterations']} "
             f"iterations; calibrated, raw = uncalibrated)"]
    for name, metric in result["metrics"].items():
        line = f"  {name:<18} {fmt(metric['value']):>10} {units[name]}"
        sample = result["samples"].get(name)
        if sample:
            line += (f"  n={sample['n']} q1..q3 {sample['q1']:.3g}..{sample['q3']:.3g}"
                     f" raw {result['samples'][name + '.raw']['median']:.3g}")
        lines.append(line)
    lines.append(f"  attempted {result['attempted']}, failed {result['failed']}")
    return lines


def right_column(result: Optional[dict], units: Dict[str, str]) -> List[str]:
    if result is None:
        return ["(no traced run)"]
    lines = [f"layer breakdown (traced, seed {result['seed']}; '-' = no work)"]
    layer = None
    for name, metric in result["metrics"].items():
        head = name.split(".")[0] if "." in name else "run"
        if head != layer:
            layer = head
            lines.append(f"  [{layer}]")
        lines.append(
            f"    {name:<36} {fmt(metric['value'], name):>10} {units[name]}"
        )
    return lines


def report(spec: dict) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = 0
    for workload in spec["workloads"]:
        plain = latest(workload["name"], 0)
        traced = latest(workload["name"], 1)
        if plain is None and traced is None:
            continue
        printed += 1
        any_run = plain or traced
        host = any_run["host"]
        print(f"=== {workload['name']}: {workload['why']}")
        print(f"    host: {host['cpu_model']}, {host['nproc']} CPUs, "
              f"Python {host['python']}, NumPy {host['numpy']}, "
              f"kernel {'on' if host['numpy_kernel'] else 'off'}, "
              f"load {host['loadavg_at_start'][0]:.2f} at start")
        print(f"    inputs: {any_run['seed_note']}")
        left = left_column(plain, units)
        right = right_column(traced, units)
        width = max(len(line) for line in left) + 3
        for index in range(max(len(left), len(right))):
            a = left[index] if index < len(left) else ""
            b = right[index] if index < len(right) else ""
            print(f"{a:<{width}}{b}".rstrip())
        values = {}
        for result in (plain, traced):
            if result is not None:
                values.update({k: v["value"] for k, v in result["metrics"].items()})
        gaps = [paper_gap(name, values.get(name, 0.0)) for name in PAPER]
        for gap in filter(None, gaps):
            print(f"  {gap}")
        for kind in ("problems", "notes"):
            seen = {}  # ordered and without the repeats of the other run
            for result in (plain, traced):
                seen.update(dict.fromkeys((result or {}).get(kind, [])))
            label = "FAILED" if kind == "problems" else "note"
            for line in seen:
                print(f"  {label}: {line}")
        print()
    if not printed:
        print("no results yet; run with --run or use perfbench/run.py")
        return 1
    print(CAVEATS)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run", action="store_true",
                        help="run every workload (untraced and traced) first")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.run:
        seconds = spec["run_seconds"]
        for workload in spec["workloads"]:
            for trace in (0, 1):
                command = [sys.executable, *spec["command"][1:],
                           "--workload", workload["name"], "--seed", str(args.seed),
                           "--seconds", str(seconds), "--trace", str(trace)]
                done = subprocess.run(command, cwd=checkout.ROOT,
                                      stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    print(f"{workload['name']} trace={trace} exited "
                          f"{done.returncode}", file=sys.stderr)
                    return done.returncode
    return report(spec)


if __name__ == "__main__":
    sys.exit(main())
