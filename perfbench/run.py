"""Verification benchmark for superkron: verified samples per second, latency, set-up.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graded-n2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 is the timed run; it reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 is the separate traced run over a fixed sample
set; it reports the per-layer metrics.  --workload all runs both for every
workload, each in its own process, and prints every metric.  The last line
of output is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import env
from bench import timed_run, traced_run
from workloads import PANEL_SEED, WORKLOADS

HERE = Path(__file__).resolve()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--cycles", type=int, default=None,
        help="schedule cycles in the traced run (default: the workload's own)",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.cycles is not None and args.cycles < 1):
        p.error("seed must be non-negative, seconds and cycles positive")
    return args


def load_spec() -> dict:
    path = env.ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def final_line(correct: bool, attempted: int, failed: int, values: dict, specs: list) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def print_header(wl, args, mode: str) -> None:
    # after the run: describe() imports numpy, which set-up timing must not find loaded
    info = env.describe()
    threads = ",".join(f"{k}={v}" for k, v in info["threads"].items())
    shares = ", ".join(
        f"{wl.job_label(i)} x{wl.schedule.count(i)}" for i in sorted(set(wl.schedule))
    )
    print(f"perfbench workload={wl.name} seed={args.seed} run={mode}")
    print(
        f"env python={info['python']} numpy={info['numpy']} nproc={info['nproc']} "
        f"commit={info['commit']} threads={threads}"
    )
    print(f"load: closed loop, one process, one client; schedule per cycle: {shares}")


def print_checks(ledger, replays) -> None:
    kinds = dict(ledger.failures) or "none"
    print(f"samples: {ledger.attempted} attempted, {ledger.failed} failed; failures by kind: {kinds}")
    for label, r, again, exact in replays:
        verdict = "bit-exact" if exact else f"MISMATCH (replayed {again!r})"
        print(f"replay {label}: max_residual {r!r} {verdict}")


def print_panel(wl, panel) -> None:
    probes = ", ".join(
        f"{wl.job_label(i)} x{wl.probe.count(i)}" for i in sorted(set(wl.probe))) or "none"
    kinds = dict(panel.failures) or "none"
    print(f"residual panel, fixed seed {PANEL_SEED}: {panel.attempted} samples, "
          f"{panel.failed} failed; failures by kind: {kinds}; "
          f"probe jobs per cycle, run in the panel only: {probes}")


def run_timed(wl, args, spec) -> str:
    res = timed_run(wl, args.seed, args.seconds)
    print_header(wl, args, f"timed {args.seconds:g}s")
    ledger, values = res["ledger"], res["metrics"]
    print_checks(ledger, res["replays"])
    print("setup_s repeats, raw/scaled (s): "
          + ", ".join(f"{raw:.4f}/{scaled:.4f}" for raw, scaled in res["setups"]))
    print("raw, unscaled by host speed: "
          + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    print_panel(wl, res["panel"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "1"
    for name, value in values.items():
        print(f"  {name:<18} {value:>16.6g} {units[name]}")
    correct = ledger.attempted > 0 and all(exact for *_, exact in res["replays"])
    return final_line(correct, ledger.attempted, ledger.failed, values, spec["end_to_end"])


def run_traced(wl, args, spec) -> str:
    res = traced_run(wl, args.seed, args.cycles or wl.trace_cycles)
    print_header(wl, args, "traced")
    ledger, values, tracer = res["traced"], res["metrics"], res["tracer"]
    print_checks(ledger, res["replays"])
    print_panel(wl, res["panel"])
    print(f"traced residuals equal untraced: {res['same_residuals']}; "
          f"structured report round trip: {res['round_trip']}")
    total = sum(tracer.self_s.values())
    layers: dict = {}
    for name, s in tracer.self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s
    print("self time by layer: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:5]
    print("top self time: " + ", ".join(f"{k} {v:.4f}s ({v / total:.1%})" for k, v in top))
    print(f"spans kept: {len(tracer.spans)} of {sum(tracer.calls.values())}")
    print("trace-samples " + json.dumps(
        [[wl.job_label(j), s, r if isinstance(r, str) else r.hex()] for j, s, r in ledger.records]))
    for m in spec["per_layer"]:
        print(f"  {m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}")
    correct = (
        ledger.attempted > 0
        and res["same_residuals"]
        and res["round_trip"]
        and all(exact for *_, exact in res["replays"])
    )
    return final_line(correct, ledger.attempted, ledger.failed, values, spec["per_layer"])


def run_all(args, spec) -> str:
    """Every workload, timed then traced, each run in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            doc = json.loads(out.strip().splitlines()[-1])
            correct &= doc["correct"]
            attempted += doc["attempted"]
            failed += doc["failed"]
            print(f"== {name} {'traced' if trace else 'timed'}: "
                  f"{doc['attempted']} samples, {doc['failed']} failed, correct={doc['correct']}")
            if not trace:
                doc["metrics"]["failed_frac"] = {
                    "value": doc["failed"] / doc["attempted"], "unit": "1"}
            for metric, v in doc["metrics"].items():
                print(f"  {metric:<36} {v['value']:>16.6g} {v['unit']}")
                metrics[f"{name}/{metric}"] = v
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv=None) -> None:
    args = parse_args(argv)
    env.pin_threads()
    env.use_checkout_source()
    spec = load_spec()
    if args.workload == "all":
        line = run_all(args, spec)
    elif args.trace:
        line = run_traced(WORKLOADS[args.workload], args, spec)
    else:
        line = run_timed(WORKLOADS[args.workload], args, spec)
    print(line, flush=True)


if __name__ == "__main__":
    main()
