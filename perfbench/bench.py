"""Timed and traced runs of one workload.

Each operation is one verified sample, issued by a closed loop from one
client: the next sample starts when the previous one has returned.  A
sample fails when run_suites raises, when its verdict is FAIL, or when its
residual is not a finite non-negative number.  Every failure is counted
against the samples attempted and the run continues.

Nothing here imports numpy or superkron at module level, so that set-up
timing starts cold.
"""

from __future__ import annotations

import collections
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from env import check_code_under_test
from layers import ROOT, Tracer
from speed import EVERY_S, Speedometer
from workloads import PANEL_SEED, Workload, seed_stream

ULP = 2.0**-52
SETUP_REPEATS = 9
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def import_suites():
    suites = importlib.import_module("superkron.suites")
    check_code_under_test(importlib.import_module("superkron"))
    return suites


def verify(suites, job: dict, seed: int):
    """One operation: build the config and verify one sample of one suite."""
    cfg = suites.VerifyConfig(samples=1, seed=seed, **job)
    return cfg, suites.run_suites(cfg)[0]


def attempt(call, *args):
    """call(*args), or the exception it raised: a failed sample, and the run goes on."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def failure_of(report) -> str | None:
    """Why a returned sample failed, or None if it passed."""
    r = report.max_residual
    # run_suite keeps max_residual at its -1 start value when a residual is NaN
    if not (r >= 0.0 and math.isfinite(r)):
        return "non-finite residual"
    if not report.passed:
        return "residual above tolerance"
    return None


# -- set-up ------------------------------------------------------------------


def cold_setup(wl: Workload, seeds) -> tuple:
    """Seconds to import superkron and verify one cold sample of every job.

    Returns the raw seconds and the seconds scaled to nominal host speed.
    """
    t0 = perf_counter()
    suites = import_suites()
    for job in wl.jobs:
        # a cold sample that fails still did its set-up work
        attempt(verify, suites, job, next(seeds))
    raw = perf_counter() - t0
    return raw, raw * Speedometer().scale_now()


def setup_times(wl: Workload, seed: int, first: tuple) -> list:
    """(raw, scaled) set-up seconds of this process and of fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(PROBE), wl.name, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        raw, scaled = out.stdout.split()[-2:]
        times.append((float(raw), float(scaled)))
    return times


# -- checks --------------------------------------------------------------------


class Ledger:
    """Per-sample outcomes, failures by kind, and each job's worst sample."""

    def __init__(self, wl: Workload, keep_records: bool) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: collections.Counter = collections.Counter()
        self.worst: dict = {}  # job index -> (residual, cfg, report)
        # (job index, seed, residual or error) per sample; the timed run keeps
        # none, so that its peak memory is the program's, not the benchmark's
        self.records: list | None = [] if keep_records else None

    def record(self, job_i: int, seed: int, result) -> None:
        """Account one sample; result is (cfg, report) or an exception."""
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.failures[type(result).__name__] += 1
            if self.records is not None:
                self.records.append((job_i, seed, type(result).__name__))
            return
        cfg, report = result
        r = report.max_residual
        if self.records is not None:
            self.records.append((job_i, seed, r))
        best = self.worst.get(job_i)
        if math.isfinite(r) and (best is None or r > best[0]):
            self.worst[job_i] = (r, cfg, report)
        why = failure_of(report)
        if why is not None:
            self.failed += 1
            self.failures[why] += 1

    def replay(self, suites) -> list:
        """Replay each job's worst sample; a mismatch is a failed sample."""
        out = []
        for job_i, (r, cfg, report) in sorted(self.worst.items()):
            again = attempt(suites.replay_sample, report.suite, report.worst_inputs, cfg)
            exact = isinstance(again, float) and again.hex() == r.hex()
            if not exact and failure_of(report) is None:
                self.failed += 1
                self.failures["replay mismatch"] += 1
            out.append((self.wl.job_label(job_i), r, again, exact))
        return out


def residual_panel(suites, wl: Workload) -> tuple:
    """Worst finite residual, in ulp, over the fixed panel, and its Ledger.

    Each panel cycle is the schedule followed by the workload's probe jobs,
    so the panel's failure count is the same on every run of the same code.
    """
    seeds = seed_stream(PANEL_SEED)
    panel = Ledger(wl, keep_records=False)
    for _ in range(wl.panel_cycles):
        for job_i in wl.schedule + wl.probe:
            s = next(seeds)
            panel.record(job_i, s, attempt(verify, suites, wl.jobs[job_i], s))
    worst = max((r for r, _, _ in panel.worst.values()), default=0.0)
    return worst / ULP, panel


# -- timed run -------------------------------------------------------------------


def timed_run(wl: Workload, seed: int, seconds: float) -> dict:
    seeds = seed_stream(seed)
    first_setup = cold_setup(wl, seeds)
    suites = import_suites()
    setups = setup_times(wl, seed, first_setup)

    ledger = Ledger(wl, keep_records=False)
    speed = Speedometer()
    starts, latencies = array("d"), array("d")
    schedule = wl.schedule
    start = next_mark = perf_counter()
    deadline = start + seconds
    i = 0
    while (now := perf_counter()) < deadline:
        if now >= next_mark:
            speed.mark(now)
            next_mark = now + EVERY_S
        job_i = schedule[i % len(schedule)]
        s = next(seeds)
        t0 = perf_counter()
        result = attempt(verify, suites, wl.jobs[job_i], s)
        latencies.append(perf_counter() - t0)
        starts.append(t0)
        ledger.record(job_i, s, result)
        i += 1
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    replays = ledger.replay(suites)
    residual_ulp, panel = residual_panel(suites, wl)
    scaled = [lat * speed.scale_at(t) for t, lat in zip(starts, latencies)]
    verified = ledger.attempted - ledger.failed
    return {
        "ledger": ledger,
        "replays": replays,
        "setups": setups,
        "panel": panel,
        "raw": _latency_metrics(latencies, verified, wall),
        "metrics": {
            **_latency_metrics(scaled, verified, sum(scaled)),
            "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
            "peak_rss_mb": peak_rss_mb,
            "residual_max_ulp": residual_ulp,
            "failed_frac": ledger.failed / ledger.attempted,
        },
    }


def _latency_metrics(latencies: list, verified: int, seconds: float) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "samples_per_s": verified / seconds,
        "sample_ms_p50": statistics.median(latencies) * 1e3,
        "sample_ms_p90": deciles[8] * 1e3,
    }


# -- traced run ------------------------------------------------------------------


def traced_run(wl: Workload, seed: int, cycles: int) -> dict:
    """Per-layer counts and self times over a fixed sample set.

    The samples are the first cycles * len(schedule) of the timed run, so
    every count repeats exactly for a seed.  Each schedule cycle runs once
    untraced and then once traced, so that host-speed drift falls on both
    alike; the wall-time ratio of the two is the tracing overhead.
    """
    seeds = seed_stream(seed)
    cold_setup(wl, seeds)
    suites = import_suites()
    cli = importlib.import_module("superkron.cli")
    cycle = len(wl.schedule)
    plan = [(job_i, next(seeds)) for _ in range(cycles) for job_i in wl.schedule]

    plain = Ledger(wl, keep_records=True)
    traced = Ledger(wl, keep_records=True)
    tracer = Tracer()
    per_suite = collections.defaultdict(list)
    reports = []
    untraced_wall = traced_wall = 0.0
    for first in range(0, len(plan), cycle):
        chunk = plan[first:first + cycle]
        start = perf_counter()
        for job_i, s in chunk:
            t0 = perf_counter()
            result = attempt(verify, suites, wl.jobs[job_i], s)
            per_suite[wl.jobs[job_i]["suites"][0]].append(perf_counter() - t0)
            plain.record(job_i, s, result)
        untraced_wall += perf_counter() - start
        with tracer:
            start = perf_counter()
            for k, (job_i, s) in enumerate(chunk, first):
                tracer.sample_id = k
                result = attempt(tracer.span, ROOT, verify, suites, wl.jobs[job_i], s)
                if not isinstance(result, Exception):
                    reports.append(result[1])
                traced.record(job_i, s, result)
            traced_wall += perf_counter() - start

    t0 = perf_counter()
    parsed = json.loads(cli.emit_report(reports, "structured"))["reports"]
    emit_s = perf_counter() - t0
    round_trip = [(d["suite"], d["max_residual"]) for d in parsed] == [
        (r.suite, r.max_residual) for r in reports
    ]

    metrics = tracer.layer_metrics()
    worst = collections.defaultdict(float)
    for job_i, _, r in traced.records:
        if isinstance(r, float) and math.isfinite(r):
            name = wl.jobs[job_i]["suites"][0]
            worst[name] = max(worst[name], r)
    for name in suites.SUITE_NAMES:
        times = per_suite.get(name)
        metrics[f"suites.{name}.ms_per_sample"] = statistics.fmean(times) * 1e3 if times else 0.0
        metrics[f"suites.{name}.max_residual"] = worst[name]
    metrics["cli.emit_report_s"] = emit_s
    panel = residual_panel(suites, wl)[1]
    metrics["checks.panel_failed"] = panel.failed
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {
        "traced": traced,
        "tracer": tracer,
        "metrics": metrics,
        "same_residuals": plain.records == traced.records,
        "round_trip": round_trip,
        "replays": traced.replay(suites),
        "panel": panel,
    }
