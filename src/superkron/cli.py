"""Command line front end: parse options, run suites, emit a report.

The structured output is a single JSON document with the invoking
configuration and one record per suite: {suite, samples, max_residual,
worst_inputs, pass, seconds, redraws}, redraws counting the samples drawn
again because they fell inside the pole radius.  Worst-case inputs are
serialized so a failing sample can be replayed exactly.  The document is
strict JSON: an infinite max_residual (run_suite reports a NaN residual as
infinity) is written as the string "inf".  The process exits 0 if every
selected suite passed, 1 if a residual exceeded the tolerance, and 2 for an
invalid configuration, including a pole radius that leaves no pole-free
sample, a modulus at which the series cannot be summed or whose real part
is so large that tau + 1 rounds to tau, a value that
overflows the floating-point range, an --out path that cannot be written,
and a run that runs out of memory (a 3-site operator holds n**4 entries per
Grassmann monomial).  A reader that closes stdout early (verify ... | head)
does not change the exit code.  A process that the operating system's
out-of-memory killer ends cannot be caught, and exits with no code of its
own.

--kind selects the kernel family of the fay suite only.  Every other suite
but degenerations always runs the elliptic kernel, and degenerations runs
both degenerate kinds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .elliptic import KINDS, SeriesTruncationError
from .suites import (
    OUTPUT_CHOICES,
    SUITE_NAMES,
    SamplingError,
    SuiteReport,
    VerifyConfig,
    run_suites,
)

__all__ = ["build_parser", "config_from_args", "emit_report", "main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Verify lattice kernel and operator identities on random samples.",
    )
    p.add_argument("suite", choices=SUITE_NAMES + ("all",), help="suite to run")
    p.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    p.add_argument("--tau-re", type=float, default=0.3, help="real part of the modulus")
    p.add_argument("--tau-im", type=float, default=1.1, help="imaginary part of the modulus")
    p.add_argument("--samples", type=int, default=200, help="random samples per suite")
    p.add_argument("--tol", type=float, default=1e-9, help="relative residual tolerance")
    p.add_argument("--seed", type=int, default=42, help="seed for deterministic sampling")
    p.add_argument("--pole-radius", type=float, default=1e-3, help="pole exclusion radius")
    p.add_argument(
        "--kind",
        choices=KINDS,
        default="elliptic",
        help="kernel family of the fay suite (the others ignore it; "
        "degenerations runs both degenerate kinds)",
    )
    p.add_argument(
        "--truncated",
        action="store_true",
        help="use the three-term odd function (odd parameter dropped) where applicable",
    )
    p.add_argument("--output", choices=OUTPUT_CHOICES, default="text", help="report format")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    return p


def config_from_args(args: argparse.Namespace) -> VerifyConfig:
    return VerifyConfig(
        n=args.n,
        tau=complex(args.tau_re, args.tau_im),
        samples=args.samples,
        tol_relative=args.tol,
        seed=args.seed,
        pole_radius=args.pole_radius,
        suites=(args.suite,),
        kind=args.kind,
        output=args.output,
        truncated=args.truncated,
    )


def _config_dict(cfg: VerifyConfig) -> dict:
    return dataclasses.asdict(cfg) | {"tau": [cfg.tau.real, cfg.tau.imag], "suites": list(cfg.selected())}


def emit_report(reports: list[SuiteReport], fmt: str = "text", cfg: VerifyConfig | None = None) -> str:
    if fmt == "structured":
        doc = {"reports": [r.to_dict() for r in reports]}
        if cfg is not None:
            doc["config"] = _config_dict(cfg)
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"{'suite':<14} {'samples':>7} {'max residual':>14} {'result':>7} {'seconds':>9}"]
    for r in reports:
        lines.append(
            f"{r.suite:<14} {r.samples:>7d} {r.max_residual:>14.3e} "
            f"{'PASS' if r.passed else 'FAIL':>7} {r.seconds:>8.2f}s"
        )
    failing = [r for r in reports if not r.passed]
    for r in failing:
        lines.append(f"worst inputs for {r.suite}: {json.dumps(r.worst_inputs, sort_keys=True)}")
    if reports:
        lines.append("all suites passed" if not failing else f"{len(failing)} suite(s) failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        reports = run_suites(cfg)
    except (SamplingError, SeriesTruncationError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"invalid configuration: out of memory at --n {cfg.n}; try a smaller --n", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"invalid configuration: floating-point overflow at tau={cfg.tau} ({exc})", file=sys.stderr)
        return 2
    doc = emit_report(reports, cfg.output, cfg)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except OSError as exc:
            print(f"invalid configuration: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        try:
            print(doc)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (verify ... | head): point stdout at
            # devnull so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
