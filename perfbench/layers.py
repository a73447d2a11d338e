"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of each superkron module
with wrappers that open a span per call, and restores the originals on exit.
A function imported by name into another module (``from .elliptic import
phi_derivs``) is replaced in every namespace that holds it, so calls are
seen whichever module makes them.

Spans nest on a stack.  Each closed span adds its duration minus the time its
child spans covered to its boundary's self time.  Totals are aggregated as
spans close; only the most recent spans are kept as records, so memory stays
bounded however many calls a run makes.
"""

from __future__ import annotations

import collections
import functools
import importlib
from time import perf_counter

# (boundary name, module, qualified attribute).  One boundary may cover
# several functions.
BOUNDARIES = (
    ("grassmann.sign", "grassmann", "GeneratorSet.sign"),
    ("grassmann.mul", "grassmann", "GrassmannElement.__mul__"),
    ("elliptic.theta_stack", "elliptic", "theta_stack"),
    ("elliptic.phi_derivs", "elliptic", "phi_derivs"),
    ("elliptic.phi_tau_derivs", "elliptic", "phi_tau_derivs"),
    ("elliptic.degenerate", "elliptic", "phi_trig"),
    ("elliptic.degenerate", "elliptic", "phi_rat"),
    ("superfunc.assemble", "superfunc", "super_phi"),
    ("superfunc.assemble", "superfunc", "super_phi_truncated"),
    ("superfunc.assemble", "superfunc", "super_phi_degenerate"),
    ("superfunc.evaluate", "superfunc", "SuperFunction.evaluate"),
    ("superfunc.lmul", "superfunc", "SuperFunction.lmul"),
    ("superfunc.residual", "superfunc", "fay_residual"),
    ("superfunc.residual", "superfunc", "heat_residual"),
    ("superfunc.residual", "superfunc", "periodicity_residual"),
    ("rmatrix.channel", "rmatrix", "basis_phi"),
    ("rmatrix.channel", "rmatrix", "super_basis_phi"),
    ("rmatrix.build", "rmatrix", "build_R"),
    ("rmatrix.build", "rmatrix", "build_r_classical"),
    ("rmatrix.embed", "rmatrix", "embed"),
    ("rmatrix.matmul", "rmatrix", "SuperMatrix.__matmul__"),
    ("rmatrix.residual", "rmatrix", "aybe_residual"),
    ("rmatrix.residual", "rmatrix", "cybe_residual"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))
ROOT = "suites"
COUNTERS = (
    "grassmann.generator_sets.built",
    "elliptic.pole_errors",
    "rmatrix.matmul.block_products",
    "rmatrix.matmul.flops_computed",
)
# every namespace a public name may have been imported into
NAMESPACES = ("grassmann", "elliptic", "superfunc", "rmatrix", "suites", "cli")


class Tracer:
    """Span stack, per-boundary totals and a bounded record of recent spans."""

    def __init__(self, keep_spans: int = 20000) -> None:
        self.calls: collections.Counter = collections.Counter()
        self.self_s: collections.defaultdict = collections.defaultdict(float)
        self.counts: collections.Counter = collections.Counter()
        # closed spans: (span id, name, start, end, parent id, sample id)
        self.spans: collections.deque = collections.deque(maxlen=keep_spans)
        self.sample_id: int | None = None
        self._stack: list = []
        self._next_id = 0
        self._restore: list = []
        self._pole_error = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [span id, name, start, time covered by children, parent id]
        frame = [self._next_id, name, perf_counter(), 0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, parent = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent, self.sample_id))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name (used for the root span)."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn):
        tracer = self
        is_elliptic = name.startswith("elliptic.")
        count = _count_matmul if name == "rmatrix.matmul" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counts, *args)
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except tracer._pole_error:
                # count the error once, where it leaves the elliptic layer
                stack = tracer._stack
                if is_elliptic and (len(stack) < 2 or not stack[-2][1].startswith("elliptic.")):
                    tracer.counts["elliptic.pole_errors"] += 1
                raise
            finally:
                tracer._close(frame)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        modules = {m: importlib.import_module(f"superkron.{m}") for m in NAMESPACES}
        namespaces = list(modules.values()) + [importlib.import_module("superkron")]
        self._pole_error = modules["elliptic"].PoleProximityError
        try:
            for name, module, attr in BOUNDARIES:
                owner = modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._replace(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is original:
                        self._replace(ns, attr, wrapper)
            gen_set = modules["grassmann"].GeneratorSet
            init = gen_set.__init__
            counts = self.counts

            @functools.wraps(init)
            def counted_init(*args, **kwargs):
                counts["grassmann.generator_sets.built"] += 1
                return init(*args, **kwargs)

            self._replace(gen_set, "__init__", counted_init)
        except BaseException:
            self._uninstall()
            raise
        return self

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._uninstall()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls and self seconds per boundary, plus the counters."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out[f"{ROOT}.self_s"] = self.self_s[ROOT]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out


def _count_matmul(counts, left, right) -> None:
    """Block products and flops of one SuperMatrix product, from block shapes.

    Each pair of blocks over disjoint monomials is one dense complex product
    of an (m, k) by a (k, n) array: 8 m k n real floating-point operations.
    The flops are computed from shapes, not measured.
    """
    for s, a in left.blocks.items():
        for t, b in right.blocks.items():
            if s & t:
                continue
            counts["rmatrix.matmul.block_products"] += 1
            counts["rmatrix.matmul.flops_computed"] += 8 * a.shape[0] * a.shape[1] * b.shape[1]

