"""Spans around the package's public functions, patched in from outside.

``Tracer.install`` rebinds each traced name in every ``ustatcs`` module that
bound it (``sage_upper`` lives in ``spectral``, ``sequences`` and
``simharness``), wraps methods on their classes and ``cross`` on each kernel
singleton, and ``Tracer.restore`` puts every original back.  Spans are kept
in memory as ``Span`` records; a span's self time is its duration minus the
part of its interval that its children cover.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

_MISSING = object()


@dataclass(slots=True)
class Span:
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index of the enclosing span, -1 at the root
    size: int = 0  # n for a push, rows evaluated for a kernel cross


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    siblings are counted once.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        run_lo = run_hi = None
        for j in sorted(kids, key=lambda j: spans[j].start):
            lo = max(spans[j].start, s.start)
            hi = min(spans[j].end, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, size=None):
        """Wrap ``fn`` so that each call records a span; ``size(*args)`` fills Span.size."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = Span(name, 0, 0, stack[-1] if stack else -1,
                       size(*args) if size else 0)
            stack.append(len(spans))
            spans.append(rec)
            rec.start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end = perf_counter_ns()
                stack.pop()

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def _rebind(self, name: str, original) -> None:
        """Point every ``ustatcs`` module attribute bound to ``original`` at one wrapper."""
        wrapper = self.span(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "ustatcs" and not modname.startswith("ustatcs."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _counted_eigsh(self, eigsh):
        """eigsh that counts operator matvecs and the ARPACK failures that fall back."""
        from scipy.sparse.linalg import ArpackError, LinearOperator

        counts = self.counts

        def counted(A, *args, **kwargs):
            def matvec(v):
                counts["spectral.eigsh.matvecs"] += 1
                return A.matvec(v)

            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            try:
                return eigsh(op, *args, **kwargs)
            except ArpackError:
                counts["spectral.eigsh.fallbacks"] += 1
                raise

        return counted

    def install(self) -> None:
        import numpy
        from ustatcs import accumulator, boundaries, kernels, sequences, simharness, spectral

        acc = accumulator.UStatAccumulator
        self._set(acc, "push", self.span("accumulator.push", acc.push,
                                         size=lambda a, x: a.n))
        self._set(acc, "jackknife_sigma2",
                  self.span("accumulator.jackknife_sigma2", acc.jackknife_sigma2))
        self._rebind("accumulator.batch_ustat", accumulator.batch_ustat)
        for kid in kernels.KERNEL_IDS:
            k = kernels.get_kernel(kid)
            self._set(k, "cross", self.span("kernels.cross", k.cross,
                                            size=lambda pts, x: len(pts)))
        self._rebind("boundaries.gaussian_boundary", boundaries.gaussian_boundary)
        mon = spectral.SpectrumMonitor
        self._set(mon, "update", self.span("spectral.monitor_update", mon.update))
        self._rebind("spectral.estimate_spectrum", spectral.estimate_spectrum)
        self._set(numpy.linalg, "eigvalsh",
                  self.span("spectral.eigvalsh", numpy.linalg.eigvalsh))
        eigsh = spectral.eigsh
        wrapped = self.span("spectral.eigsh", self._counted_eigsh(eigsh))
        self._set(spectral, "eigsh", wrapped)
        self._rebind("spectral.sage_upper", spectral.sage_upper)
        self._rebind("sequences.nondegenerate_cs", sequences.nondegenerate_cs)
        self._rebind("sequences.degenerate_cs", sequences.degenerate_cs)
        self._rebind("sequences.chi_square_mixture_quantile",
                     sequences.chi_square_mixture_quantile)
        self._rebind("simharness.sample_paired_mmd", simharness.sample_paired_mmd)
        self._rebind("simharness.run_experiment", simharness.run_experiment)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


# -- per-layer metrics ---------------------------------------------------------

PUSH_SIZES = {"n1k": 1_000, "n4k": 4_000, "n16k": 16_000}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".calls", ".evals", ".matvecs", ".fallbacks", ".refreshes")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if "_us_" in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "s"


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span is named "cli"."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    dur: Counter = Counter()
    own: Counter = Counter()
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        dur[s.name] += s.end - s.start
        own[s.name] += st

    def sec(ns):
        return ns / 1e9

    out = {"cli.self_s": sec(own["cli"])}
    out["accumulator.push.calls"] = calls["accumulator.push"]
    out["accumulator.push.self_s"] = sec(own["accumulator.push"])
    for label, n in PUSH_SIZES.items():
        near = [st for s, st in zip(spans, selfs)
                if s.name == "accumulator.push" and abs(s.size - n) <= 0.1 * n]
        out[f"accumulator.push.self_us_{label}"] = statistics.median(near) / 1e3 if near else 0.0
    out["accumulator.batch_ustat.calls"] = calls["accumulator.batch_ustat"]
    out["accumulator.batch_ustat.s"] = sec(dur["accumulator.batch_ustat"])
    out["accumulator.jackknife_sigma2.s"] = sec(dur["accumulator.jackknife_sigma2"])
    out["kernels.cross.calls"] = calls["kernels.cross"]
    out["kernels.cross.evals"] = sum(s.size for s in spans if s.name == "kernels.cross")
    out["kernels.cross.s"] = sec(dur["kernels.cross"])
    out["boundaries.gaussian_boundary.calls"] = calls["boundaries.gaussian_boundary"]
    out["boundaries.gaussian_boundary.s"] = sec(dur["boundaries.gaussian_boundary"])
    updates = calls["spectral.monitor_update"]
    refreshes = sum(1 for s in spans if s.name == "spectral.estimate_spectrum"
                    and s.parent >= 0 and spans[s.parent].name == "spectral.monitor_update")
    out["spectral.monitor_update.calls"] = updates
    out["spectral.refreshes"] = refreshes
    out["spectral.refresh_ratio"] = refreshes / updates if updates else 0.0
    est = [s.end - s.start for s in spans if s.name == "spectral.estimate_spectrum"]
    out["spectral.estimate_spectrum.s"] = sec(sum(est))
    out["spectral.estimate_spectrum.max_ms"] = max(est) / 1e6 if est else 0.0
    out["spectral.eigvalsh.calls"] = calls["spectral.eigvalsh"]
    out["spectral.eigvalsh.s"] = sec(dur["spectral.eigvalsh"])
    out["spectral.eigsh.calls"] = calls["spectral.eigsh"]
    out["spectral.eigsh.s"] = sec(dur["spectral.eigsh"])
    out["spectral.eigsh.matvecs"] = counts["spectral.eigsh.matvecs"]
    out["spectral.eigsh.fallbacks"] = counts["spectral.eigsh.fallbacks"]
    out["spectral.sage_upper.calls"] = calls["spectral.sage_upper"]
    out["spectral.sage_upper.s"] = sec(dur["spectral.sage_upper"])
    out["sequences.nondegenerate_cs.self_s"] = sec(own["sequences.nondegenerate_cs"])
    out["sequences.degenerate_cs.self_s"] = sec(own["sequences.degenerate_cs"])
    chi = "sequences.chi_square_mixture_quantile"
    out[f"{chi}.calls"] = calls[chi]
    out[f"{chi}.s"] = sec(dur[chi])
    out["simharness.sample_paired_mmd.s"] = sec(dur["simharness.sample_paired_mmd"])
    out["simharness.self_s"] = sec(own["simharness.run_experiment"])
    return out
