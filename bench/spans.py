"""Outside-in tracing of the request pipeline.

The engine resolves its layer functions through module globals at call
time, so wrapping those names from outside gives one span per layer call
without touching the engine.  A span's self time is its duration minus the
time of its child spans and of the benchmark's own work, so the self times
of one request add up to that request's traced latency.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

from flagbochner.poly import Polynomial

# (module, function): span names read <module>.<function>.  cli.run_case and
# cli.run_numeric_check are the root span of every request.
LAYERS = (
    ("cli", "run_case"),
    ("cli", "run_numeric_check"),
    ("matrices", "build_Z"),
    ("matrices", "nilpotency_index"),
    ("expansion", "diastasis"),
    ("expansion", "gram"),
    ("expansion", "exp_Z"),
    ("expansion", "hessian_fd"),
    ("expansion", "eval_numeric"),
    ("expansion", "truncated_value"),
    ("poly", "minor_det"),
    ("poly", "log1p_expand"),
    ("bochner", "forbidden_report"),
    ("bochner", "verdict_from_report"),
    ("feasibility", "rref"),
    ("feasibility", "positive_solution_exists"),
    ("lie_core", "poincare"),
)


def engine_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "flagbochner"
                              or name.startswith("flagbochner."))
    ]


class Tracer:
    """Records spans around the layer functions, and counts at the same
    boundaries, while installed."""

    def __init__(self):
        # (request, span id, parent span id or -1, name, start, end, self)
        self.spans = []
        self.counts = Counter()
        self.instrument_s = 0.0  # benchmark work inside spans, in no span
        self.peak_terms = 0
        self.absent = []
        self.request = 0
        self._stack = []  # open spans: [span id, time excluded from self]
        self._undo = []

    def exclude(self, seconds: float) -> None:
        """Book benchmark work done inside the open span to no span."""
        self.instrument_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, name, fn, on_result):
        def span(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                own = end - start - frame[1]
                self.spans[sid] = (self.request, sid, parent, name, start, end, own)
                if self._stack:
                    self._stack[-1][1] += end - start
            if on_result is not None:
                t0 = time.perf_counter()
                on_result(result, args)
                self.exclude(time.perf_counter() - t0)
            return result

        span.__wrapped__ = fn
        return span

    def _count_terms(self, key):
        def hook(result, args):
            n = len(result.terms)
            self.counts[key] += n
            self.peak_terms = max(self.peak_terms, n)
        return hook

    def _count_forbidden(self, result, args):
        self.counts["bochner.forbidden.entries"] += len(result.entries)

    def _count_lp_rows(self, result, args):
        self.counts["feasibility.lp.rows"] += sum(1 for r in args[0] if any(r))

    def _mul(self, orig):
        """Polynomial.__mul__ counting the term pairs a product tries and,
        from the degree histograms of the factors, how many fit under the
        truncation degree."""
        def mul(a, b):
            if not isinstance(b, Polynomial):
                return orig(a, b)
            t0 = time.perf_counter()
            pairs = len(a.terms) * len(b.terms)
            trunc = a.trunc if a.trunc is not None else b.trunc
            if trunc is None:
                kept = pairs
            else:
                ha = Counter(m.total for m in a.terms)
                hb = Counter(m.total for m in b.terms)
                kept = sum(
                    na * nb for da, na in ha.items()
                    for db, nb in hb.items() if da + db <= trunc
                )
            self.counts["poly.mul.calls"] += 1
            self.counts["poly.mul.pairs"] += pairs
            self.counts["poly.mul.kept"] += kept
            self.exclude(time.perf_counter() - t0)
            result = orig(a, b)
            t0 = time.perf_counter()
            self.peak_terms = max(self.peak_terms, len(result.terms))
            self.exclude(time.perf_counter() - t0)
            return result
        return mul

    def install(self) -> None:
        """Wrap every module-level binding of each layer function; a layer
        the engine no longer has is recorded as absent."""
        hooks = {
            "poly.minor_det": self._count_terms("poly.minor_det.out_terms"),
            "poly.log1p_expand": self._count_terms("poly.log1p_expand.out_terms"),
            "bochner.forbidden_report": self._count_forbidden,
            "feasibility.positive_solution_exists": self._count_lp_rows,
        }
        modules = engine_modules()
        for modname, fname in LAYERS:
            name = f"{modname}.{fname}"
            try:
                module = importlib.import_module(f"flagbochner.{modname}")
                fn = getattr(module, fname)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, hooks.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        orig = Polynomial.__mul__
        Polynomial.__mul__ = self._mul(orig)
        self._undo.append((Polynomial, "__mul__", orig))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def mark(self) -> tuple[int, float]:
        return len(self.spans), self.instrument_s

    def accounted_s(self, mark: tuple[int, float]) -> float:
        """Self time of every span recorded since mark, plus the benchmark's
        work inside them; for one request, its traced latency."""
        first, instrument_s = mark
        return (sum(s[6] for s in self.spans[first:])
                + self.instrument_s - instrument_s)

    def layer_times(self, factors: list[float]):
        """Per span name: (calls, self time, total time), each span's time
        multiplied by the factor of its request."""
        calls, own, total = Counter(), Counter(), Counter()
        for request, _, _, name, start, end, self_s in self.spans:
            k = factors[request]
            calls[name] += 1
            own[name] += self_s * k
            total[name] += (end - start) * k
        return calls, own, total
