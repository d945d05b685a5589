"""Spans around rtgmi's layer boundaries, recorded from outside the package.

Each hook replaces one public function at the module attribute through which
its caller reaches it (``cli``, ``simulate``, ``capacity``, and ``psk`` for
the fading draws inside ``synthesize_block_at_rho``).  A span records name,
layer, start, end, parent span and job id, plus the counters its hook derives
from the call's arguments and result.  Spans stay in memory until the run
writes them out; self time is a span's duration minus that of its children.
"""

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a job root
    job: int
    counts: dict = field(default_factory=dict)


def _generate_path(a, result):
    return {"calls": 1, "samples": a["n"]}


def _predictor_solves(a, result):
    return {"solves": a["interleave_depth"] - 1}


def _codebook(a, result):
    return {"codebooks": 1, "codebook_symbols": result.symbols.size,
            "codebook_bytes": result.symbols.nbytes}


def _block(a, result):
    return {"blocks": 1}


def _decode(a, result):
    book = a["codebook"]
    return {"calls": 1, "candidates": book.size,
            "metric_terms": book.size * book.block_length,
            "errors": int(result.correct is False)}


def _gmi(a, result):
    return {"calls": 1, "samples": a["block"].block_length}


def _psk_capacity(a, result):
    return {"calls": 1, "samples": a["n_samples"]}


def _simulate_run(a, result):
    return {"trials": a["config"].n_trials}


# (layer, function name, modules whose attribute is replaced, counter)
HOOKS = (
    ("fading", "generate_path", ("simulate", "psk"), _generate_path),
    ("prediction", "schedule_predictors", ("simulate",), _predictor_solves),
    ("prediction", "rho_sequence", ("capacity",), _predictor_solves),
    ("psk", "generate_codebook", ("simulate",), _codebook),
    ("psk", "synthesize_block_at_rho", ("simulate", "cli"), _block),
    ("decoder", "decode", ("simulate",), _decode),
    ("gmi", "gmi", ("simulate", "cli"), _gmi),
    ("capacity", "psk_capacity", ("capacity", "cli"), _psk_capacity),
    ("capacity", "rate_ladder", ("cli",), None),
    ("simulate", "run", ("cli",), _simulate_run),
)

# every per-layer metric a traced run reports, zero where a layer is unused
METRICS = (
    "fading.calls", "fading.samples", "fading.busy_s",
    "prediction.solves", "prediction.busy_s",
    "psk.codebooks", "psk.codebook_symbols", "psk.codebook_bytes",
    "psk.blocks", "psk.busy_s",
    "decoder.calls", "decoder.candidates", "decoder.metric_terms",
    "decoder.errors", "decoder.busy_s",
    "gmi.calls", "gmi.samples", "gmi.busy_s",
    "capacity.calls", "capacity.samples", "capacity.busy_s",
    "simulate.trials", "simulate.sizing_s", "simulate.self_s",
    "cli.self_s", "cli.report_bytes",
    "trace.wall_s", "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.job = -1

    def _wrap(self, fn, layer, name, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, layer, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else -1, self.job)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def job_span(self, job):
        """Root span of one job; every hooked call inside becomes its child."""
        self.job = job
        index = len(self.spans)
        span = Span("main", "cli", time.perf_counter(), 0.0, -1, job)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def installed(self):
        """Replace every hooked attribute for the duration of the block."""
        saved = []
        try:
            for layer, name, sites, counter in HOOKS:
                for site in sites:
                    module = importlib.import_module(f"rtgmi.{site}")
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name,
                            self._wrap(original, layer, name, counter))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans):
    """Per-layer busy (self) seconds and summed counters, keyed 'layer.name'."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        key = f"{span.layer}.busy_s"
        totals[key] = totals.get(key, 0.0) + own
        for counter, value in span.counts.items():
            key = f"{span.layer}.{counter}"
            totals[key] = totals.get(key, 0) + value
    return totals


def sizing_seconds(spans):
    """Time inside each simulate run before its first codebook draw."""
    first_book = {}
    for span in spans:
        if span.name == "generate_codebook" and span.parent not in first_book:
            first_book[span.parent] = span.start
    total = 0.0
    for index, span in enumerate(spans):
        if span.layer == "simulate":
            total += first_book.get(index, span.end) - span.start
    return total
