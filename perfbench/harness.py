"""Timing, checking and tracing of one benchmark pass.

A pass calls public pairglue functions through :meth:`Pass.op`.  Every call
is timed with ``time.perf_counter``; its output is checked against a
reference outside the timed region; an exception or a mismatch counts the
operation as failed and abandons the rest of its item, since later
operations of the item depend on its output.

With a :class:`Tracer` attached, each item, each operation and each nested
library call also records a span (name, start, end, parent span, item id).
Spans stay in memory until the run writes them out at its end.
"""

import contextlib
import gc
import sys
import time

# Seconds the speed probe takes on this host when it is quiet (Intel Xeon
# vCPU at 2.0 GHz, Python 3.11); benchmark times are scaled to that speed.
PROBE_REFERENCE_S = 100e-6
PROBE_REPEATS = 3


def _probe_work():
    table = {}
    for i in range(200):
        key = ("P", i % 37, i)
        table[key] = table.get(key, 0) + 3 * i
    ordered = sorted(table.items(), key=lambda kv: (kv[0][1], -kv[1]))
    rows = [[(i * j) % 11 - 5 for j in range(10)] for i in range(10)]
    trace = sum(rows[r][c] * rows[c][r] for r in range(10) for c in range(10))
    base = len(ordered) // 67
    return trace + (base ** 400 * (base + 4) ** 300 // (base + 10) ** 200) % 7


def probe_seconds():
    """Seconds a fixed slice of interpreter work takes right now.

    The host's speed drifts by tens of percent within seconds (see
    README.md).  The probe does the kind of work the library does (dicts of
    tuples, sorting, small list arithmetic, big integers), so
    ``PROBE_REFERENCE_S / probe_seconds()`` tracks how fast the host runs the
    library at the moment.  The fastest of a few repeats discounts
    interrupts; the collector is off so that garbage the library left behind
    does not slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe_work()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()


class ItemAborted(Exception):
    """Raised inside an item after one of its operations failed."""


class Tracer:
    """In-memory span recorder for one traced pass.

    Spans nest: a span's parent is the innermost span open when it opens.
    The library functions that :func:`instrumented` wraps open spans only
    while ``active`` is set, that is, during an operation's call and not
    during the benchmark's own reference checks.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False

    def open(self, name, call, item, seq):
        parent = self.stack[-1]["id"] if self.stack else None
        span = {"id": len(self.spans), "name": name, "call": call,
                "item": item, "seq": seq, "parent": parent,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()


# Library functions that other library functions call, by the layer metric
# their self time counts towards.  In a traced pass each call of one of them
# inside an operation opens a child span of the innermost open span, so the
# time an operation spends in another layer, or in another public function
# of its own layer, is not counted as its own.  ``_orbit_data`` is the
# private edge-class traversal behind ``edge_orbits`` that the presentations
# and symmetry layers call directly.  ``smith_normal_form`` is not wrapped:
# inside ``h1`` it is what ``homology.h1_s`` measures, and
# ``homology.snf_s`` stays the time of the dense matrices alone.
NESTED_CALLS = {
    "families.build": ("pairglue.families",
                       ("build_family", "build_m24", "build_m25")),
    "complex_core.validate": ("pairglue.complex_core", ("validate",)),
    "complex_core.census": ("pairglue.complex_core",
                            ("cell_counts", "is_manifold")),
    "complex_core.orbits": ("pairglue.complex_core",
                            ("edge_orbits", "vertex_orbits", "_orbit_data")),
    "presentations.pairing": ("pairglue.group_theory.presentations",
                              ("presentation_from_pairings",)),
    "presentations.cw": ("pairglue.group_theory.presentations",
                         ("presentation_from_cw",)),
    "presentations.simplify": ("pairglue.group_theory.presentations",
                               ("auto_simplify",)),
    "presentations.scripted": ("pairglue.group_theory.presentations",
                               ("reduced_family_presentation",)),
    "homology.h1": ("pairglue.group_theory.homology", ("h1",)),
    "symmetry.rotation": ("pairglue.symmetry", ("rotation",)),
    "symmetry.quotient": ("pairglue.symmetry", ("quotient_complex",)),
    "symmetry.report": ("pairglue.symmetry", ("singularity_report",)),
    "io_cli.serialize": ("pairglue.io_cli", ("serialize_complex",)),
    "io_cli.parse": ("pairglue.io_cli", ("parse_complex",)),
}


def _span_wrapper(tracer, name, fn):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        outer = tracer.stack[-1]
        span = tracer.open(name, fn.__name__, outer["item"], outer["seq"])
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    traced.__name__ = fn.__name__
    traced.traced_original = fn
    return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Route every reference to a ``NESTED_CALLS`` function through a wrapper.

    The wrapper replaces the function in every ``pairglue`` module that
    holds it, the package itself included, and the originals come back on
    exit.
    """
    modules = [module for name, module in list(sys.modules.items())
               if name == "pairglue" or name.startswith("pairglue.")]
    replaced = []
    try:
        for span_name, (module_name, names) in NESTED_CALLS.items():
            for name in names:
                original = getattr(sys.modules[module_name], name)
                wrapper = _span_wrapper(tracer, span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)


def self_times(spans):
    """Self time of every span, by span id.

    A span's self time is its duration minus the part of it that its child
    spans cover.
    """
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    times = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            low = max(child["start"], reach)
            if child["end"] > low:
                covered += child["end"] - low
                reach = child["end"]
        times[span["id"]] = span["end"] - span["start"] - covered
    return times


class Pass:
    """State of one pass: operation counts and times, failures, counters.

    ``op_s`` maps (item, sequence number within the item) to the operation's
    name, its seconds and the mean seconds of the speed probes taken right
    before and after it; the key names the same operation in every pass.  ``wall_s`` is the pass's wall time, and ``overhead_s`` the
    part of it spent in reference checks, probes and collections.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.mismatches = 0
        self.counters = {}
        self.op_s = {}
        self.results = {}
        self.overhead_s = 0.0
        self.wall_s = 0.0
        self._item = None
        self._item_span = None
        self._seq = 0

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _probe(self):
        start = time.perf_counter()
        probe = probe_seconds()
        self.overhead_s += time.perf_counter() - start
        return probe

    def reference(self, fn, *args):
        """Compute a reference value; its time counts as overhead."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # no reference means the item is unchecked
            self.fail("reference", _describe(exc), mismatch=True)
            raise ItemAborted from None
        finally:
            self.overhead_s += time.perf_counter() - start

    def fail(self, name, reason, mismatch):
        self.failures.append((name, self._item, reason))
        if mismatch:
            self.mismatches += 1

    def run_item(self, item, body, *args):
        """Run ``body(self, *args)`` as one item; ``item`` is (family, n).

        A full collection first makes each item start from the same heap,
        which keeps the peak resident memory steady across item orders.
        """
        start = time.perf_counter()
        gc.collect()
        self.overhead_s += time.perf_counter() - start
        self._item = item
        self._seq = 0
        if self.tracer:
            self._item_span = self.tracer.open("item", body.__name__, item, None)
        try:
            body(self, *args)
        except ItemAborted:
            pass
        finally:
            if self.tracer:
                self.tracer.close(self._item_span)
            self._item = self._item_span = None

    def op(self, name, fn, *args, check=None):
        """Call ``fn(*args)`` as operation ``name`` and return its output.

        ``check(output)`` returns None when the output matches its reference,
        or a description of the mismatch.
        """
        self.attempted += 1
        # The operation's own span stands for the public call, so the call
        # bypasses the wrapper that would open a second span for it.
        fn = getattr(fn, "traced_original", fn)
        before = self._probe()
        span = None
        if self.tracer:
            span = self.tracer.open(name, fn.__name__, self._item, self._seq)
            self.tracer.active = True
        error = None
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # any exception is a failed operation
            error = exc
        seconds = time.perf_counter() - start
        if span:
            self.tracer.active = False
            self.tracer.close(span)
        self.op_s[(self._item, self._seq)] = (
            name, seconds, (before + self._probe()) / 2)
        self._seq += 1
        if error is not None:
            self.fail(name, _describe(error), mismatch=False)
            raise ItemAborted
        if check is not None:
            start = time.perf_counter()
            try:
                problem = check(output)
            except Exception as exc:  # a malformed output breaks its check
                problem = f"check raised {_describe(exc)}"
            self.overhead_s += time.perf_counter() - start
            if problem:
                self.fail(name, problem, mismatch=True)
                raise ItemAborted
        return output


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"[:200]
