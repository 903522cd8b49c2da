"""Layer tracing for the benchmark: timing wrappers at the library's boundaries.

The wrappers live here, not in the library. ``Tracer.install`` replaces every
binding of each boundary name in every loaded ``clickcz`` module (module-level
functions are imported by name into other modules, and ``PureState`` methods
live on the class), and ``uninstall`` puts the originals back.

Each wrapped call records a span (name, start, end, parent). A span's self
time is its duration minus the time its child spans cover; it is computed as
the spans close, because calls nest on the one thread. Counters (calls, terms
in and out, branches out, kept branches) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time


def _terms(value) -> int:
    """Basis terms held by a state, a (state, index) pair, an ensemble or rows."""
    if value is None:
        return 0
    if hasattr(value, "_amps"):
        return len(value._amps)
    if hasattr(value, "ensemble"):
        value = value.ensemble
    if hasattr(value, "branches"):
        return sum(len(b.state._amps) for b in value.branches)
    if isinstance(value, tuple):
        return _terms(value[0])
    if isinstance(value, list):
        return sum(len(row.state._amps) for row in value)
    raise TypeError(f"cannot count terms of {type(value).__name__}")


def _branches(value) -> tuple[int, int]:
    """(branches, kept branches) of an ensemble, gadget result or outcome rows."""
    if hasattr(value, "ensemble"):
        value = value.ensemble
    rows = value.branches if hasattr(value, "branches") else value
    kept = sum(1 for b in rows if b.disposition == "keep")
    return len(rows), kept


# Input extractors, (args, kwargs) -> terms a call receives.
def _first_arg(args, kwargs):
    return _terms(args[0])


def _self_and_other(args, kwargs):
    return _terms(args[0]) + _terms(args[1])


def _amplitude_map(args, kwargs):
    amps = args[2] if len(args) > 2 else kwargs.get("amplitudes")
    return len(amps) if amps else 0


def _second_arg(args, kwargs):
    return _terms(args[1] if len(args) > 1 else kwargs.get("input_state"))


# Output extractors, (args, result) -> terms a call produces.
def _result(args, result):
    return _terms(result)


def _constructed(args, result):
    return len(args[0]._amps)


def _length(args, result):
    return len(result)


# (metric prefix, module, attribute path, terms-in extractor, terms-out
# extractor, records branches out).
BOUNDARIES = (
    ("fock.PureState", "clickcz.fock", "PureState.__init__", _amplitude_map, _constructed, False),
    ("fock.items", "clickcz.fock", "PureState.items", None, _length, False),
    ("fock.tensor", "clickcz.fock", "PureState.tensor", _self_and_other, _result, False),
    ("fock.reorder_modes", "clickcz.fock", "PureState.reorder_modes", _first_arg, _result, False),
    ("elements.apply_pr", "clickcz.elements", "apply_pr", _first_arg, _result, False),
    ("elements.apply_ps", "clickcz.elements", "apply_ps", _first_arg, _result, False),
    ("elements.apply_pdps", "clickcz.elements", "apply_pdps", _first_arg, _result, False),
    ("elements.apply_pbs", "clickcz.elements", "apply_pbs", _first_arg, _result, False),
    ("elements.apply_bs", "clickcz.elements", "apply_bs", _first_arg, _result, False),
    ("elements.apply_circuit", "clickcz.elements", "apply_circuit", _first_arg, _result, False),
    ("detection.measure_nr", "clickcz.detection", "measure_nr", _first_arg, _result, True),
    ("detection.pid_split", "clickcz.detection", "pid_split", _first_arg, _result, False),
    ("detection.pid", "clickcz.detection", "pid", _first_arg, _result, True),
    ("detection.apply_feed_forward", "clickcz.detection", "apply_feed_forward", _first_arg, _result, True),
    ("gadgets.b2g", "clickcz.gadgets", "b2g", _first_arg, _result, True),
    ("gadgets.ecc", "clickcz.gadgets", "ecc", _first_arg, _result, True),
    ("gadgets.g2a", "clickcz.gadgets", "g2a", _first_arg, _result, True),
    ("gadgets.a2c", "clickcz.gadgets", "a2c", _first_arg, _result, True),
    ("gadgets.cz_gate", "clickcz.gadgets", "cz_gate", _first_arg, _result, True),
    ("gadgets.cz_full_pipeline", "clickcz.gadgets", "cz_full_pipeline", _first_arg, _result, True),
    ("oracle.enumerate_exact", "clickcz.oracle", "enumerate_exact", _second_arg, _result, True),
    ("oracle.aggregate_probabilities", "clickcz.oracle", "aggregate_probabilities", None, None, False),
    ("cli.run", "clickcz.cli", "run", None, None, False),
    ("cli.RunReport.to_json", "clickcz.cli", "RunReport.to_json", None, None, False),
)

GADGETS = tuple(p for p, *_ in BOUNDARIES if p.startswith("gadgets."))

# (counter name, inner boundary, outer boundary): calls of the inner boundary
# made while the outer one is running, per call of the outer one.
NESTED_COUNTS = (
    ("gadgets.cz_full_pipeline.cz_gate_calls", "gadgets.cz_gate", "gadgets.cz_full_pipeline"),
    ("cli.run.pipeline_calls", "gadgets.cz_full_pipeline", "cli.run"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for prefix, _module, _attr, terms_in, terms_out, branches_out in BOUNDARIES:
        units[f"{prefix}.calls"] = "1/op"
        units[f"{prefix}.self_ms_per_op"] = "ms"
        if terms_in is not None:
            units[f"{prefix}.terms_in"] = "terms"
        if terms_out is not None:
            units[f"{prefix}.terms_out"] = "terms"
        if branches_out:
            units[f"{prefix}.branches_out"] = "branches"
    for prefix in GADGETS:
        units[f"{prefix}.kept_branch_ratio"] = "ratio"
    for name, _inner, _outer in NESTED_COUNTS:
        units[name] = "1/call"
    units["trace.overhead_pct"] = "%"
    return units


class _Stat:
    __slots__ = ("calls", "self_s", "terms_in", "terms_out", "branches", "kept", "nested")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.terms_in = 0
        self.terms_out = 0
        self.branches = 0
        self.kept = 0
        self.nested = 0


class Tracer:
    """Span recorder; spans are kept only while ``keep_spans`` is true."""

    def __init__(self) -> None:
        self.on = False
        self.keep_spans = False
        self.names = [p for p, *_ in BOUNDARIES]
        self.stats = {name: _Stat() for name in self.names}
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._next_span = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._active = {name: 0 for name in self.names}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "clickcz" or n.startswith("clickcz.")]
        for index, (prefix, module, attr, terms_in, terms_out, branches_out) in enumerate(BOUNDARIES):
            owner = sys.modules[module]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            wrapper = self._wrap(index, original, terms_in, terms_out, branches_out)
            if isinstance(owner, type):
                self._bind(owner, name, original, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, binding, original, wrapper)
            if not any(getattr(m, name, None) is wrapper for m in modules):
                raise RuntimeError(f"boundary {prefix} has no binding to wrap")

    def _bind(self, owner, name: str, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, index, fn, terms_in, terms_out, branches_out):
        name = self.names[index]
        stat = self.stats[name]
        outers = [outer for _counter, inner, outer in NESTED_COUNTS if inner == name]
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            start = clock()
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
                if terms_in is not None:
                    stat.terms_in += terms_in(args, kwargs)
                if terms_out is not None:
                    stat.terms_out += terms_out(args, result)
                if branches_out:
                    produced, kept = _branches(result)
                    stat.branches += produced
                    stat.kept += kept
                for outer in outers:
                    if active[outer]:
                        stat.nested += 1
                return result
            finally:
                end = clock()
                stat.calls += 1
                active[name] -= 1
                stack.pop()
                span = end - start
                stat.self_s += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if tracer.keep_spans:
                    tracer.spans.append((span_id, index, start, end, parent))

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced operations."""
        units = metric_units()
        out: dict[str, float] = {}
        for name in self.names:
            stat = self.stats[name]
            per_call = stat.calls or 1
            out[f"{name}.calls"] = stat.calls / ops
            out[f"{name}.self_ms_per_op"] = stat.self_s * 1e3 / ops
            if f"{name}.terms_in" in units:
                out[f"{name}.terms_in"] = stat.terms_in / per_call
            if f"{name}.terms_out" in units:
                out[f"{name}.terms_out"] = stat.terms_out / per_call
            if f"{name}.branches_out" in units:
                out[f"{name}.branches_out"] = stat.branches / per_call
        for name in GADGETS:
            stat = self.stats[name]
            out[f"{name}.kept_branch_ratio"] = stat.kept / stat.branches if stat.branches else 0.0
        for counter, inner, outer in NESTED_COUNTS:
            outer_calls = self.stats[outer].calls
            out[counter] = self.stats[inner].nested / outer_calls if outer_calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV: span, parent, name, start_s, end_s."""
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for span_id, index, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id},{parent},{self.names[index]},{start!r},{end!r}\n")
