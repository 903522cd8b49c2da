"""Benchmark runner for clickcz: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. Each operation starts when the previous one returns and is checked
after its timed interval. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of separately traced passes instead. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, metric_units
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5


def import_library() -> SimpleNamespace:
    """Import clickcz afresh, dropping any copy an earlier set-up loaded."""
    for name in [n for n in sys.modules if n == "clickcz" or n.startswith("clickcz.")]:
        del sys.modules[name]
    pkg = importlib.import_module("clickcz")
    cli = importlib.import_module("clickcz.cli")
    return SimpleNamespace(fock=pkg.fock, elements=pkg.elements, detection=pkg.detection,
                           gadgets=pkg.gadgets, states=pkg.states, cli=cli)


class Tally:
    """Operations attempted and failed; the first failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"# first failure: {what}", file=sys.stderr)


class Verifier:
    """Checks outputs: in full the first time an input runs, then bit for bit.

    A later output of the same input, traced or not, must equal the checked
    one exactly, so a repeat is as checked as the first run.
    """

    def __init__(self, workload, lib, items: list, tally: Tally) -> None:
        self.workload, self.lib, self.items, self.tally = workload, lib, items, tally
        self.digests: list[str | None] = [None] * len(items)

    def accept(self, k: int, out) -> bool:
        digest = self.workload.digest(out)
        if self.digests[k] is None:
            try:
                self.workload.check(self.lib, self.items[k], out)
            except CheckFailed as exc:
                self.tally.fail(str(exc))
                return False
            self.digests[k] = digest
        elif digest != self.digests[k]:
            self.tally.fail(f"input {k}: output differs from its checked output")
            return False
        return True


def timed_op(workload, lib, item, tally: Tally, tracer: Tracer | None = None):
    """Run and time one operation; returns (seconds, output), or None if it raised."""
    tally.attempted += 1
    if tracer is not None:
        tracer.on = True
    try:
        start = time.perf_counter()
        out = workload.run(lib, item)
        return time.perf_counter() - start, out
    except Exception:  # an operation that raises counts as failed; keep measuring
        tally.fail(traceback.format_exc())
        return None
    finally:
        if tracer is not None:
            tracer.on = False


def set_up(workload, raw_warmups: list, workdir: Path, tally: Tally):
    """Import the library and run the warm-up operations, SETUP_REPS times.

    Returns the median set-up seconds and the library of the last repetition.
    Building the warm-up inputs and checking their outputs are not counted.
    """
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        lib = import_library()
        imported = time.perf_counter()
        items = workload.prepare(lib, raw_warmups, _fresh_dir(workdir, f"warmup-{rep}"))
        begin = time.perf_counter()
        outs = [workload.run(lib, item) for item in items]
        end = time.perf_counter()
        times.append((imported - start) + (end - begin))
        for item, out in zip(items, outs):
            tally.attempted += 1
            try:
                workload.check(lib, item, out)
            except CheckFailed as exc:
                tally.fail(f"warm-up: {exc}")
    return statistics.median(times), lib


def _fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir()
    return path


def throughput(latencies: list[float], block: int) -> float:
    """Operations per second that 90% of blocks of ``block`` consecutive operations reach.

    A block lasts a fraction of a second. The host alternates between a fast
    and a slow state for spells of a fraction of a second to minutes; the
    low decile of block rates tracks the slow state, which every run meets,
    where the median and the mean move with the share of time spent in each.
    """
    rates = sorted(block / sum(latencies[i:i + block])
                   for i in range(0, len(latencies) - block + 1, block))
    if len(rates) < 2:
        return len(latencies) / sum(latencies) if latencies else 0.0
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def run_pass(workload, lib, items, verifier, tally, tracer=None, until=None) -> list[float]:
    """Run every input once, or until the deadline ``until``; returns the latencies."""
    latencies: list[float] = []
    for k, item in enumerate(items):
        done = timed_op(workload, lib, item, tally, tracer)
        if done is not None and verifier.accept(k, done[1]):
            latencies.append(done[0])
        if until is not None and time.perf_counter() >= until:
            break
    return latencies


def untraced(workload, lib, items, seconds, tally, setup_s) -> tuple[dict, str]:
    verifier = Verifier(workload, lib, items, tally)
    latencies: list[float] = []
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        latencies += run_pass(workload, lib, items, verifier, tally, until=until)
    if not latencies:
        raise SystemExit("error: every operation failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50_ms = statistics.median(latencies) * 1e3
    p90_ms = statistics.quantiles(latencies, n=10)[8] * 1e3 if len(latencies) > 1 else p50_ms
    metrics = {
        "throughput_per_s": (throughput(latencies, workload.block), "1/s"),
        "latency_p90_ms": (p90_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    beyond = sum(1 for t in latencies if t * 1e3 > p90_ms)
    note = (f"{len(latencies)} timed operations, {beyond} beyond p90, "
            f"{len(latencies) // workload.block} blocks of {workload.block}; "
            f"latency_p50_ms {p50_ms!r} ms (reported, not gated); "
            f"set-up is the median of {SETUP_REPS}")
    return metrics, note


def traced(workload, lib, items, seconds, tally, spans_path: Path) -> tuple[dict, str]:
    """Alternate whole untraced and traced passes over a prefix of the inputs.

    Alternating lets both sides of the tracing-overhead figure see the same
    host speed. Counters come out identical for a seed whatever the number
    of passes, because every traced pass repeats the same operations.
    """
    items = items[: workload.trace_ops]
    verifier = Verifier(workload, lib, items, tally)
    tracer = Tracer()
    plain: list[float] = []
    traced_latencies: list[float] = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        plain += run_pass(workload, lib, items, verifier, tally)
        tracer.keep_spans = passes == 0
        tracer.install()
        try:
            traced_latencies += run_pass(workload, lib, items, verifier, tally, tracer)
        finally:
            tracer.uninstall()
        passes += 1
    tracer.write_spans(spans_path)

    values = tracer.metrics(passes * len(items))
    untraced_tp = throughput(plain, workload.block)
    traced_tp = throughput(traced_latencies, workload.block)
    values["trace.overhead_pct"] = (1 - traced_tp / untraced_tp) * 100 if untraced_tp else 0.0
    metrics = {name: (values[name], unit) for name, unit in metric_units().items()}
    note = (f"{passes} untraced and {passes} traced passes of {len(items)} inputs; "
            f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "clickcz" / "__init__.py").is_file():
        print(f"error: no clickcz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is a dependency's import cost, paid before the timed set-ups.
    import numpy  # noqa: F401

    workload = WORKLOADS[args.workload]
    raw_warmups, raw_inputs = workload.generate(args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        setup_s, lib = set_up(workload, raw_warmups, workdir, tally)
        if not Path(lib.fock.__file__).resolve().is_relative_to(SRC):
            print(f"error: clickcz was imported from {lib.fock.__file__}", file=sys.stderr)
            return 2
        items = workload.prepare(lib, raw_inputs, _fresh_dir(workdir, "inputs"))
        if args.trace:
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
            metrics, note = traced(workload, lib, items, args.seconds, tally, spans)
        else:
            metrics, note = untraced(workload, lib, items, args.seconds, tally, setup_s)

    correct = tally.failed == 0
    print(f"# {workload.name} seed {args.seed}: {tally.attempted} operations, "
          f"{tally.failed} failed; {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
