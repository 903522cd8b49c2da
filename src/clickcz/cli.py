"""Experiment runner: named experiments, exact enumeration or seeded
sampling, JSON/CSV reports.

Mode indices in circuit files and human-facing output are 1-based (matching
the usual top-to-bottom numbering of optical diagrams); the library API is
0-based throughout.

Exit codes: 0 success, 2 configuration error, 3 verification mismatch,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import json.encoder
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import oracle, states
from .detection import pid
from .elements import ElementDescriptor, apply_circuit
from .fock import NORM_TOL, PureState, SimulatorError
from .gadgets import B2G_RULES

# The config fields each experiment reads besides --out; the gadget
# experiments read --samples and --seed with --mode sample only. A run-circuit
# report has no outcome rows, so it has no csv form and reads no --format.
_GADGET_FIELDS = ("mode", "input_path", "emit_states", "fmt")
_READS = {
    **dict.fromkeys(oracle.GADGETS, _GADGET_FIELDS),
    "pid-chain": ("depth", "fmt"),
    "verify": ("fmt",),
    "run-circuit": ("input_path", "circuit_path"),
}
EXPERIMENTS = tuple(_READS)


# Enumerated probabilities are trusted to NORM_TOL (1e-12), not to the last bit.
_SAMPLING_DECIMALS = 12

# numpy draws multinomial counts as 64-bit signed integers.
_MAX_SAMPLES = 2**63 - 1


class ConfigError(Exception):
    """Bad experiment configuration (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    mode: str = "enumerate"
    samples: int | None = None
    seed: int | None = None
    input_path: str | None = None
    circuit_path: str | None = None
    out_path: str | None = None
    fmt: str = "json"
    emit_states: bool = False
    depth: int = 4

    def validate(self) -> None:
        """Reject bad values, and set fields that the experiment does not read."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        reads = {"experiment", "out_path", *_READS[self.experiment]}
        if "mode" in reads and self.mode == "sample":
            reads |= {"samples", "seed"}
        for f in fields(self):
            if f.name in reads or getattr(self, f.name) == f.default:
                continue
            # the flag as typed: input_path is --input, emit_states --emit-states,
            # fmt --format
            name = "format" if f.name == "fmt" else f.name.removesuffix("_path")
            flag = "--" + name.replace("_", "-")
            if "mode" in reads and f.name in ("samples", "seed"):
                raise ConfigError(f"{flag} is read only with --mode sample")
            raise ConfigError(f"--experiment {self.experiment} does not read {flag}")
        if self.mode not in ("enumerate", "sample"):
            raise ConfigError(f"mode must be 'enumerate' or 'sample', got {self.mode!r}")
        if self.mode == "sample":
            if self.samples is None or self.samples < 1:
                raise ConfigError("sample mode requires --samples >= 1")
            if self.samples > _MAX_SAMPLES:
                raise ConfigError(f"--samples must be at most 2**63 - 1, got {self.samples}")
            if self.seed is None:
                raise ConfigError("sample mode requires --seed")
            if self.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {self.seed}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {self.fmt!r}")
        if self.fmt == "csv" and self.emit_states:
            raise ConfigError("--format csv has no room for --emit-states; use json")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == json.encoder.INFINITY:
        return "Infinity"
    if x == -json.encoder.INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# How json.dumps writes each scalar type; subclasses use their base's entry.
_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps_indented(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the types a report holds.

    Those are dicts with ``str`` keys, lists, tuples (named tuples included),
    ``str``, ``int``, ``float`` (subclasses such as ``np.float64`` included),
    booleans and ``None``; anything else raises ``TypeError``. Fragments go to
    one list, joined once. A container met again at the same depth replays the
    fragments it wrote the first time; keying that on ``(id, depth)`` is sound
    because ``obj`` keeps the whole tree alive for the call, so no id is
    reused within it. There is no cycle check; a report is a tree.
    """
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    out: list[str] = []
    _write_json(obj, 0, out, {})
    return "".join(out)


def _write_json(
    o: object, depth: int, out: list[str], spans: dict[tuple[int, int], tuple[int, int]]
) -> None:
    """Append the fragments of ``o``, which is not of an exact scalar type."""
    if not isinstance(o, (dict, list, tuple)):
        for base in (str, int, float):
            if isinstance(o, base):
                out.append(_JSON_SCALARS[base](o))
                return
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    span = spans.get((id(o), depth))
    if span is not None:
        out.extend(out[span[0] : span[1]])
        return
    start = len(out)
    if not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    else:
        pad = "\n" + "  " * depth
        sep = pad + "  "
        rest = "," + sep
        if isinstance(o, dict):
            out.append("{")
            # encode_basestring_ascii raises TypeError on a key that is not a str
            encode_key = json.encoder.encode_basestring_ascii
            for k in sorted(o):
                v = o[k]
                scalar = _JSON_SCALARS.get(type(v))
                if scalar is not None:
                    out.append(f"{sep}{encode_key(k)}: {scalar(v)}")
                else:
                    out.append(f"{sep}{encode_key(k)}: ")
                    _write_json(v, depth + 1, out, spans)
                sep = rest
            out.append(pad + "}")
        else:
            out.append("[")
            for v in o:
                scalar = _JSON_SCALARS.get(type(v))
                if scalar is not None:
                    out.append(sep + scalar(v))
                else:
                    out.append(sep)
                    _write_json(v, depth + 1, out, spans)
                sep = rest
            out.append(pad + "]")
    spans[id(o), depth] = (start, len(out))


@dataclass
class RunReport:
    """A run's outcomes and extras; entries of ``states`` may share one
    ``state`` dict when their kept states are the same object."""

    experiment: str
    mode: str
    outcomes: list[dict] = field(default_factory=list)
    success_probability: float | None = None
    extras: dict = field(default_factory=dict)
    states: list[dict] | None = None
    samples: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "experiment": self.experiment,
            "mode": self.mode,
            "outcomes": self.outcomes,
        }
        if self.success_probability is not None:
            out["success_probability"] = self.success_probability
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(self.extras)
        if self.states is not None:
            out["success_states"] = self.states
        return out

    def to_json(self) -> str:
        return _dumps_indented(self.to_json_dict()) + "\n"

    def to_csv(self) -> str:
        value_key = "frequency" if self.mode == "sample" else "probability"
        lines = ["experiment,label,disposition,probability_or_frequency"]
        for row in self.outcomes:
            lines.append(
                f"{self.experiment},{row['label']},{row['disposition']},{row[value_key]!r}"
            )
        return "\n".join(lines) + "\n"


def _load_state(path: str) -> PureState:
    text = Path(path).read_text()
    try:
        return PureState.from_json(text)
    except (KeyError, TypeError, ValueError, RecursionError, SimulatorError) as exc:
        raise ConfigError(f"malformed input state in {path}: {exc}") from exc


def _load_circuit(path: str) -> list[ElementDescriptor]:
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed circuit JSON in {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError("a circuit file must be a JSON array of element descriptors")
    try:
        return [ElementDescriptor.from_json_dict(d) for d in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad element descriptor: {exc}") from exc


def _sample_outcomes(
    aggregated: list[tuple[str, str, float]], samples: int, seed: int
) -> list[dict]:
    """Draw outcome counts with a counter-seeded generator.

    Probabilities are consumed in canonical label order, so identical
    configurations reproduce identical reports byte for byte. A set whose
    sum is off from 1 by more than ``NORM_TOL`` is refused, not renormalized.
    The rest are rounded to ``_SAMPLING_DECIMALS`` places first: the binomial
    draws branch on ``floor((n + 1) p)``, which for the paper's exact
    fractions sits on an integer, so a last-bit change in an enumerated
    probability would otherwise move a count.
    """
    import numpy as np  # only sampling needs numpy; enumerate runs start without it

    probs = np.array([p for _, _, p in aggregated], dtype=float)
    total = probs.sum()
    if not abs(total - 1.0) <= NORM_TOL:
        raise SimulatorError(f"outcome probabilities sum to {total!r}, not 1")
    probs = np.round(probs / total, _SAMPLING_DECIMALS)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(samples, probs)
    return [
        {"label": label, "disposition": disposition, "frequency": count / samples}
        for (label, disposition, _), count in zip(aggregated, counts)
    ]


def _probability_outcomes(aggregated: list[tuple[str, str, float]]) -> list[dict]:
    return [
        {"label": label, "disposition": disposition, "probability": p}
        for label, disposition, p in aggregated
    ]


def _gadget_report(config: ExperimentConfig, input_state: PureState | None) -> RunReport:
    result = oracle.GADGETS[config.experiment](input_state)
    rows = oracle.outcome_rows(result.ensemble)
    aggregated = oracle.aggregate_probabilities(rows)
    keep_probability = sum((p for _, d, p in aggregated if d == "keep"), 0.0)

    extras: dict = {}
    success = keep_probability
    if config.experiment == "b2g":
        # heralded keep is 3/4; a pure GHZ state is extracted half the time
        ghz = states.ghz_plus()
        pure_ghz = sum(
            (
                r.probability
                for r in rows
                if r.disposition == "keep"
                and r.state.modes == ghz.modes
                and r.state.equal_up_to_global_phase(ghz)
            ),
            0.0,
        )
        extras["keep_probability"] = keep_probability
        success = pure_ghz
    elif config.experiment == "pipeline":
        extras["ancilla_probability"] = result.ancilla_probability

    report = RunReport(
        experiment=config.experiment,
        mode=config.mode,
        success_probability=success,
        extras=extras,
    )
    if config.mode == "sample":
        report.samples = config.samples
        report.seed = config.seed
        report.outcomes = _sample_outcomes(aggregated, config.samples, config.seed)
    else:
        report.outcomes = _probability_outcomes(aggregated)
    if config.emit_states:
        # kept branches share state objects; render each one once
        kept = [r for r in rows if r.disposition == "keep"]
        distinct = {id(r.state): r.state for r in kept}
        rendered = {key: state.to_json_dict() for key, state in distinct.items()}
        report.states = [{"label": r.label, "state": rendered[id(r.state)]} for r in kept]
    return report


def _pid_chain_report(config: ExperimentConfig) -> RunReport:
    d = config.depth
    if not 2 <= d <= 8:
        raise ConfigError(f"pid-chain depth must be in 2..8, got {d}")
    ensemble = pid(states.phi_plus(d), d - 1, B2G_RULES, site="pid-chain")
    target = states.phi_plus(d - 1)
    fidelities = [abs(b.state.inner_product(target)) ** 2 for b in ensemble.branches]
    aggregated = oracle.aggregate_probabilities(oracle.outcome_rows(ensemble))
    return RunReport(
        experiment="pid-chain",
        mode="enumerate",
        outcomes=_probability_outcomes(aggregated),
        success_probability=ensemble.keep_weight,
        extras={"depth": d, "fidelity": min([1.0, *fidelities])},
    )


def _verify_report() -> tuple[RunReport, bool]:
    reports = oracle.verify_all_tables()
    outcomes = []
    for table in reports:
        for row in table.rows:
            outcomes.append(
                {
                    "label": f"table{table.table_id}:{row.key}",
                    "disposition": "match" if row.matched else "mismatch",
                    "probability": row.max_deviation,
                }
            )
    all_matched = all(t.matched for t in reports)
    report = RunReport(
        experiment="verify",
        mode="enumerate",
        outcomes=outcomes,
        extras={"all_matched": all_matched},
    )
    return report, all_matched


def _run_circuit_report(config: ExperimentConfig) -> RunReport:
    if config.input_path is None:
        raise ConfigError("run-circuit requires --input")
    if config.circuit_path is None:
        raise ConfigError("run-circuit requires --circuit")
    state = _load_state(config.input_path)
    circuit = _load_circuit(config.circuit_path)
    final = apply_circuit(state, circuit)
    return RunReport(
        experiment="run-circuit",
        mode="enumerate",
        extras={"final_state": final.to_json_dict(), "norm2": final.norm2},
    )


def run(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute one experiment; returns the report and the process exit code."""
    config.validate()
    if config.experiment == "pid-chain":
        return _pid_chain_report(config), 0
    if config.experiment == "verify":
        report, matched = _verify_report()
        return report, 0 if matched else 3
    if config.experiment == "run-circuit":
        return _run_circuit_report(config), 0
    input_state = _load_state(config.input_path) if config.input_path else None
    return _gadget_report(config, input_state), 0


def _write_report(report: RunReport, config: ExperimentConfig) -> None:
    text = report.to_csv() if config.fmt == "csv" else report.to_json()
    if config.out_path:
        Path(config.out_path).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    """The command line; an omitted flag keeps its ``ExperimentConfig`` default."""
    parser = argparse.ArgumentParser(
        prog="clickcz",
        description="Polarization-encoded linear-optics experiments with bucket detectors.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--mode", choices=("enumerate", "sample"))
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--input", dest="input_path", metavar="FILE")
    parser.add_argument("--circuit", dest="circuit_path", metavar="FILE")
    parser.add_argument("--out", dest="out_path", metavar="FILE")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"))
    parser.add_argument("--emit-states", action="store_true")
    parser.add_argument("--depth", type=int, help="chain length for the pid-chain experiment")
    return parser


def main(argv: list[str] | None = None) -> int:
    config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
    started = time.perf_counter()
    try:
        report, code = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    try:
        _write_report(report, config)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    if report.success_probability is not None:
        print(
            f"# {config.experiment}: success probability {report.success_probability:.6g}"
            f" ({elapsed * 1e3:.1f} ms)",
            file=sys.stderr,
        )
    else:
        print(f"# {config.experiment}: done ({elapsed * 1e3:.1f} ms)", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
