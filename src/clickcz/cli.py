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
from .fock import NORM_TOL, PureState, SimulatorError, _integer
from .gadgets import B2G_RULES

# Enumerated probabilities are trusted to NORM_TOL (1e-12), not to the last bit.
_SAMPLING_DECIMALS = 12

# numpy draws multinomial counts as 64-bit signed integers.
_MAX_SAMPLES = 2**63 - 1


class ConfigError(Exception):
    """Bad experiment configuration (exit code 2)."""


def _flag(name: str) -> str:
    """A config field's flag as typed: input_path is --input, emit_states
    --emit-states, fmt --format."""
    name = "format" if name == "fmt" else name.removesuffix("_path")
    return "--" + name.replace("_", "-")


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
        # a list is unhashable, so the table lookup would raise a bare TypeError
        if not isinstance(self.experiment, str):
            raise ConfigError(f"--experiment must be a str, got {self.experiment!r}")
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        try:
            # stored as Python ints, so a numpy integer reaches the report as one
            for name in ("samples", "seed", "depth"):
                if getattr(self, name) is not None or name == "depth":
                    object.__setattr__(self, name, _integer(getattr(self, name), "--" + name))
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        # a string such as "false" is truthy, and Path() raises a bare TypeError
        if not isinstance(self.emit_states, bool):
            raise ConfigError(f"--emit-states must be a bool, got {self.emit_states!r}")
        for name in ("input_path", "circuit_path", "out_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{_flag(name)} must be a str, got {value!r}")
        reads = {"experiment", "out_path", *_EXPERIMENTS[self.experiment][0]}
        if "mode" in reads and self.mode == "sample":
            reads |= {"samples", "seed"}
        for f in fields(self):
            if f.name in reads or getattr(self, f.name) == f.default:
                continue
            flag = _flag(f.name)
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
        if self.experiment == "pid-chain" and not 2 <= self.depth <= 8:
            raise ConfigError(f"pid-chain depth must be in 2..8, got {self.depth}")
        if self.experiment == "run-circuit" and None in (self.input_path, self.circuit_path):
            flag = "--input" if self.input_path is None else "--circuit"
            raise ConfigError(f"run-circuit requires {flag}")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == json.encoder.INFINITY:
        return "Infinity"
    if x == -json.encoder.INFINITY:
        return "-Infinity"
    return float.__repr__(x)


class _Written(str):
    """JSON text that ``RunReport.to_json`` wrote itself, at the depth where
    it goes; the writer appends it as it is."""


# How json.dumps writes each scalar type; subclasses use their base's entry.
_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    _Written: lambda text: text,
}


def _dumps_indented(obj: object, depth: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the types a report holds.

    Those are dicts with ``str`` keys, lists, tuples (named tuples included),
    ``str``, ``int``, ``float`` (subclasses such as ``np.float64`` included),
    booleans and ``None``; anything else raises ``TypeError``. At ``depth``
    greater than 0, the text is the one ``obj`` has as a value that many
    levels down in a larger document: each line after the first is indented
    ``depth`` levels more. Fragments go to one list, joined once. A
    container met again at the same depth replays the fragments it wrote the
    first time: its first replay joins them into one string, and every
    replay appends that one string. Keying that on ``(id, depth)`` is sound
    because ``obj`` keeps the whole tree alive for the call, so no id is
    reused within it. There is no cycle check; a report is a tree.
    """
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    out: list[str] = []
    _write_json(obj, depth, out, {})
    return "".join(out)


def _write_json(
    o: object, depth: int, out: list[str], spans: dict[tuple[int, int], tuple[int, int] | str]
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
        if type(span) is tuple:
            span = spans[id(o), depth] = "".join(out[span[0] : span[1]])
        out.append(span)
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


# The pads of a report row, an item of a list at depth 1, and of its fields.
_ROW = "\n    "
_FIELD = "\n      "
_encode = json.encoder.encode_basestring_ascii


def _outcome_row(row: object) -> str:
    """An ``outcomes`` row at depth 2, in one f-string when it holds exactly
    a ``str`` label and disposition and a ``float`` probability or frequency;
    any other row goes through ``_dumps_indented``."""
    if type(row) is dict and len(row) == 3:
        label, disposition = row.get("label"), row.get("disposition")
        probability, frequency = row.get("probability"), row.get("frequency")
        if type(label) is str and type(disposition) is str:
            head = f'{{{_FIELD}"disposition": {_encode(disposition)},{_FIELD}'
            if type(probability) is float:
                return (
                    f'{head}"label": {_encode(label)},'
                    f'{_FIELD}"probability": {_float_text(probability)}{_ROW}}}'
                )
            if type(frequency) is float:
                return (
                    f'{head}"frequency": {_float_text(frequency)},'
                    f'{_FIELD}"label": {_encode(label)}{_ROW}}}'
                )
    return _dumps_indented(row, 2)


def _state_entry(entry: object, written: dict[int, str]) -> str:
    """A ``success_states`` entry at depth 2, in one f-string when it holds
    exactly a ``str`` label and a state; the state is written once per
    object, into ``written``. Any other entry goes through ``_dumps_indented``."""
    if type(entry) is dict and len(entry) == 2 and "state" in entry:
        label, state = entry.get("label"), entry["state"]
        if type(label) is str:
            text = written.get(id(state))
            if text is None:
                text = written[id(state)] = _dumps_indented(state, 3)
            return f'{{{_FIELD}"label": {_encode(label)},{_FIELD}"state": {text}{_ROW}}}'
    return _dumps_indented(entry, 2)


@dataclass
class RunReport:
    """A run's outcomes and extras. A sampled run's ``samples`` and ``seed``
    and the ``--emit-states`` list ``success_states`` are extras; entries of
    that list may share one ``state`` dict when their kept states are the
    same object."""

    experiment: str
    mode: str
    outcomes: list[dict] = field(default_factory=list)
    success_probability: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"experiment": self.experiment, "mode": self.mode, "outcomes": self.outcomes}
        if self.success_probability is not None:
            out["success_probability"] = self.success_probability
        return out | self.extras

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=2)``, and a newline.

        The report writes the rows it defines itself: each ``outcomes`` row
        (``_outcome_row``) and each ``success_states`` entry
        (``_state_entry``, one rendering per distinct state dict) is one
        f-string. A row of any other shape, and every other key, goes
        through ``_dumps_indented``.
        """
        report = self.to_json_dict()
        written: dict[int, str] = {}
        writers = (
            ("outcomes", _outcome_row),
            ("success_states", lambda entry: _state_entry(entry, written)),
        )
        for key, write in writers:
            rows = report.get(key)
            if type(rows) is list:
                report[key] = [_Written(write(row)) for row in rows]
        # the newline goes into the one join: the text is copied once, not twice
        out: list[str] = []
        _write_json(report, 0, out, {})
        out.append("\n")
        return "".join(out)

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
        {"label": label, "disposition": disposition, "frequency": float(count / samples)}
        for (label, disposition, _), count in zip(aggregated, counts)
    ]


def _probability_outcomes(aggregated: list[tuple[str, str, float]]) -> list[dict]:
    return [
        {"label": label, "disposition": disposition, "probability": p}
        for label, disposition, p in aggregated
    ]


def _gadget_report(config: ExperimentConfig) -> tuple[RunReport, int]:
    input_state = _load_state(config.input_path) if config.input_path else None
    result = oracle.GADGETS[config.experiment](input_state)
    table = oracle.outcome_table(result.ensemble)
    aggregated = oracle.aggregate_probabilities(table)
    success = sum((p for _, d, p in aggregated if d == "keep"), 0.0)
    kept = [(label, group) for (label, d), group in table.items() if d == "keep"]

    extras: dict = {}
    if config.experiment == "b2g":
        # heralded keep is 3/4; a pure GHZ state is extracted half the time
        extras["keep_probability"] = success
        ghz = states.ghz_plus()
        success = sum(
            (
                weight
                for _, group in kept
                for weight, state in group
                if state.modes == ghz.modes and state.equal_up_to_global_phase(ghz)
            ),
            0.0,
        )
    elif config.experiment == "pipeline":
        extras["ancilla_probability"] = result.ancilla_probability

    if config.mode == "sample":
        extras.update(samples=config.samples, seed=config.seed)
        outcomes = _sample_outcomes(aggregated, config.samples, config.seed)
    else:
        outcomes = _probability_outcomes(aggregated)
    if config.emit_states:
        # kept branches share state objects; render each one once
        distinct = {id(state): state for _, group in kept for _, state in group}
        rendered = {key: state.to_json_dict() for key, state in distinct.items()}
        extras["success_states"] = [
            {"label": label, "state": rendered[id(state)]}
            for label, group in kept
            for _, state in group
        ]
    return RunReport(config.experiment, config.mode, outcomes, success, extras), 0


def _pid_chain_report(config: ExperimentConfig) -> tuple[RunReport, int]:
    d = config.depth
    ensemble = pid(states.phi_plus(d), d - 1, B2G_RULES, site="pid-chain")
    target = states.phi_plus(d - 1)
    fidelities = [abs(b.state.inner_product(target)) ** 2 for b in ensemble.branches]
    aggregated = oracle.aggregate_probabilities(oracle.outcome_table(ensemble))
    return RunReport(
        experiment="pid-chain",
        mode="enumerate",
        outcomes=_probability_outcomes(aggregated),
        success_probability=ensemble.keep_weight,
        extras={"depth": d, "fidelity": min([1.0, *fidelities])},
    ), 0


def _verify_report(config: ExperimentConfig) -> tuple[RunReport, int]:
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
    return report, 0 if all_matched else 3


def _run_circuit_report(config: ExperimentConfig) -> tuple[RunReport, int]:
    state = _load_state(config.input_path)
    circuit = _load_circuit(config.circuit_path)
    final = apply_circuit(state, circuit)
    return RunReport(
        experiment="run-circuit",
        mode="enumerate",
        extras={"final_state": final.to_json_dict(), "norm2": final.norm2},
    ), 0


# Each experiment's config fields besides --out, and its builder, which returns
# the report and the exit code. The gadget experiments read --samples and
# --seed with --mode sample only. A run-circuit report has no outcome rows, so
# it has no csv form and reads no --format.
_EXPERIMENTS = {
    **dict.fromkeys(
        oracle.GADGETS, (("mode", "input_path", "emit_states", "fmt"), _gadget_report)
    ),
    "pid-chain": (("depth", "fmt"), _pid_chain_report),
    "verify": (("fmt",), _verify_report),
    "run-circuit": (("input_path", "circuit_path"), _run_circuit_report),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute one experiment; returns the report and the process exit code."""
    config.validate()
    return _EXPERIMENTS[config.experiment][1](config)


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
        elapsed = time.perf_counter() - started
        text = report.to_csv() if config.fmt == "csv" else report.to_json()
        if config.out_path:
            Path(config.out_path).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
