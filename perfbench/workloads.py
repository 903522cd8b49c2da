"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Each workload turns a seed into plain Python data first (``generate``), so the
library never sees the generator, then into library inputs (``prepare``).
``run`` is the timed operation; ``check`` validates one output outside the
timed interval and raises ``CheckFailed``; ``digest`` fingerprints an output
bit for bit, so a traced run can be compared with an untraced one.

Library functions are always reached through their module (``lib.gadgets.
cz_gate``), never captured, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

TOL = 1e-12

# Dual-rail occupancies of one spatial mode.
H, V = (1, 0), (0, 1)
TWO_QUBIT_BASIS = ((H, H), (H, V), (V, H), (V, V))


class CheckFailed(Exception):
    """An output broke one of the paper's contract numbers or an invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _max_deviation(actual: dict, expected: dict, phase: complex = 1.0) -> float:
    keys = set(actual) | set(expected)
    return max(abs(actual.get(k, 0j) - phase * expected.get(k, 0j)) for k in keys)


def _controlled_phase(amps: dict) -> dict:
    """The controlled-phase image of a two-qubit state: |VV> changes sign."""
    return {vec: (-a if vec == (V, V) else a) for vec, a in amps.items()}


def _random_two_qubit(rng: random.Random, kind: str) -> dict:
    """A normalized two-qubit amplitude map of the given kind."""
    if kind == "basis":
        return {rng.choice(TWO_QUBIT_BASIS): 1 + 0j}
    if kind == "product":
        a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
        raw = (a * c, a * d, b * c, b * d)
    else:
        raw = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
    norm = math.sqrt(sum(abs(x) ** 2 for x in raw))
    return {vec: x / norm for vec, x in zip(TWO_QUBIT_BASIS, raw)}


class Workload:
    name = ""
    inputs = 0          # distinct inputs, cycled through by an untraced run
    warmups = 0         # operations in each set-up
    trace_ops = 0       # inputs in one traced pass (a prefix of the inputs)
    block = 0           # operations per throughput block, a fraction of a second

    def generate(self, seed: int) -> tuple[list, list]:
        """(warm-up inputs, measured inputs) as plain data."""
        warm = random.Random(f"{self.name}:{seed}:warmup")
        main = random.Random(f"{self.name}:{seed}")
        return (
            [self.make(warm, i) for i in range(self.warmups)],
            [self.make(main, i) for i in range(self.inputs)],
        )

    def make(self, rng: random.Random, i: int):
        raise NotImplementedError

    def prepare(self, lib, raw: list, workdir: Path) -> list:
        raise NotImplementedError

    def run(self, lib, item):
        raise NotImplementedError

    def check(self, lib, item, out) -> None:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


class Gate(Workload):
    """``cz_gate`` with the ideal ancilla on basis, product and entangled inputs."""

    name = "gate"
    inputs = 48
    # enough warm-up work (about half a second) that one set-up spans
    # several host speed changes instead of landing in one
    warmups = 32
    trace_ops = 24
    block = 16
    KINDS = ("basis", "product", "entangled")

    def make(self, rng, i):
        # A fixed kind rotation keeps the mix, and so the cost, equal across seeds.
        return _random_two_qubit(rng, self.KINDS[i % len(self.KINDS)])

    def prepare(self, lib, raw, workdir):
        return [(amps, lib.fock.PureState(2, amps)) for amps in raw]

    def run(self, lib, item):
        return lib.gadgets.cz_gate(item[1])

    def check(self, lib, item, out):
        amps, _state = item
        _require(abs(out.success_probability - 0.25) <= TOL,
                 f"cz_gate success {out.success_probability!r}, expected 1/4")
        kept = out.success_branches()
        _require(len(kept) == 16, f"cz_gate kept {len(kept)} branches, expected 16")
        target = _controlled_phase(amps)
        for branch in kept:
            dev = _max_deviation(dict(branch.state.items()), target)
            _require(dev <= TOL, f"branch {branch.label} deviates by {dev:.3g}")

    def digest(self, out):
        return _digest([(b.label, b.disposition, b.weight, b.state.items())
                        for b in out.ensemble.branches])


class Pipeline(Workload):
    """``clickcz --experiment pipeline --input F --emit-states``, in process."""

    name = "pipeline"
    inputs = 4
    warmups = 1
    trace_ops = 2
    block = 1
    KINDS = ("product", "entangled")

    def make(self, rng, i):
        return _random_two_qubit(rng, self.KINDS[i % len(self.KINDS)])

    def prepare(self, lib, raw, workdir):
        items = []
        for i, amps in enumerate(raw):
            # The canonical state JSON the CLI reads, written without the library.
            terms = [{"occ": [list(m) for m in vec], "re": a.real, "im": a.imag}
                     for vec, a in sorted(amps.items())]
            path = workdir / f"input-{i}.json"
            path.write_text(json.dumps({"modes": 2, "terms": terms}))
            config = lib.cli.ExperimentConfig(
                experiment="pipeline", input_path=str(path), emit_states=True)
            items.append((amps, config))
        return items

    def run(self, lib, item):
        report, code = lib.cli.run(item[1])
        return report, code, report.to_json()

    def check(self, lib, item, out):
        amps, _config = item
        report, code, text = out
        _require(code == 0, f"exit code {code}")
        _require(abs(report.success_probability - 1 / 32) <= TOL,
                 f"pipeline success {report.success_probability!r}, expected 1/32")
        ancilla = report.extras["ancilla_probability"]
        _require(abs(ancilla - 1 / 8) <= TOL, f"ancilla {ancilla!r}, expected 1/8")
        total = sum(row["probability"] for row in report.outcomes)
        _require(abs(total - 1.0) <= TOL, f"outcome probabilities sum to {total!r}")
        emitted = json.loads(text)["success_states"]
        _require(len(emitted) > 0, "no kept states emitted")
        target = _controlled_phase(amps)
        for entry in emitted:
            state = {tuple(tuple(m) for m in t["occ"]): complex(t["re"], t["im"])
                     for t in entry["state"]["terms"]}
            overlap = sum(target.get(k, 0j).conjugate() * a for k, a in state.items())
            _require(abs(abs(overlap) - 1.0) <= TOL,
                     f"state {entry['label']} overlap {abs(overlap)!r}")
            phase = overlap / abs(overlap)
            dev = _max_deviation(state, target, phase)
            _require(dev <= TOL, f"state {entry['label']} deviates by {dev:.3g}")

    def digest(self, out):
        report, code, text = out
        return _digest((code, text))


class Circuit(Workload):
    """Random 12-element circuits on 4-mode, 4-6 photon states, then ``measure_nr``."""

    name = "circuit"
    inputs = 240
    warmups = 3
    trace_ops = 30
    block = 36
    MODES = 4
    PHOTONS = (4, 5, 6)
    INPUT_TERMS = 3
    LENGTH = 12
    KINDS = ("BS", "PBS", "PR", "PS", "PDPS")

    def make(self, rng, i):
        photons = self.PHOTONS[i % len(self.PHOTONS)]
        amps: dict = {}
        while len(amps) < self.INPUT_TERMS:
            rails = [0] * (2 * self.MODES)
            for _ in range(photons):
                rails[rng.randrange(len(rails))] += 1
            vec = tuple((rails[2 * m], rails[2 * m + 1]) for m in range(self.MODES))
            amps[vec] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        amps = {vec: a / norm for vec, a in amps.items()}
        # every kind twice, the rest drawn at random, in random order; the
        # fixed core keeps the mix of kinds alike from seed to seed
        kinds = list(self.KINDS) * 2
        kinds += [rng.choice(self.KINDS) for _ in range(self.LENGTH - len(kinds))]
        rng.shuffle(kinds)
        circuit = []
        for kind in kinds:
            if kind in ("BS", "PBS"):
                circuit.append((kind, tuple(rng.sample(range(self.MODES), 2)), None))
            else:
                circuit.append((kind, (rng.randrange(self.MODES),), rng.uniform(0, 2 * math.pi)))
        measured = tuple(sorted(rng.sample(range(self.MODES), 2)))
        return photons, amps, circuit, measured

    @staticmethod
    def _element(lib, kind, targets, angle):
        el = lib.elements
        if kind == "BS":
            return el.bs(*targets)
        if kind == "PBS":
            return el.pbs(*targets)
        return {"PR": el.pr, "PS": el.ps, "PDPS": el.pdps}[kind](targets[0], angle)

    def prepare(self, lib, raw, workdir):
        items = []
        for photons, amps, circuit, measured in raw:
            forward = [self._element(lib, *spec) for spec in circuit]
            # BS (real Hadamard) and PBS are self-inverse; PR, PS, PDPS invert
            # by negating the angle.
            inverse = [self._element(lib, k, t, None if a is None else -a)
                       for k, t, a in reversed(circuit)]
            state = lib.fock.PureState(self.MODES, amps)
            items.append((photons, amps, state, forward, inverse, measured))
        return items

    def run(self, lib, item):
        _photons, _amps, state, forward, _inverse, measured = item
        out = lib.elements.apply_circuit(state, forward)
        return out, lib.detection.measure_nr(out, measured, site="circuit")

    def check(self, lib, item, out):
        photons, amps, _state, _forward, inverse, _measured = item
        final, ensemble = out
        terms = dict(final.items())
        norm2 = sum(abs(a) ** 2 for a in terms.values())
        _require(abs(norm2 - 1.0) <= TOL, f"norm² {norm2!r} after the circuit")
        mean_n = sum(abs(a) ** 2 * sum(h + v for h, v in vec) for vec, a in terms.items())
        _require(abs(mean_n - photons) <= TOL, f"photon number {mean_n!r}, expected {photons}")
        total = sum(b.weight for b in ensemble.branches)
        _require(abs(total - 1.0) <= TOL, f"measured weights sum to {total!r}")
        restored = dict(lib.elements.apply_circuit(final, inverse).items())
        dev = _max_deviation(restored, amps)
        _require(dev <= TOL, f"inverse circuit leaves a deviation of {dev:.3g}")

    def digest(self, out):
        final, ensemble = out
        return _digest((final.items(), [(b.label, b.weight, b.state.items())
                                         for b in ensemble.branches]))


WORKLOADS = {w.name: w for w in (Gate(), Pipeline(), Circuit())}
