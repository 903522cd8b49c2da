"""Default CLI reports keep their content from one change to the next.

Each enumerated report is canonicalized and hashed: every float rounded to
12 decimals (the scale of ``NORM_TOL``, so a last-bit move or a libm
difference between machines does not count), ``-0.0`` read as ``0.0``, and
the result written as compact JSON with sorted keys. A changed label, row,
order, state or extra changes the digest. Sampled reports are left out,
since numpy does not promise the same Generator stream across versions.

``F`` in a flag list stands for a fixed complex entangled input,
``states.two_qubit(1, 1j, -1, 0.5)``: on the real default input a wrong
correction phase barely shows.

After a deliberate change to a report, recompute a digest with
``_digest`` on the new output and say why in the change log.
"""

import hashlib
import json

import pytest

from clickcz import states
from clickcz.cli import main

DIGESTS = {
    "--experiment b2g": "cfccc7e4aa1e9fe09a36ab43ff099fe9430fcf7cfedd5203914314520d9d30e3",
    "--experiment b2g --emit-states": "69d0d3b7a95524f7bd103f5ee92fe7352132e3dfcd3328ea08f2cea9aa1e5930",
    "--experiment g2a": "5b79da0e6de0fd1d848efa9bf69c46d5adb8f2b704f26cf7eee18f23b6ee62e2",
    "--experiment g2a --emit-states": "10b3a30a27de8c2fcf050b86e8b241ab5891a27f3f0754b51e6ec9671bcaaa3c",
    "--experiment a2c": "186602cf5d2ff0b1fbac6f0cc1e5099736edf307927de8b24dfdbba7c8d6c88e",
    "--experiment a2c --emit-states": "7506fbe927d9948af8be581542c8fa3a05b7c2e131f1f6336f3f055a1b422f16",
    "--experiment cz": "3147e5d5d9869b56cd91b8c2c2c48ba7475d86a5457589def7b7d5e2e41801b8",
    "--experiment cz --emit-states": "568e374b1349be21aaff0143278672c10f51cb5391cacad45c2f0d6444c3793e",
    "--experiment pipeline": "12cfb5a082500f6a64074909c1ab39319d735e64e594ca355db5cc6266413566",
    "--experiment pipeline --emit-states": "a1fa0d0b2c22020fb49983b0e33bba4f9aba3c1d725435741ad4cb91a6c0fc51",
    "--experiment pid-chain --depth 4": "953aa3abf6b5adf73e0e302b43b2d99a473dcb4910f9f6cadab5c2027779fd69",
    "--experiment pid-chain --depth 8": "da0418475236c9495faf5c73faf05021533418a52ed9429d0da6aece19bd44bf",
    "--experiment cz --input F --emit-states": "ad682ef993792f96117901d4d0995196f5318173a0fc98862e443d4338516917",
    "--experiment pipeline --input F --emit-states": "9d1473eb2af4ce0ccac93265787d7f11f3081bd67f47f562ec537fd0977c5557",
    "--experiment verify": "0f1cc96d4024b34c94e67a6635bb72428daebd9fab9eb6a3236048c9dbf781fd",
}


def _canonical(value):
    if isinstance(value, float):
        return round(value, 12) + 0.0
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def _digest(text: str) -> str:
    canonical = json.dumps(_canonical(json.loads(text)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("flags", list(DIGESTS))
def test_report_digest(flags, tmp_path):
    out, state = tmp_path / "report.json", tmp_path / "input.json"
    state.write_text(states.two_qubit(1, 1j, -1, 0.5).to_json())
    argv = [str(state) if arg == "F" else arg for arg in flags.split()]
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out.read_text()) == DIGESTS[flags]
