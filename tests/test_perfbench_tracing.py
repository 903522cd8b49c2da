"""The benchmark's layer tracer must still find every boundary it wraps.

``perfbench/tracing.py`` wraps 24 library functions and methods by name. A
rename or a removed binding breaks ``perfbench/run.py --trace 1``; this test
catches that in the unit suite. The tracer source is executed from its text,
so nothing is written under ``perfbench/``.
"""

import sys
import types
from pathlib import Path

import clickcz.cli  # noqa: F401  (the tracer wraps bindings of loaded modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded clickcz module and boundary class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "clickcz" or name.startswith("clickcz."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (clickcz.fock.PureState, clickcz.cli.RunReport):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_install_wraps_every_boundary_and_uninstall_restores():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {(id(owner), name) for owner, name, _ in tracer._restore}
        assert len(tracer._restore) >= len(tracing.BOUNDARIES) == 24
        for _prefix, module, attr, *_ in tracing.BOUNDARIES:
            owner = sys.modules[module]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert (id(owner), name) in wrapped, attr
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
