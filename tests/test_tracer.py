"""The benchmark's tracer still finds every name it wraps in mipsched."""

import importlib.util
from pathlib import Path

import mipsched
import mipsched.cli  # noqa: F401  (loads every module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve_and_uninstall_restores_them():
    tracer = load_tracer()
    targets = tracer.targets(mipsched)
    assert targets
    originals = []
    for module, attr, _name, _kind, _attrs in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        originals.append(getattr(module, attr))

    t = tracer.Tracer()
    t.install(mipsched)
    try:
        for (module, attr, *_rest), original in zip(targets, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        t.uninstall()
    for (module, attr, *_rest), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
