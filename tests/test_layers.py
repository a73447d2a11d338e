"""The tracing boundaries of perfbench/layers.py name functions the package has."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.BOUNDARIES


def test_every_boundary_resolves():
    # a renamed function fails here instead of in the traced benchmark run:
    # the tracer wraps functions by module attribute, methods from the
    # class __dict__
    missing = []
    for name, module, attr in _boundaries():
        owner = importlib.import_module(f"superkron.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(method))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((name, module, attr))
    assert not missing
