"""The traced benchmark (bench/layers.py) wraps vtspot globals by name.

A change that removes or renames one of them would make the traced run
report that layer as absent; these checks catch it in the unit tests.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from vtspot.tracker import Tracker

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_global_exists(layers):
    for module_name, attr, _, _ in layers.LEAF_TARGETS:
        module = importlib.import_module(f"vtspot.{module_name}")
        assert callable(getattr(module, attr, None)), f"vtspot.{module_name}.{attr}"


def test_every_wrapped_tracker_method_exists(layers):
    for attr, _ in layers.METHOD_TARGETS:
        # the tracer wraps the attribute found in the class's own namespace
        assert callable(Tracker.__dict__.get(attr)), f"Tracker.{attr}"
