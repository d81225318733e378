"""The package names the benchmark's layer tracer binds.

`perfbench/layertrace.py` wraps the functions in SPANS and the methods in
COUNTED by name when a traced run starts; a renamed or deleted name would
otherwise surface only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402

sys.path.pop(0)


@pytest.mark.parametrize("module_name", sorted(layertrace.SPANS))
def test_every_span_function_exists(module_name):
    module = importlib.import_module(module_name)
    for attr in layertrace.SPANS[module_name]:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_the_span_all_public_module_exists():
    assert importlib.import_module(layertrace.SPAN_ALL_PUBLIC)


@pytest.mark.parametrize("counter", sorted(layertrace.COUNTED))
def test_every_counted_method_exists(counter):
    module_name, cls_name, attrs = layertrace.COUNTED[counter]
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    for attr in attrs:
        assert callable(getattr(owner, attr, None)), f"{counter}: {attr}"
