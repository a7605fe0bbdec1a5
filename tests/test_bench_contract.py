"""Every name the benchmark's tracer binds by name still resolves in csanet.

perfbench/trace.py wraps ops, calls and methods it looks up with getattr;
a rename or deletion in csanet would crash the traced benchmark run. This
test reads perfbench/ and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
trace = importlib.import_module("perfbench.trace")


def csanet_module(name):
    return importlib.import_module(f"csanet.{name}")


@pytest.mark.parametrize("name", trace.OP_NAMES)
def test_op_names_resolve(name):
    assert callable(getattr(csanet_module("ops"), name))


@pytest.mark.parametrize("module, function, span", trace.OPS + trace.CALLS)
def test_ops_and_calls_resolve(module, function, span):
    assert callable(getattr(csanet_module(module), function)), span


@pytest.mark.parametrize("module, cls, method, span", trace.METHODS)
def test_methods_resolve(module, cls, method, span):
    # The tracer rebinds the method found in the class's own __dict__.
    assert callable(getattr(csanet_module(module), cls).__dict__[method]), span
