"""The benchmark's tracer still finds what it wraps.

`perfbench/tracing.py` wraps program functions by their module and name and
binds their arguments by name; a renamed function or parameter would only
blind the trace, not fail a run.  This test reads the tracer's table as it
stands and checks it against the program.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attribute):
    """The function a tracer entry wraps, found the way `Tracer.install` finds it."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return (owner.__dict__ if owner_name else vars(module))[name]


def test_every_tracer_target_resolves(tracing):
    missing = []
    for module_name, attribute, _span in tracing.TARGETS:
        try:
            resolve(module_name, attribute)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{attribute}")
    assert tracing.TARGETS and not missing


@pytest.mark.parametrize(
    "module_name, name, parameters",
    [
        ("pashtext.pipeline", "preprocess", ["corpus"]),
        ("pashtext.vectorize", "build_vocabulary", ["train_docs"]),
        ("pashtext.vectorize", "vectorize_documents", ["docs"]),
        ("pashtext.models", "train", ["kind", "matrix"]),
    ],
)
def test_traced_functions_take_the_parameters_the_hooks_bind(
    tracing, module_name, name, parameters
):
    assert (module_name, name) in {(entry[0], entry[1]) for entry in tracing.TARGETS}
    signature = inspect.signature(resolve(module_name, name))
    assert set(parameters) <= set(signature.parameters)
