"""The names that the benchmark's tracer wraps still exist.

perfbench/tracing.py wraps each name in LAYERS, and each workload's
EXPECTED_SPANS must record calls. It is loaded here as it stands, so a
refactor that drops or renames a traced function fails the tests, not only
the benchmark's traced runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name", tracing.LAYERS)
def test_every_layer_name_resolves_in_its_module(module_name):
    module = importlib.import_module(f"schurcalc.{module_name}")
    missing = [
        name for name in tracing.LAYERS[module_name] if not callable(getattr(module, name, None))
    ]
    assert not missing, f"schurcalc.{module_name} no longer defines {missing}"


def test_the_convolution_span_has_its_method():
    symgroup = importlib.import_module("schurcalc.symgroup")
    assert "__mul__" in vars(symgroup.GroupAlgebraElement)


@pytest.mark.parametrize("workload", tracing.EXPECTED_SPANS)
def test_every_expected_span_is_a_traced_name(workload):
    traced = {f"{module}.{name}" for module, names in tracing.LAYERS.items() for name in names}
    traced.add(tracing.CONVOLUTION)
    untraced = [span for span in tracing.EXPECTED_SPANS[workload] if span not in traced]
    assert not untraced, f"{workload} expects spans that nothing wraps: {untraced}"
