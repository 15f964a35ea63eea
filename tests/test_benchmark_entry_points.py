"""The benchmark's traced entry points must all exist in the program.

``perfbench/layers.py`` times each layer by wrapping named functions and
methods; an entry point that a refactor renames or removes is skipped
silently and its time moves to "unattributed".  This test fails instead.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    from repro.runtime.tensorizer import Tensorizer

    lower = Tensorizer.lower
    layers = _layers_module()
    tracer = layers.LayerTracer()
    tracer.install(layers.ENTRY_POINTS + layers.APP_ENTRY_POINTS)
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert Tensorizer.lower is lower  # originals restored


def test_latency_probe_targets_are_defined_in_the_class_body():
    # perfbench's ``patched()`` reads ``vars(owner)[name]``: an attribute
    # a refactor moves to a base class would raise KeyError there.
    from repro.serve.metrics import ServingMetrics
    from repro.serve.server import TpuServer

    assert "submit_nowait" in vars(TpuServer)
    assert "record_delivery" in vars(ServingMetrics)
