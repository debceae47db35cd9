"""The benchmark's traced run wraps functions by module attribute; every
one of them must still exist, or `bench/run.py --trace 1` fails."""
import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    layers = _load_layers()
    assert layers.WRAPPED
    for module, attribute, _layer in layers.WRAPPED:
        target = importlib.import_module(f"witness_lab.{module}")
        assert callable(getattr(target, attribute, None)), f"witness_lab.{module}.{attribute}"
