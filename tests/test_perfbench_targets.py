"""The traced benchmark run patches library functions by name
(perfbench/spans.py); a rename or an unbound name would break that run
while every library test still passes. These checks keep the names whole."""

import importlib.util
from pathlib import Path

import faircover

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = load_spans()
    for home, attr, *_ in spans.TRACED:
        assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr}"
    for cls, attr, _ in spans.TRACED_METHODS:
        assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"


def test_the_sweep_module_binds_the_shared_sampler():
    assert faircover.weighted.sample_round_tuple is faircover.unweighted.sample_round_tuple
