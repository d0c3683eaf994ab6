"""The benchmark's traced names still name functions of the library.

perfbench/tracer.py wraps methods and private helpers through
``vars(owner)[attr]`` and perfbench/run.py reads spans by label, so a
method that moves to a base class or a function that moves to another
module would break traced runs; this test fails first.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _owner_and_attr(module, qualname):
    owner_name, _, attr = qualname.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def test_extra_targets_resolve_in_their_own_class_or_module():
    tracer = _load("tracer")
    for short, qualnames in tracer.EXTRA_TARGETS.items():
        module = importlib.import_module(f"heckehom.{short}")
        for qualname in qualnames:
            owner, attr = _owner_and_attr(module, qualname)
            assert inspect.isfunction(vars(owner).get(attr)), f"{short}.{qualname}"


def test_span_metrics_name_traced_functions():
    tracer, run = _load("tracer"), _load("run")
    for metric, (label, _) in run.SPAN_METRICS.items():
        short, _, qualname = label.partition(".")
        assert short in tracer.MODULES, metric
        if qualname in tracer.EXTRA_TARGETS.get(short, ()):
            continue  # resolved by the test above
        module = importlib.import_module(f"heckehom.{short}")
        fn = vars(module).get(qualname)
        assert not qualname.startswith("_"), f"{metric}: {label} is private and not an extra target"
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{metric}: {label}"
        assert not inspect.isgeneratorfunction(fn), f"{metric}: {label}"


def test_caches_read_by_the_tracer_are_module_dicts():
    """perfbench/tracer.py reads these caches by attribute for its hit
    counters and cache sizes, so a renamed cache would end a traced run in
    AttributeError."""
    source = (PERFBENCH / "tracer.py").read_text()
    read = set(re.findall(r'\b(hecke|hh0)(?:"\])?\.(_[A-Z_]+_CACHE)\b', source))
    assert read == {("hecke", "_INVERSE_CACHE"), ("hecke", "_R_RECURSIVE_CACHE"),
                    ("hh0", "_WORD_CLASS_CACHE")}
    for short, name in read:
        module = importlib.import_module(f"heckehom.{short}")
        assert type(vars(module).get(name)) is dict, f"{short}.{name}"
