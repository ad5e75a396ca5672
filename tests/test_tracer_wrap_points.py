"""The benchmark's per-layer tracer wraps hampack functions by name; a
renamed or deleted function would silently blank its metric.  This test
installs the tracer on the hampack modules and checks that every wrap
point still finds its attribute."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("edgelist", "expanders", "extremality", "factors", "hamilton", "matching")
LAYERS = {
    "edgelist.read", "factors.decide_calls", "factors.tutte_evals", "factors.structured",
    "factors.orientation", "orientation.arcs", "factors.gadget", "matching.greedy",
    "matching.blossom", "factors.extract", "factors.certificate", "factors.ge_pair",
    "factors.audit", "hamilton.search", "hamilton.search_nodes", "hamilton.cycles_tried",
    "hamilton.reg_even", "hamilton.audit", "expanders.exact", "expanders.mc",
    "extremality.closeness",
}


def test_tracer_finds_every_wrap_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    modules = {name: importlib.import_module(f"hampack.{name}") for name in MODULES}
    originals = {(name, attr): fn
                 for name, mod in modules.items() for attr, fn in vars(mod).items()}
    t = tracer.Tracer(modules)
    t.install()
    try:
        patched = len(t._undo)
        present = set(t.present)
    finally:
        t.remove()
    assert present == LAYERS
    assert patched == 24
    for (name, attr), fn in originals.items():
        assert vars(modules[name])[attr] is fn
