"""The benchmark's per-layer tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

from sepfrag import decide, syntax

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (syntax.parse_formula, decide.decide_sat, decide.dpll_sat)
    tracer = module.Tracer()
    tracer.install()
    try:
        # ground and equational: the propositional stages the benchmark
        # measures all run
        f, _ = syntax.parse_formula("exists x y. P(x) & ~P(y) & (x = c | y = c) & R(c, x)")
        assert decide.decide_sat(f).status == "sat"
        tracer.end_op(True)
    finally:
        tracer.uninstall()
    assert (syntax.parse_formula, decide.decide_sat, decide.dpll_sat) == originals
    assert tracer.calls["syntax.parse_formula"] == 1
    assert tracer.calls["decide.dpll_sat"] == 1
    assert tracer.calls["decide.skolemize_existential"] == 1
    assert tracer.calls["generators.expand_counting"] == 1
    assert tracer.calls["decide.to_propositional"] == 1
    assert tracer.calls["decide.prop_cnf"] == 1
    assert tracer.counts["decide.prop_cnf.clauses"] == 39
