"""Deciding satisfiability.

Universal-free sentences reduce to propositional logic: Skolemize
their negation normal form in one walk, with no prenex form, eliminate
ground equations via a fresh congruence predicate, abstract atoms, and
decide the CNF with one CDCL solver.  Sentences with
universals are searched up to the smallest applicable model-size bound;
the search tries one element first, and the translation to BSR form,
whose leading existentials give a bound, runs only when size 1 has no
model.
"""

from sepfrag import decide_sat, parse_formula, print_formula
from sepfrag.decide import ground_equality_elim, skolemize_existential
from sepfrag.generators import expand_counting

print("Skolemization replaces existentials with fresh constants:")
f, _ = parse_formula("exists x y. R(x, y) & x = y")
ground = skolemize_existential(f)
print(" ", print_formula(f), "  ->  ", print_formula(ground))
print()

print("Ground equality elimination makes congruence explicit:")
g, _ = parse_formula("P(c) & c = d & ~P(d)")
print(" ", print_formula(ground_equality_elim(g))[:120], "...")
v = decide_sat(g)
print("  verdict:", v.status, " (the congruence instance closes the refutation)")
print()

print("Verdicts carry verified witnesses:")
for text in [
    "exists z. P(z) & ~P(z)",
    "P(c) & c = d",
    "forall x. exists y. P(x) | Q(y)",
    "forall x. P(x) & ~P(x)",
]:
    h, _ = parse_formula(text)
    v = decide_sat(h)
    witness = v.structure.to_json() if v.structure else "-"
    print(f"  {text:38s} -> {v.status:6s} {witness}")
print()

print("Counting quantifiers expand into plain existentials with")
print("pairwise disequalities, and force exactly that many elements:")
for k in (1, 2, 3):
    q, _ = parse_formula(f"exists>={k} y. y = y")
    expanded = expand_counting(q).formula
    v = decide_sat(expanded)
    print(f"  at least {k} element(s): minimal witness has "
          f"{len(v.structure.universe)} element(s)")
