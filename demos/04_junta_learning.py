"""Reading off each variable's algebraic role from sampled marginals.

For functions whose ANF splits into disjoint terms, a variable's
influence is pinned to 2^(1-r) by its term's degree r: 1 if linear, 1/2
if quadratic, 1/4 if cubic, 0 if absent. The learners sample the
circuit a few (or a few thousand) times and classify each variable from
its ones-frequency alone — all-ones means linear, all-zeros absent, and
windows around 1/2 and 1/4 pick out quadratic and cubic terms.
"""

from fractions import Fraction

from bvinfluence import algorithm2, algorithm3, from_anf, lemma1_influence, to_truth_table

print("reference influences by term degree:",
      {r: str(lemma1_influence(r)) for r in (1, 2, 3, 4)})

print("\n--- two-class learner (linear / quadratic / absent), rho = 20 runs ---")
f = to_truth_table(from_anf("x1 + x2*x3", 6))
report = algorithm2(f, rho=20, seed=42)
print("f = x1 + x2*x3 on n=6")
for vc in report.classes:
    print(f"  x{vc.index}: {vc.label.value:<12} (ones frequency {vc.observed})")
print("error budget per quadratic variable:", report.error_budget["quadratic_misread_total"])

print("\n--- three-class learner (adds cubic), lambda = 2000 runs, eps = 0.1 ---")
g = to_truth_table(from_anf("x1 + x2*x3 + x4*x5*x6", 8))
report = algorithm3(g, lam=2000, epsilon=Fraction(1, 10), seed=42)
print("g = x1 + x2*x3 + x4*x5*x6 on n=8")
for vc in report.classes:
    window = "" if vc.window is None else f"  window ({float(vc.window[0])}, {float(vc.window[1])})"
    print(f"  x{vc.index}: {vc.label.value:<12} (ones frequency {float(vc.observed):.4f}){window}")
print("window-miss budget:", report.error_budget["quadratic_window_miss"])

print("\n--- out of model: a degree-4 term lands in no window ---")
h = to_truth_table(from_anf("x1*x2*x3*x4", 6))
report = algorithm3(h, lam=2000, epsilon=Fraction(1, 10), seed=42)
print("h = x1*x2*x3*x4 on n=6 (influence 1/8 per variable)")
for vc in report.classes[:4]:
    print(f"  x{vc.index}: {vc.label.value:<12} (ones frequency {float(vc.observed):.4f})")
print("nothing is forced into a wrong class; the model assumption is reported, not checked:")
print(f"  assumed model: {report.assumed_model}")
