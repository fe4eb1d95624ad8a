"""Budget planning: splitting one parameter target across weight groups.

The planner answers: given an overall retained fraction P and chosen
embedding and factorization fractions, how hard must pruning work?
Solved on the toy stack, then on full-size reference shapes.
"""

from slimformer import (TOY_CONFIG, plan_check, plan_from_fractions,
                        pruning_fraction, solve_budget, transformer_shapes)

toy = TOY_CONFIG.shapes()
print("toy stack parameter groups:")
for group in ("embedding", "encoder", "classifier"):
    print(f"  {group:<12} {toy.group_total(group):>6}")
print(f"  {'total':<12} {toy.group_total():>6}")

# Solve the default toy plan: 40% overall, embeddings to 55%, encoder
# factorized to 45%. Whatever is left over falls on pruning.
plan = solve_budget(toy, 0.4, p_embd=0.55, p_svd=0.45)
print(f"\nsolved p_weight = {pruning_fraction(toy, plan):.6f} "
      "for the toy plan")
report = plan_check(toy, plan)
for line in report.lines():
    print("  " + line)

# Full-size reference shapes (vocab 30522, hidden 768, 12 layers,
# intermediate 3072, plus token types, embedding norm and pooler).
ref = transformer_shapes(30522, 768, 12, 3072, 512, 3,
                         token_type_count=2, embed_layernorm=True,
                         pooler=True)
print(f"\nreference stack total {ref.group_total()} params")

# Published per-group factor combinations and their stated overall
# targets. The achieved column is what the allocator actually lands on.
rows = [("x2.5", 0.4, 1 / 1.43, 0.5, 1 / 1.56),
        ("x5.0", 0.2, 1 / 2.05, 0.5, 1 / 3.41),
        ("x7.5", 2 / 15, 1 / 5.0, 0.5, 1 / 4.33),
        ("x10.0", 0.1, 1 / 5.0, 0.4, 1 / 5.45)]
print(f"\n{'row':<6} {'target':>8} {'achieved':>9} {'abs err':>8}")
for label, target, pe, ps, pw in rows:
    rep = plan_check(ref, plan_from_fractions(ref, pe, ps, pw))
    print(f"{label:<6} {target:>8.4f} {rep.achieved_overall:>9.4f} "
          f"{abs(rep.achieved_overall - target):>8.4f}")
