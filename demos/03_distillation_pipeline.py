"""The full loop: train a teacher, then shrink it iteratively while
distilling every intermediate against it.

Runs at a learning rate high enough for visible recovery, so the final
student should land close to teacher accuracy at 40% of the size.
Takes around half a minute.
"""

from dataclasses import replace

from slimformer import (TOY_CONFIG, TaskConfig, budget_sequence, evaluate,
                        generate_task, init_model, record_curve,
                        run_pipeline, solve_budget, train_classifier)

task = generate_task(TaskConfig(seed=0))
teacher = init_model(TOY_CONFIG, seed=0)
history = train_classifier(teacher, task, epochs=20, lr=2e-3, seed=100)
teacher_acc = evaluate(teacher, task.tokens_val, task.labels_val)
print(f"teacher: {TOY_CONFIG.shapes().group_total():,} params, "
      f"val accuracy {teacher_acc:.3f}")

plan = replace(solve_budget(TOY_CONFIG.shapes(), 0.4,
                            p_embd=0.55, p_svd=0.45), delta=0.8)
print(f"budget sequence {[round(s, 4) for s in budget_sequence(0.8, 0.4)]}")

result = run_pipeline(teacher, plan, task, lr=1e-3, seed=1)

print(f"\n{'iter':>4} {'budget':>8} {'retained':>9} {'val acc':>8}")
steps = len(result.records) // len(result.states)  # per iteration
for state in result.states:
    acc = result.records[state.iteration * steps - 1].val_accuracy
    print(f"{state.iteration:>4} {state.budget_fraction:>8.4f} "
          f"{state.retained_fraction:>9.6f} {acc:>8.3f}")

student_acc = evaluate(result.student, task.tokens_val, task.labels_val)
print(f"\nstudent: {result.student.retained_count():,} params "
      f"({result.student.retained_count() / TOY_CONFIG.shapes().group_total():.4f}), "
      f"val accuracy {student_acc:.3f}")
print(f"teacher accuracy retained: {student_acc / teacher_acc:.1%}")

curve = record_curve(result.records)
with open("pipeline_curve.csv", "w", encoding="ascii") as fh:
    fh.write(curve)
print(f"\nwrote {len(result.records)} training steps to pipeline_curve.csv")
