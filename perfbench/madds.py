"""Computed multiply-adds of one forward pass, per weight slot.

Counts come from shapes and ranks only; nothing is timed.  A sequence
of length n (the config's max_seq_len) costs, per matrix slot (m x k):

- dense:    n * m * k
- masked:   n * m * k, because the zeros are still multiplied
- factored: n * r * (m + k), as (x @ A) @ B.T

Embedding lookups cost nothing when dense; a factored embedding costs
n * r * k for rows @ B.T.  Attention adds 2 * n * n * d per layer and
the classifier d * classes per sequence.  Element-wise work (biases,
layer norm, GELU, softmax) is not counted.

Run ``python3 perfbench/madds.py`` from the repository root to print the
table for the toy and the wide config at the benchmark's P = 0.4 plan.
"""

import sys
from pathlib import Path


def slot_madds(entry, seq_len, kind, rank=0):
    """Multiply-adds of one matrix slot for one sequence."""
    m, k = entry.rows, entry.cols
    if entry.group == "embedding":
        return seq_len * rank * k if kind == "factored" else 0
    if kind == "factored":
        return seq_len * rank * (m + k)
    return seq_len * m * k


def fixed_madds(config):
    """Attention products and the classifier: the same for every student."""
    n, d = config.max_seq_len, config.embed_dim
    return config.num_layers * 2 * n * n * d + d * config.num_classes


def model_madds(model):
    """Forward multiply-adds per sequence of a built EncoderModel."""
    cfg = model.config
    total = fixed_madds(cfg)
    for e in cfg.shapes():
        if e.is_vector or e.group == "classifier":
            continue
        if f"{e.name}.a" in model.params:
            rank = model.params[f"{e.name}.a"].shape[1]
            total += slot_madds(e, cfg.max_seq_len, "factored", rank)
        else:
            kind = "masked" if e.name in model.masks else "dense"
            total += slot_madds(e, cfg.max_seq_len, kind)
    return total


def table(config, name):
    """Markdown rows: every matrix slot in all three forms at the plan."""
    from slimformer import allocate, rank_for_ratio, solve_budget
    from workloads import P_EMBD, P_OVERALL, P_SVD

    plan = solve_budget(config.shapes(), P_OVERALL, p_embd=P_EMBD,
                        p_svd=P_SVD)
    alloc = allocate(config.shapes(), plan)
    n = config.max_seq_len
    lines = [
        f"### {name}: width {config.embed_dim}, ffn {config.ffn_dim}, "
        f"seq {n}",
        "",
        "| slot | shape | plan kind | rank | dense | masked | factored "
        "| factored / dense |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    teacher = student = fixed_madds(config)
    for e in alloc.entries:
        if e.rows == 1 or e.cols == 1 or e.group == "classifier":
            continue
        dense = slot_madds(e, n, "dense")
        masked = slot_madds(e, n, "masked")
        fraction = P_EMBD if e.group == "embedding" else P_SVD
        rank = e.rank or rank_for_ratio(e.rows, e.cols, fraction)
        factored = slot_madds(e, n, "factored", rank)
        ratio = "n/a" if dense == 0 else f"{factored / dense:.3f}"
        lines.append(f"| {e.name} | {e.rows}x{e.cols} | {e.kind} | {rank} "
                     f"| {dense} | {masked} | {factored} | {ratio} |")
        teacher += dense
        student += factored if e.kind == "factored" else (
            masked if e.kind == "masked" else dense)
    lines += [
        "",
        f"Whole forward per sequence (attention products and classifier "
        f"included): teacher {teacher}, student {student}, "
        f"ratio {student / teacher:.3f}.  Parameters: "
        f"{alloc.retained_count} of {config.shapes().group_total()} "
        f"retained ({alloc.retained_count / config.shapes().group_total():.3f}).",
        "",
    ]
    return lines


def main():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from slimformer import TOY_CONFIG
    from workloads import WIDE_CONFIG

    lines = ["# Computed forward multiply-adds per sequence", ""]
    lines += table(TOY_CONFIG, "toy (toy-distill)")
    lines += table(WIDE_CONFIG, "wide (wide-compress, wide-infer)")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
