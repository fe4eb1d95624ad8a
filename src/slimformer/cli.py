"""Command-line front end: plan, compress, distill, analyze, check.

Model arguments take the path to a .bundle file; every command loads
the model, so it expects the matching .config written by save_model
next to it.  plan and check budget over the config's architecture: plan
solves the pruning fraction that the given embedding and SVD fractions
leave to reach the target.  analyze bias studies each slot's effective
weight.  Exit codes: 0 success, 2 infeasible plan or out-of-range
request, 3 numeric failure, 4 I/O or format error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import bias_histogram, bias_matrix, compressed_matrix, \
    histogram_csv
from .budget import load_plan, plan_check, save_plan, solve_budget
from .errors import BundleFormatError, DivergenceError, \
    InfeasibleBudgetError, InputError, MappingError, NonFiniteError, \
    RangeError, SvdConvergenceError, check_fraction
from .model import load_model, save_model
from .pipeline import one_shot_compress, record_curve, run_pipeline
from .tasks import TaskConfig, generate_task, train_classifier


def _model_base(bundle_path):
    text = str(bundle_path)
    return text[:-len(".bundle")] if text.endswith(".bundle") else text


def _cmd_plan(args):
    shapes = load_model(_model_base(args.bundle)).config.shapes()
    plan = solve_budget(shapes, args.target, args.p_embd, args.p_svd,
                        delta=args.delta)
    save_plan(plan, args.out)
    for line in plan_check(shapes, plan).lines():
        print(line)
    print(f"plan written to {args.out}")
    return 0


def _cmd_compress(args):
    teacher = load_model(_model_base(args.bundle))
    plan = load_plan(args.plan)
    student = one_shot_compress(teacher, plan)
    save_model(student, args.out)
    total = teacher.config.shapes().group_total()
    retained = student.retained_count()
    print(f"retained {retained} of {total} params "
          f"({retained / total:.6f})")
    print(f"student written to {args.out}.bundle")
    return 0


def _cmd_distill(args):
    teacher = load_model(_model_base(args.teacher))
    plan = load_plan(args.plan)
    cfg = teacher.config
    task = generate_task(TaskConfig(
        seed=args.task_seed,
        vocab_size=cfg.vocab_size,
        seq_len=cfg.max_seq_len,
        num_classes=cfg.num_classes,
    ))
    # a negative count reaches train_classifier, which rejects it
    if args.teacher_epochs != 0:
        lr = 2e-3 if args.teacher_lr is None else args.teacher_lr
        history = train_classifier(teacher, task, args.teacher_epochs, lr=lr,
                                   batch_size=args.batch_size,
                                   seed=args.seed)
        print(f"teacher val accuracy {history[-1].val_accuracy:.4f} "
              f"after {args.teacher_epochs} epochs")
    result = run_pipeline(teacher, plan, task,
                          epochs_per_iteration=args.epochs,
                          lr=args.lr, batch_size=args.batch_size,
                          seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(result.student, out / "student")
    (out / "curve.csv").write_text(record_curve(result.records),
                                   encoding="ascii")
    if result.states:
        last = result.states[-1]
        print(f"iterations          {len(result.states)}")
        print(f"retained fraction   {last.retained_fraction:.6f}")
    if result.records:
        print(f"final val accuracy  {result.records[-1].val_accuracy:.4f}")
    print(f"student written to {out / 'student'}.bundle")
    return 0


def _cmd_analyze_bias(args):
    model = load_model(_model_base(args.bundle))
    split = None
    if args.prune_fraction is not None:
        check_fraction("prune fraction", args.prune_fraction)
        split = (args.retain / args.prune_fraction, args.prune_fraction)
    pooled = []
    for e in model.config.shapes():
        if e.is_vector:
            continue
        # a compressed slot is analysed as the weight it computes with
        w = model.effective_weight(e.name)
        compressed = compressed_matrix(w, args.mode, args.retain, split=split)
        pooled.append(bias_matrix(w, compressed).ravel())
    if not pooled:
        raise InputError(f"bundle {args.bundle} has no matrices to analyze")
    values = np.concatenate(pooled)
    # more bins than values cannot be read, and a huge count would
    # exhaust memory building the bin edges
    if args.bins > values.size:
        raise RangeError(f"--bins {args.bins} is above the {values.size} "
                         f"pooled bias values")
    hist = bias_histogram(values, args.mode, bins=args.bins)
    text = histogram_csv(hist)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"histogram written to {args.out}")
    return 0


def _cmd_check(args):
    shapes = load_model(_model_base(args.bundle)).config.shapes()
    plan = load_plan(args.plan)
    report = plan_check(shapes, plan)
    for line in report.lines():
        print(line)
    return 0 if report.feasible else 2


def _parser():
    parser = argparse.ArgumentParser(
        prog="slimformer",
        description="Compress transformer bundles by factorization, "
                    "pruning and distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="solve group fractions for a target")
    plan.add_argument("--bundle", required=True)
    plan.add_argument("--target", type=float, required=True)
    plan.add_argument("--p-embd", type=float, required=True)
    plan.add_argument("--p-svd", type=float, required=True)
    plan.add_argument("--delta", type=float, default=0.9)
    plan.add_argument("--out", required=True)
    plan.set_defaults(func=_cmd_plan)

    compress = sub.add_parser("compress",
                              help="apply a plan to a model in one shot")
    compress.add_argument("--bundle", required=True)
    compress.add_argument("--plan", required=True)
    compress.add_argument("--out", required=True)
    compress.set_defaults(func=_cmd_compress)

    distill = sub.add_parser("distill",
                             help="iterative compression with distillation")
    distill.add_argument("--teacher", required=True)
    distill.add_argument("--plan", required=True)
    distill.add_argument("--task-seed", type=int, required=True)
    distill.add_argument("--out", required=True)
    distill.add_argument("--epochs", type=int, default=2,
                         help="fine-tuning epochs per iteration")
    distill.add_argument("--lr", type=float, default=2e-5)
    distill.add_argument("--batch-size", type=int, default=32)
    distill.add_argument("--seed", type=int, default=0)
    distill.add_argument("--teacher-epochs", type=int, default=0,
                         help="train the loaded teacher on the task first")
    distill.add_argument("--teacher-lr", type=float,
                         help="default 2e-3; needs --teacher-epochs")
    distill.set_defaults(func=_cmd_distill)

    analyze = sub.add_parser("analyze", help="compression studies")
    analyze_sub = analyze.add_subparsers(dest="study", required=True)
    bias = analyze_sub.add_parser("bias",
                                  help="bias histogram of one scheme")
    bias.add_argument("--bundle", required=True)
    bias.add_argument("--mode", choices=("prune", "svd", "hybrid"),
                      required=True)
    bias.add_argument("--retain", type=float, required=True)
    bias.add_argument("--prune-fraction", type=float,
                      help="hybrid split; the svd fraction is retain / this")
    bias.add_argument("--bins", type=int, default=101)
    bias.add_argument("--out")
    bias.set_defaults(func=_cmd_analyze_bias)

    check = sub.add_parser("check", help="report a plan against a bundle")
    check.add_argument("--bundle", required=True)
    check.add_argument("--plan", required=True)
    check.set_defaults(func=_cmd_check)

    return parser


def _validate(parser, args):
    if (args.command == "analyze" and args.prune_fraction is not None
            and args.mode != "hybrid"):
        parser.error("--prune-fraction needs --mode hybrid")
    if (args.command == "distill" and args.teacher_lr is not None
            and args.teacher_epochs <= 0):
        parser.error("--teacher-lr needs a positive --teacher-epochs")


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except (InfeasibleBudgetError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteError, DivergenceError, SvdConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BundleFormatError, InputError, MappingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
