"""Hybrid transformer compression at desk scale.

Low-rank factorization and magnitude pruning share one parameter
budget, a planner splits that budget across weight groups, and an
iterative pipeline re-compresses a student while distilling it against
its frozen teacher.  Everything runs on numpy float64 so every number
in the method can be checked exactly.
"""

from .analysis import (bias_histogram, bias_matrix, bias_study,
                       compressed_matrix, gaussian_testbed, histogram_csv)
from .budget import (CompressionPlan, allocate, load_plan, plan_check,
                     plan_from_fractions, pruning_fraction, save_plan,
                     solve_budget, transformer_shapes)
from .distill import (DistillConfig, distill_injections, distill_step,
                      mse_loss, prediction_loss)
from .factorize import (LowRankPair, factor_ratio, factorize_layer,
                        rank_for_ratio)
from .model import (TOY_CONFIG, Adam, EncoderModel, ModelConfig, init_model,
                    load_model, save_model, truncated_config_for_budget)
from .pipeline import (budget_sequence, compress_model, interpolated_plan,
                       one_shot_compress, record_curve, run_baseline,
                       run_pipeline)
from .prune import keep_largest, ones_for_fraction, topk_mask
from .svd import SvdResult, svd
from .tasks import (SyntheticTask, TaskConfig, evaluate, generate_task,
                    train_classifier)
from .tensor import load_bundle, save_bundle

__version__ = "0.1.0"
