"""Parameter-budget planning across embedding, encoder, classifier groups.

An overall retained fraction P is split per group by the constraint

    P * total = p_embd * |embedding| + (p_svd * p_weight) * |encoder| + |classifier|

with the classifier group never compressed.  A plan is P, p_embd, p_svd
and the per-iteration delta; pruning_fraction solves the constraint
for p_weight.  allocate turns a plan into exact integer retained counts
per matrix in one pass over the table, building each entry once with
its kind and rank: bias and norm vectors stay dense, factor pairs get
rank-floored storage, and encoder matrices are masked dense when
p_svd is 1.  The budget left after everything else is spread over the
encoder masks by largest-remainder rounding, so a feasible plan lands
on round(P * total) exactly, rounded as prune.ones_for_fraction rounds.
allocate alone decides feasibility and notes any budget it cannot
spend; plan_check reports it per group.

Budget arithmetic needs only shapes and groups, never values, so the
functions here take a ShapeTable (a model's is ModelConfig.shapes());
that makes full-size reference checks cheap.
"""

import math
from dataclasses import dataclass, replace

from .errors import InfeasibleBudgetError, InputError, RangeError
from .factorize import rank_for_ratio
from .prune import ones_for_fraction
from .tensor import GROUPS, load_record, save_record


def _check_fraction(name, value):
    if not 0.0 < value <= 1.0:
        raise RangeError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class ShapeEntry:
    name: str
    group: str
    rows: int
    cols: int

    @property
    def size(self):
        return self.rows * self.cols

    @property
    def is_vector(self):
        """Vectors (and 1x1 scalars) cannot be factorized; they stay dense."""
        return min(self.rows, self.cols) == 1


class ShapeTable:
    """Shapes and group tags of a model's weights; enough for budget
    arithmetic."""

    def __init__(self, entries):
        rows = []
        seen = set()
        for name, group, m, n in entries:
            if group not in GROUPS:
                raise InputError(f"unknown group {group!r} for entry {name!r}")
            if name in seen:
                raise InputError(f"duplicate entry name {name!r}")
            if m < 1 or n < 1:
                raise RangeError(f"entry {name!r} has empty shape {m}x{n}")
            seen.add(name)
            rows.append(ShapeEntry(name, group, int(m), int(n)))
        self._entries = tuple(rows)

    def __iter__(self):
        return iter(self._entries)

    def group_total(self, group=None):
        return sum(e.size for e in self._entries
                   if group is None or e.group == group)


def transformer_shapes(vocab_size, embed_dim, num_layers, ffn_dim,
                       max_seq_len, num_classes, token_type_count=0,
                       embed_layernorm=False, pooler=False):
    """Shape table of a standard encoder-classifier stack.

    This is the single source of truth for parameter naming: the toy
    model builds its bundles in exactly this order.  The optional pieces
    (token-type embeddings, embedding layer norm, pooler) reproduce the
    full-size reference architecture used by the planning checks.
    """
    entries = [
        ("tok_embed", "embedding", vocab_size, embed_dim),
        ("pos_embed", "embedding", max_seq_len, embed_dim),
    ]
    if token_type_count:
        entries.append(("type_embed", "embedding", token_type_count, embed_dim))
    if embed_layernorm:
        entries.append(("embed_ln.gamma", "embedding", 1, embed_dim))
        entries.append(("embed_ln.beta", "embedding", 1, embed_dim))
    for i in range(num_layers):
        p = f"enc{i}"
        for w in ("wq", "wk", "wv", "wo"):
            entries.append((f"{p}.attn.{w}", "encoder", embed_dim, embed_dim))
        for b in ("bq", "bk", "bv", "bo"):
            entries.append((f"{p}.attn.{b}", "encoder", 1, embed_dim))
        entries.append((f"{p}.ln1.gamma", "encoder", 1, embed_dim))
        entries.append((f"{p}.ln1.beta", "encoder", 1, embed_dim))
        entries.append((f"{p}.ffn.w1", "encoder", embed_dim, ffn_dim))
        entries.append((f"{p}.ffn.b1", "encoder", 1, ffn_dim))
        entries.append((f"{p}.ffn.w2", "encoder", ffn_dim, embed_dim))
        entries.append((f"{p}.ffn.b2", "encoder", 1, embed_dim))
        entries.append((f"{p}.ln2.gamma", "encoder", 1, embed_dim))
        entries.append((f"{p}.ln2.beta", "encoder", 1, embed_dim))
    if pooler:
        entries.append(("pool.w", "classifier", embed_dim, embed_dim))
        entries.append(("pool.b", "classifier", 1, embed_dim))
    entries.append(("cls.w", "classifier", embed_dim, num_classes))
    entries.append(("cls.b", "classifier", 1, num_classes))
    return ShapeTable(entries)


@dataclass(frozen=True)
class CompressionPlan:
    """Target fractions: overall, per-group, and the per-iteration delta.

    The pruning fraction is not stored: allocation spends whatever
    budget the overall target leaves after the embedding and SVD
    fractions, and pruning_fraction reports it.
    """

    p_overall: float
    p_embd: float
    p_svd: float
    delta: float = 0.9

    def __post_init__(self):
        _check_fraction("p_overall", self.p_overall)
        _check_fraction("p_embd", self.p_embd)
        _check_fraction("p_svd", self.p_svd)
        if not 0.0 < self.delta < 1.0:
            raise RangeError(f"delta must be in (0, 1), got {self.delta}")


def plan_from_fractions(shapes, p_embd, p_svd, p_weight):
    """Plan carrying given group fractions and the default delta;
    p_overall is the implied value, which is all that p_weight sets."""
    overall = (p_embd * shapes.group_total("embedding")
               + p_svd * p_weight * shapes.group_total("encoder")
               + shapes.group_total("classifier")) / shapes.group_total()
    return CompressionPlan(overall, p_embd, p_svd)


def pruning_fraction(shapes, plan):
    """The plan's solved pruning fraction, clamped to [0, 1]:

    p_weight = (P*total - p_embd*|embedding| - |classifier|) / (p_svd*|encoder|).
    """
    encoder = shapes.group_total("encoder")
    if encoder == 0:
        return 1.0  # nothing to prune; allocate notes the unspent budget
    p_weight = (plan.p_overall * shapes.group_total()
                - plan.p_embd * shapes.group_total("embedding")
                - shapes.group_total("classifier")) / (plan.p_svd * encoder)
    return min(max(p_weight, 0.0), 1.0)


def solve_budget(shapes, p_overall, p_embd, p_svd, delta=0.9):
    """Plan for the given fractions, checked by allocating it: raises
    RangeError for a fraction or delta out of range, else allocate's
    InfeasibleBudgetError when the plan does not fit."""
    plan = CompressionPlan(p_overall, p_embd, p_svd, delta=delta)
    allocate(shapes, plan)
    return plan


@dataclass(frozen=True)
class EntryPlan:
    """Exact retained-count decision for one bundle entry.

    kind "dense": untouched.  kind "masked": dense matrix pruned to
    `ones` entries.  kind "factored": rank-`rank` pair with `ones_a` and
    `ones_b` mask ones on the two halves.
    """

    name: str
    group: str
    rows: int
    cols: int
    kind: str
    rank: int = 0
    ones: int = 0
    ones_a: int = 0
    ones_b: int = 0

    @property
    def retained(self):
        if self.kind == "dense":
            return self.rows * self.cols
        if self.kind == "masked":
            return self.ones
        return self.ones_a + self.ones_b


@dataclass(frozen=True)
class Allocation:
    entries: tuple
    target_count: int
    retained_count: int
    notes: tuple


def _largest_remainder(budget, cells):
    """Integer split of budget proportional to cells, summing exactly."""
    total = sum(cells)
    quotas = [budget * c / total for c in cells]
    base = [math.floor(q) for q in quotas]
    leftover = budget - sum(base)
    order = sorted(range(len(cells)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def allocate(shapes, plan):
    """Exact integer retained counts realizing the plan on a bundle.

    One pass over the table builds each entry with its final kind and
    rank.  Classifier entries and all vectors stay dense.  Embedding
    matrices are factorized at p_embd, encoder matrices at p_svd (rank
    floored), every factor entry kept; a fraction of exactly 1.0 skips
    that stage, so the identity plan is a true no-op and p_svd=1 means
    pruning acts on the dense encoder matrices.  The target
    round(p_overall * total) minus everything else retained becomes the
    encoder mask ones, split over the mask units (each masked matrix,
    or both halves of each encoder pair, in table order) by
    largest-remainder rounding, so the total retained count hits the
    target whenever it is reachable.
    """
    target = ones_for_fraction(plan.p_overall, shapes.group_total())
    entries = []
    for e in shapes:
        p = plan.p_embd if e.group == "embedding" else plan.p_svd
        if e.group == "classifier" or e.is_vector or (
                e.group == "embedding" and p == 1.0):
            entries.append(EntryPlan(e.name, e.group, e.rows, e.cols, "dense"))
        elif p == 1.0:
            entries.append(EntryPlan(e.name, e.group, e.rows, e.cols,
                                     "masked", ones=e.size))
        else:
            r = rank_for_ratio(e.rows, e.cols, p)
            entries.append(EntryPlan(e.name, e.group, e.rows, e.cols,
                                     "factored", rank=r,
                                     ones_a=e.rows * r, ones_b=e.cols * r))

    units = [e for e in entries if e.group == "encoder" and e.kind != "dense"]
    cells = [n for e in units for n in ((e.ones,) if e.kind == "masked"
                                        else (e.ones_a, e.ones_b))]
    storage = sum(cells)
    fixed = sum(e.retained for e in entries) - storage
    mask_budget = target - fixed
    if mask_budget < 0:
        raise InfeasibleBudgetError(
            f"dense and rank-floored storage already holds {fixed} params, "
            f"{-mask_budget} over the target {target}",
            slack=float(mask_budget),
        )

    notes = ()
    if storage == 0 and mask_budget > 0:
        notes = (f"no encoder factor storage; {mask_budget} params "
                 "of budget left unused",)
    elif mask_budget > storage:
        notes = (f"budget exceeds encoder factor storage by "
                 f"{mask_budget - storage} params; masks disabled",)
    elif mask_budget < storage:
        ones = iter(_largest_remainder(mask_budget, cells))
        split = {e.name: replace(e, ones=next(ones)) if e.kind == "masked"
                 else replace(e, ones_a=next(ones), ones_b=next(ones))
                 for e in units}
        entries = [split.get(e.name, e) for e in entries]
    retained = sum(e.retained for e in entries)
    return Allocation(tuple(entries), target, retained, notes)


@dataclass(frozen=True)
class GroupReport:
    group: str
    target_fraction: float
    original: int
    retained: int

    @property
    def achieved_fraction(self):
        return self.retained / self.original if self.original else 1.0


@dataclass(frozen=True)
class PlanReport:
    plan: CompressionPlan
    total_params: int
    retained_count: int
    feasible: bool
    groups: tuple
    violations: tuple
    allocation: Allocation = None

    @property
    def achieved_overall(self):
        return self.retained_count / self.total_params

    def lines(self):
        out = [f"total params        {self.total_params}"]
        if self.feasible:
            out.append(f"retained params     {self.retained_count}")
            out.append(f"achieved overall    {self.achieved_overall:.6f} "
                       f"(target {self.plan.p_overall:.6f})")
            for g in self.groups:
                out.append(f"group {g.group:<12} target {g.target_fraction:.6f}"
                           f"  achieved {g.achieved_fraction:.6f}"
                           f"  ({g.retained} of {g.original})")
        else:
            out.append("plan is INFEASIBLE")
        for v in self.violations:
            out.append(f"violation: {v}")
        if self.allocation is not None:
            for n in self.allocation.notes:
                out.append(f"note: {n}")
        return out


def plan_check(shapes, plan):
    """Simulate the plan per matrix and report achieved vs. target."""
    total = shapes.group_total()
    try:
        alloc = allocate(shapes, plan)
    except InfeasibleBudgetError as exc:
        return PlanReport(plan, total, 0, False, (), (str(exc),), None)

    targets = {
        "embedding": plan.p_embd,
        "encoder": plan.p_svd * pruning_fraction(shapes, plan),
        "classifier": 1.0,
    }
    groups = []
    for group in GROUPS:
        original = shapes.group_total(group)
        if original == 0:
            continue
        retained = sum(e.retained for e in alloc.entries if e.group == group)
        groups.append(GroupReport(group, targets[group], original, retained))

    violations = []
    achieved = alloc.retained_count / total
    if abs(achieved - plan.p_overall) > 0.01 * plan.p_overall:
        violations.append(
            f"achieved overall {achieved:.6f} misses target "
            f"{plan.p_overall:.6f} by more than 1%"
        )
    return PlanReport(plan, total, alloc.retained_count, True,
                      tuple(groups), tuple(violations), alloc)


def save_plan(plan, path):
    save_record(plan, path)


def load_plan(path):
    return load_record(path, CompressionPlan)
