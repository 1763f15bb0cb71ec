"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces each target in TARGETS where the package looks
it up (module globals and class attributes) by a wrapper that records a
span: name, start, end, parent span and operation id. Spans stay in memory
until the run ends. A target that no longer exists is listed in
``Tracer.missing``; nothing fails, and ``missing_metrics`` names the
metrics built from its spans, which the run reports as missing.

Wrappers record only while an operation is marked (``Tracer.op`` not None),
so output checks and the benchmark's own bookkeeping leave no spans.
"""

import importlib
import time

# (dotted target, span name). Set projections are named by their kind.
TARGETS = [
    ("minkproj.admm:x_update", "admm.x_update"),
    ("minkproj.admm:conjugate_gradient", "admm.cg"),
    ("minkproj.admm:relax_prox_dual_update", "admm.prox_dual"),
    ("minkproj.admm:adapt_parameters", "admm.adapt"),
    ("minkproj.admm:assemble_block_system", "operators.assemble_block_system"),
    ("minkproj.admm:compressed_diagonal_view", "operators.dia_view"),
    ("minkproj.admm:feasibility_distance", "sets.feasibility"),
    ("minkproj.admm:validate", "spec.validate"),
    ("minkproj.admm:ADMMState.__init__", "admm.setup"),
    ("minkproj.operators:BlockSystem.assemble_Q", "operators.assemble_Q"),
    ("minkproj.sets:ElementarySet.project", "sets.project"),
    ("minkproj.spg:admm_project", "spg.project"),
    ("minkproj.datafit:admm_project", "datafit.project"),
    ("minkproj.datafit:with_datafit", "datafit.with_datafit"),
    ("minkproj.datafit:validate", "spec.validate"),
    ("minkproj.video:admm_project", "video.project"),
    ("minkproj.video:build_video_spec", "video.build_spec"),
    ("minkproj.video:validate", "spec.validate"),
]

# spans that wrap one call of admm_project
SOLVES = ("admm.project", "spg.project", "datafit.project", "video.project")
SWEEP_PHASES = ("admm.x_update", "admm.prox_dual", "admm.adapt")
SET_KINDS = ("box", "fixed", "l1_ball", "cardinality", "subspace",
             "pointwise_datafit")


def _solve_info(args, kwargs, result):
    report = result[-1]
    return {"converged": bool(report.converged),
            "stagnation": bool(report.stagnation),
            "spec": args[1] if len(args) > 1 else kwargs["spec"]}


# extra per-span information taken from the call
INFO = {
    "admm.cg": lambda a, k, r: r[1],
    "admm.adapt": lambda a, k, r: bool(r),
    "operators.dia_view": lambda a, k, r: r is not None,
    "sets.project": lambda a, k, r: a[0].kind,
    "spg.minimize": lambda a, k, r: len(r[1]["f"]),
}
INFO.update({name: _solve_info for name in SOLVES})


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (if an op is marked)."""
        if self.op is None:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in INFO:
            span.info = INFO[name](args, kwargs, result)
        return result

    def wrap(self, name, fn):
        def spanned(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return spanned

    def install(self):
        for target, name in TARGETS:
            module_name, _, path = target.partition(":")
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, n_ops, q_stats):
    """Per-operation layer metrics from the spans of ``n_ops`` operations.

    ``q_stats`` maps id(spec) of every solved spec to (nnz, rows) of its
    quadratic-step matrix. Times are in seconds; self time is a span's
    duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    loop_end = {}
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append((i, s))
        if s.parent is not None:
            child[s.parent] += s.duration
            if s.name in SWEEP_PHASES or s.name == "admm.setup":
                loop_end[s.parent] = max(loop_end.get(s.parent, 0.0), s.end)

    def named(*names):
        return [pair for name in names for pair in by_name.get(name, [])]

    def total(*names):
        return sum(s.duration for _, s in named(*names))

    def self_time(*names):
        return sum(s.duration - child[i] for i, s in named(*names))

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    def enclosing_solve(s):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name in SOLVES:
                return s
        return None

    # a span whose call raised carries no info; it counts time but no outcome
    solves = [(i, s) for i, s in named(*SOLVES) if s.info is not None]
    sweeps = named("admm.x_update")
    cgs = [(i, s) for i, s in named("admm.cg") if s.info is not None]
    cg_iters = sum(s.info for _, s in cgs)
    flops = 0.0
    nbytes = 0.0
    for _, s in cgs:
        solve = enclosing_solve(s)
        if solve is None or solve.info is None:
            continue
        nnz, rows = q_stats[id(solve.info["spec"])]
        matvecs = s.info + 1          # initial residual plus one per iteration
        flops += matvecs * 2.0 * nnz
        nbytes += matvecs * (12.0 * nnz + 4.0 * (rows + 1) + 16.0 * rows)
    dia = named("operators.dia_view")
    prox_sets = [s for _, s in named("sets.project")
                 if parent_name(s) == "admm.prox_dual"]
    validates = [s for _, s in named("spec.validate")
                 if parent_name(s) != "spec.validate"]
    spg_solves = named("spg.project")
    spg_sweeps = sum(1 for _, s in sweeps if parent_name(s) == "spg.project")
    spg_iters = sum(s.info or 0 for _, s in named("spg.minimize"))
    objective_evals = len(named("spg.objective"))
    spg_runs = len(named("spg.minimize"))

    m = {
        "admm.solves": (len(solves), "count"),
        "admm.sweeps": (len(sweeps), "count"),
        "admm.setup_s": (total("admm.setup"), "s"),
        "admm.x_update_s": (total("admm.x_update"), "s"),
        "admm.rhs_s": (self_time("admm.x_update"), "s"),
        "admm.cg_s": (total("admm.cg"), "s"),
        "admm.cg_iters": (cg_iters, "count"),
        "admm.prox_dual_s": (total("admm.prox_dual"), "s"),
        "admm.bookkeeping_s": (self_time("admm.prox_dual"), "s"),
        "admm.adapt_s": (total("admm.adapt"), "s"),
        "admm.adapt_changes": (sum(bool(s.info)
                                   for _, s in named("admm.adapt")), "count"),
        "admm.finalize_s": (sum(s.end - loop_end.get(i, s.end)
                                for i, s in solves), "s"),
        "admm.converged": (sum(s.info["converged"] for _, s in solves),
                           "count"),
        "admm.stagnation": (sum(s.info["stagnation"] for _, s in solves),
                            "count"),
        "admm.cg_flops": (flops, "flop"),
        "admm.cg_bytes": (nbytes, "B"),
        "operators.assemble_block_system_s": (
            total("operators.assemble_block_system"), "s"),
        "operators.assemble_Q_s": (total("operators.assemble_Q"), "s"),
        "operators.assemble_Q_calls": (len(named("operators.assemble_Q")),
                                       "count"),
        "operators.dia_view_s": (total("operators.dia_view"), "s"),
        "sets.feasibility_s": (total("sets.feasibility"), "s"),
        "spec.validate_s": (sum(s.duration for s in validates), "s"),
        "spec.validate_calls": (len(validates), "count"),
        "spg.iters": (spg_iters, "count"),
        "spg.projections": (len(spg_solves), "count"),
        "spg.project_s": (total("spg.project"), "s"),
        "spg.objective_evals": (objective_evals, "count"),
        "spg.objective_s": (total("spg.objective"), "s"),
        # one evaluation at the start and one accepted trial per iteration
        "spg.backtracks": (max(objective_evals - spg_runs - spg_iters, 0),
                           "count"),
        "spg.self_s": (self_time("spg.minimize"), "s"),
        "datafit.with_datafit_s": (total("datafit.with_datafit"), "s"),
        "datafit.project_s": (total("datafit.project"), "s"),
        "video.build_spec_s": (total("video.build_spec"), "s"),
        "video.project_s": (total("video.project"), "s"),
        "video.self_s": (self_time("video.decompose"), "s"),
    }
    for kind in SET_KINDS:
        of_kind = [s for s in prox_sets if s.info == kind]
        m["sets.%s_s" % kind] = (sum(s.duration for s in of_kind), "s")
        m["sets.%s_calls" % kind] = (len(of_kind), "count")
    out = {name: (value / n_ops, unit) for name, (value, unit) in m.items()}
    # ratios and sizes are not summed over operations
    out["admm.cg_iters_per_sweep"] = (cg_iters / max(len(sweeps), 1), "ratio")
    out["spg.sweeps_per_projection"] = (
        spg_sweeps / max(len(spg_solves), 1), "ratio")
    out["operators.dia_hit_ratio"] = (
        sum(bool(s.info) for _, s in dia) / max(len(dia), 1), "ratio")
    out["operators.q_nnz"] = (max((q_stats[id(s.info["spec"])][0]
                                   for _, s in solves), default=0), "count")
    return out


# span names each per-layer metric is built from, where a name comes from a
# wrap target in TARGETS; metrics built only from the public entry points
# (spg.minimize, spg.objective, ...) are left out, they cannot go missing
_SOLVE_SPANS = ("spg.project", "datafit.project", "video.project")
USES = {
    "admm.solves": _SOLVE_SPANS,
    "admm.sweeps": ("admm.x_update",),
    "admm.setup_s": ("admm.setup",),
    "admm.x_update_s": ("admm.x_update",),
    "admm.rhs_s": ("admm.x_update", "admm.cg"),
    "admm.cg_s": ("admm.cg",),
    "admm.cg_iters": ("admm.cg",),
    "admm.cg_iters_per_sweep": ("admm.cg", "admm.x_update"),
    "admm.prox_dual_s": ("admm.prox_dual",),
    "admm.bookkeeping_s": ("admm.prox_dual", "sets.project"),
    "admm.adapt_s": ("admm.adapt",),
    "admm.adapt_changes": ("admm.adapt",),
    "admm.finalize_s": _SOLVE_SPANS + SWEEP_PHASES + ("admm.setup",),
    "admm.converged": _SOLVE_SPANS,
    "admm.stagnation": _SOLVE_SPANS,
    "admm.cg_flops": _SOLVE_SPANS + ("admm.cg",),
    "admm.cg_bytes": _SOLVE_SPANS + ("admm.cg",),
    "operators.assemble_block_system_s": ("operators.assemble_block_system",),
    "operators.assemble_Q_s": ("operators.assemble_Q",),
    "operators.assemble_Q_calls": ("operators.assemble_Q",),
    "operators.dia_view_s": ("operators.dia_view",),
    "operators.dia_hit_ratio": ("operators.dia_view",),
    "operators.q_nnz": _SOLVE_SPANS,
    "sets.feasibility_s": ("sets.feasibility",),
    "spec.validate_s": ("spec.validate",),
    "spec.validate_calls": ("spec.validate",),
    "spg.projections": ("spg.project",),
    "spg.sweeps_per_projection": ("spg.project", "admm.x_update"),
    "spg.project_s": ("spg.project",),
    "spg.self_s": ("spg.project",),
    "datafit.with_datafit_s": ("datafit.with_datafit",),
    "datafit.project_s": ("datafit.project",),
    "video.build_spec_s": ("video.build_spec",),
    "video.project_s": ("video.project",),
    "video.self_s": ("video.build_spec", "video.project"),
}
for _kind in SET_KINDS:
    USES["sets.%s_s" % _kind] = USES["sets.%s_calls" % _kind] = (
        "sets.project", "admm.prox_dual")


def missing_metrics(missing_targets):
    """Metrics built from spans of any of ``missing_targets``."""
    gone = {name for target, name in TARGETS if target in missing_targets}
    return sorted(m for m, names in USES.items() if gone.intersection(names))


def op_counts(spans):
    """Span counts per operation, the set projections split by kind.

    For the same code and input these repeat exactly, as does the CG
    iteration total.
    """
    counts = {}
    for s in spans:
        c = counts.setdefault(s.op, {})
        key = "span:" + s.name
        if s.name == "sets.project":
            key += ":%s" % s.info
        c[key] = c.get(key, 0) + 1
        if s.name == "admm.cg" and s.info is not None:
            c["span:cg_iters"] = c.get("span:cg_iters", 0) + s.info
    return counts
