"""Spans around geoconn's public calls, for the traced run.

The benchmark wraps the functions and methods named in ``HOOKS`` from its own
code: every geoconn module that holds a reference to one of them gets the
wrapper, so calls between modules are seen too.  Each span records its name,
start, end, parent span and the op it belongs to; spans stay in memory and are
summarised, and written out, when the run ends.  A hook whose target no
longer exists is skipped and listed in the report, so the benchmark keeps
running when a layer is renamed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute, class or None)
HOOKS = (
    ("transport.lift_curve", "geoconn.transport", "lift_curve", None),
    ("transport.parallel_transport", "geoconn.transport", "parallel_transport", None),
    ("kernels.rk4", "geoconn._kernels", "rk4_linear", None),
    ("connection.coeff_sample", "geoconn.connection", "coeff_sample", "LinearConnection"),
    ("connection.coeff_partial", "geoconn.connection", "coeff_tensor_partial", "LinearConnection"),
    ("fields.sample", "geoconn.fields", "sample", "MatrixField"),
    ("bundle.admissibility", "geoconn.bundle", "admissibility_residual", "AnchorBundle"),
    ("config.load", "geoconn.config", "load", None),
    ("cli.main", "geoconn.cli", "main", None),
    ("checks.run_all", "geoconn.checks", "run_all", None),
    ("checks.admissibility", "geoconn.checks", "check_admissibility", None),
    ("checks.partial_connection", "geoconn.checks", "check_partial_connection", None),
    ("checks.lift_linearity", "geoconn.checks", "check_lift_linearity", None),
    ("checks.anchor_hom", "geoconn.checks", "check_anchor_hom", None),
    ("checks.star_leibniz", "geoconn.checks", "check_star_leibniz", None),
    ("checks.derivative_axioms", "geoconn.checks", "check_derivative_axioms", None),
    ("checks.bracket_defect", "geoconn.checks", "check_bracket_defect", None),
    ("checks.torsion_components", "geoconn.checks", "check_torsion_components", None),
    ("prelie.curvature_components", "geoconn.prelie", "curvature_components", None),
    ("prelie.torsion_components", "geoconn.prelie", "torsion_components", None),
    ("prelie.anchor_hom", "geoconn.prelie", "anchor_hom_residual", None),
    ("derivative.nabla", "geoconn.derivative", "nabla", None),
)

CHECK_NAMES = (
    "admissibility", "partial_connection", "lift_linearity", "anchor_hom",
    "star_leibniz", "derivative_axioms", "bracket_defect", "torsion_components",
)

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "kernels.rk4_ms": ("ms/op", "ops_per_s and op_ms_tail on transport; none on verify or tables"),
    "kernels.rk4_calls": ("count/op", "ops_per_s and op_ms_tail on transport"),
    "kernels.rk4_steps": ("count/op", "ops_per_s and op_ms_tail on transport"),
    "kernels.flops": ("count/op", "ops_per_s and op_ms_tail on transport (computed)"),
    "kernels.bytes": ("B/op", "ops_per_s and op_ms_tail on transport (computed)"),
    "kernels.grid_bytes": ("B", "peak_rss_mb on transport (computed, largest grid)"),
    "transport.coeff_grid_ms": ("ms/op", "ops_per_s on transport"),
    "transport.useful_integration_ratio": ("ratio", "op_ms_p50 on transport, piecewise ops"),
    "transport.self_ms": ("ms/op", "op_ms_p50 on transport, piecewise ops"),
    "bundle.admissibility_ms": ("ms/op", "op_ms_p50 on transport; ops_per_s on verify"),
    **{f"checks.{c}_ms": ("ms/op", "ops_per_s and op_ms_p50 on verify") for c in CHECK_NAMES},
    "prelie.curvature_components_ms": ("ms/call", "ops_per_s on tables; secondarily verify (per grid point)"),
    "prelie.torsion_components_ms": ("ms/call", "ops_per_s on tables; secondarily verify (per grid point)"),
    "prelie.anchor_hom_ms": ("ms/call", "ops_per_s on tables; secondarily verify (per grid point)"),
    "derivative.nabla_ms": ("ms/call", "ops_per_s on tables; secondarily verify (per grid point)"),
    "connection.coeff_partial_ms": ("ms/call", "ops_per_s on tables; secondarily verify (per point and axis)"),
    "connection.dual_passes": ("count/op", "ops_per_s on tables; secondarily verify (computed)"),
    "fields.sample_ms": ("ms/point", "none: batched reference beside the per-point cost"),
    "config.load_ms": ("ms/op", "op_ms_p50 on verify and tables"),
    "cli.report_ms": ("ms/op", "op_ms_p50 on verify and tables (cli.main minus its children)"),
    "import_s": ("s", "setup_s on every workload"),
    "config.build_s": ("s", "setup_s on every workload"),
    "trace.overhead_ms": ("ms/op", "none: traced minus untraced time of the same ops"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    size: int = 0  # rk4 steps, or points sampled
    l: int = 0  # fiber rank of an rk4 call
    out_size: int = 0  # entries returned by a coefficient partial
    nbytes: int = 0  # bytes of a coefficient grid: rk4 input or sampled tensor


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._extra: list[tuple] = []
        self._sites: list[tuple] | None = None

    def begin(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def op_span(self, op_index: int, fn, *args):
        self.op = op_index
        span = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end(span)
            self.op = None

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            _measure(span, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every hook target wherever a geoconn module refers to it."""
        if self._sites is None:
            self._sites = [(o, a, f, self._wrap(name, f)) for o, a, f, name in self._find_sites()]
        for owner, attr, _, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites or ():
            setattr(owner, attr, original)

    def hook_attribute(self, obj, attr: str, name: str) -> None:
        """Also wrap a callable stored on one object, such as a curve's batch sampler."""
        self._extra.append((obj, attr, getattr(obj, attr), name))

    def _find_sites(self) -> list[tuple]:
        modules = [m for key, m in sys.modules.items() if key == "geoconn" or key.startswith("geoconn.")]
        sites = list(self._extra)
        for name, mod_name, attr, cls_name in HOOKS:
            mod = sys.modules.get(mod_name)
            owner = getattr(mod, cls_name, None) if cls_name else mod
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.missing.append(name)
            elif cls_name:
                sites.append((owner, attr, target, name))
            else:
                sites += [(m, key, target, name) for m in modules for key, value in vars(m).items() if value is target]
        return sites

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _measure(span: Span, args, out) -> None:
    """Sizes for the computed counts, read from array shapes."""
    if span.name == "kernels.rk4":
        amats = args[0]
        span.size = (amats.shape[0] - 1) // 2
        span.l = amats.shape[1]
        span.nbytes = amats.nbytes
    elif span.name == "connection.coeff_sample":
        span.nbytes = int(getattr(out, "nbytes", 0))
    elif span.name == "fields.sample":
        span.size = len(args[1])
    elif span.name == "connection.coeff_partial":
        span.out_size = int(getattr(out, "size", 0))


def rk4_flops(l: int) -> int:
    """Flops of one RK4 step of ``y' = A y``: four l-by-l mat-vecs (2 l^2 each),
    three stage updates y + c k (2 l each) and the weighted sum (7 l)."""
    return 8 * l * l + 13 * l


def rk4_bytes(l: int) -> int:
    """Bytes one step reads and writes: three l-by-l matrices in, one row out."""
    return 8 * (3 * l * l + l)


def _largest_grid(spans: list[Span]) -> int:
    """Largest coefficient grid one op holds: the sampled (m, k, l, l) tensor
    plus the (m, l, l) matrices handed to the kernel."""
    per_op: dict = defaultdict(lambda: [0, 0])
    for s in spans:
        if s.name == "connection.coeff_sample":
            per_op[s.op][0] = max(per_op[s.op][0], s.nbytes)
        elif s.name == "kernels.rk4":
            per_op[s.op][1] = max(per_op[s.op][1], s.nbytes)
    return max((a + b for a, b in per_op.values()), default=0)


def summarise(tracer: Tracer, ops_run: int, useful_integrations: float) -> dict:
    spans = tracer.spans
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        self_time[s.name] += dur - child_time[s.id]
        calls[s.name] += 1

    ops = max(ops_run, 1)

    def per_op_ms(name):
        return 1e3 * total[name] / ops

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    rk4 = [s for s in spans if s.name == "kernels.rk4"]
    sampled = sum(s.size for s in spans if s.name == "fields.sample")
    return {
        "kernels.rk4_ms": per_op_ms("kernels.rk4"),
        "kernels.rk4_calls": len(rk4) / ops,
        "kernels.rk4_steps": sum(s.size for s in rk4) / ops,
        "kernels.flops": sum(s.size * rk4_flops(s.l) for s in rk4) / ops,
        "kernels.bytes": sum(s.size * rk4_bytes(s.l) for s in rk4) / ops,
        "kernels.grid_bytes": _largest_grid(spans),
        "transport.coeff_grid_ms": 1e3 * sum(
            total[n] for n in ("transport.curve_batch", "connection.coeff_sample")
        ) / ops,
        "transport.useful_integration_ratio": useful_integrations / len(rk4) if rk4 else 0.0,
        "transport.self_ms": 1e3 * (self_time["transport.lift_curve"] + self_time["transport.parallel_transport"]) / ops,
        "bundle.admissibility_ms": per_op_ms("bundle.admissibility"),
        **{f"checks.{c}_ms": per_op_ms(f"checks.{c}") for c in CHECK_NAMES},
        "prelie.curvature_components_ms": per_call_ms("prelie.curvature_components"),
        "prelie.torsion_components_ms": per_call_ms("prelie.torsion_components"),
        "prelie.anchor_hom_ms": per_call_ms("prelie.anchor_hom"),
        "derivative.nabla_ms": per_call_ms("derivative.nabla"),
        "connection.coeff_partial_ms": per_call_ms("connection.coeff_partial"),
        "connection.dual_passes": sum(s.out_size for s in spans if s.name == "connection.coeff_partial") / ops,
        "fields.sample_ms": 1e3 * total["fields.sample"] / sampled if sampled else 0.0,
        "config.load_ms": per_op_ms("config.load"),
        "cli.report_ms": 1e3 * self_time["cli.main"] / ops,
    }
