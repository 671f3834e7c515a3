"""Per-layer tracing from outside the package.

In the traced run only, each public function listed in ``SPANS`` is replaced
by one wrapper in every ``localgraphs`` namespace that holds it (for example
both ``surgery.sample_cm`` and ``colored.sample_cm``), so a call is counted
once whichever module it goes through.  A wrapper records a span: its self
time is its duration minus the time covered by the spans it caused.  Spans
are folded into per-function totals as they close, so memory stays flat.
"""
from __future__ import annotations

import sys
from time import perf_counter

from localgraphs import graphs
from localgraphs.errors import AttemptsExhausted

#: (module, attribute) pairs wrapped in the traced run; ``DegreeSequence`` is
#: a class whose ``is_graphical`` method is wrapped in place.
SPANS = (
    ("graphs", "rooted_component"),
    ("graphs", "truncate"),
    ("graphs", "DegreeSequence.is_graphical"),
    ("canonical", "canonicalize"),
    ("canonical", "canonical_code"),
    ("canonical", "canonicalize_pair"),
    ("canonical", "local_distance"),
    ("measures", "empirical_distribution"),
    ("measures", "truncate_measure"),
    ("measures", "check_unimodular"),
    ("lp_distance", "levy_prokhorov"),
    ("lp_distance", "max_flow"),
    ("samplers", "sample_uniform_graph"),
    ("colored", "sample_cm"),
    ("colored", "is_colored_graph"),
    ("colored", "estimate_alpha_h"),
    ("colored", "color_graph"),
    ("colored", "mcb"),
    ("transport", "modify_colored_degrees"),
    ("surgery", "modify_graph"),
)

#: What the wrappers cannot see, with the reason; printed by traced runs.
UNAVAILABLE = {
    "samplers._pairing_attempt rejection reasons": "private helper, not wrapped; "
    "needs an in-program counter",
    "colored.sample_cm rejection reasons (loop, multi-edge, short cycle)": "is_colored_graph "
    "returns only a bool; needs an in-program counter",
    "canonical._ir_certificate leaves and refinements": "private helper, not wrapped; "
    "needs an in-program counter",
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Wraps the functions in SPANS and accumulates their spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._open: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name: str, args, out):
        if name == "canonical.canonical_code":
            g = args[0]
            if len(g.edges) == g.n - 1:
                self.count("canonical_code.trees")
        elif name == "measures.empirical_distribution":
            self.count("empirical_distribution.atoms", len(out.atoms))
        elif name == "colored.is_colored_graph":
            self.count("is_colored_graph.accepted", bool(out))
        elif name == "transport.modify_colored_degrees":
            self.count("modify_colored_degrees.changed", out.changed_vertices)
        elif name == "surgery.modify_graph":
            report = out[1]
            self.count("modify_graph.attempts", report.attempts)
            self.count("modify_graph.accepted")
            self.count("modify_graph.modified", report.modified_vertices)

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._open
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except AttemptsExhausted as exc:
                if name == "surgery.modify_graph":
                    self.count("modify_graph.attempts", exc.attempts)
                raise
            finally:
                elapsed = perf_counter() - t0
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._observe(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("localgraphs") and m]
        for module_name, attr in SPANS:
            name = span_name(module_name, attr)
            if attr == "DegreeSequence.is_graphical":
                cls = graphs.DegreeSequence
                original = cls.__dict__["is_graphical"]
                self._restore.append((cls, "is_graphical", original))
                setattr(cls, "is_graphical", self._wrap(name, original))
                continue
            original = getattr(sys.modules[f"localgraphs.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer values: calls and self seconds per span, plus ratios."""
        out: dict[str, float] = {}
        for module_name, attr in SPANS:
            name = span_name(module_name, attr)
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        calls = self.calls
        out["canonical.canonical_code.tree_share"] = ratio(
            c.get("canonical_code.trees", 0), calls["canonical.canonical_code"]
        )
        out["measures.empirical_distribution.atoms"] = ratio(
            c.get("empirical_distribution.atoms", 0), calls["measures.empirical_distribution"]
        )
        out["lp_distance.max_flow.per_lp"] = ratio(
            calls["lp_distance.max_flow"], calls["lp_distance.levy_prokhorov"]
        )
        out["colored.is_colored_graph.accept_ratio"] = ratio(
            c.get("is_colored_graph.accepted", 0), calls["colored.is_colored_graph"]
        )
        out["transport.modify_colored_degrees.changed_vertices"] = ratio(
            c.get("modify_colored_degrees.changed", 0), calls["transport.modify_colored_degrees"]
        )
        accepted = c.get("modify_graph.accepted", 0)
        out["surgery.modify_graph.attempts"] = c.get("modify_graph.attempts", 0)
        out["surgery.modify_graph.accept_ratio"] = ratio(
            accepted, c.get("modify_graph.attempts", 0)
        )
        out["surgery.modify_graph.modified_vertices"] = ratio(
            c.get("modify_graph.modified", 0), accepted
        )
        return out


#: Units of the per-layer metrics, by suffix.
UNITS = {
    "calls": "count",
    "self_s": "s",
    "tree_share": "ratio",
    "atoms": "count",
    "per_lp": "count",
    "accept_ratio": "ratio",
    "changed_vertices": "count",
    "attempts": "count",
    "modified_vertices": "count",
    "overhead_ratio": "ratio",
    "exhausted": "count",
}
