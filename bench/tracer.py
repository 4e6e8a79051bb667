"""Per-layer tracing from outside the program.

The tracer replaces each layer's public entry points with timing wrappers
for the length of a traced pass and puts the originals back afterwards;
nothing in paracon changes.  A wrapped call is a span.  Spans nest on one
stack, and a layer's self time is its spans' durations minus the time
covered by wrapped child spans.  Counters are read from return values at
the same boundaries.  Spans are folded into per-layer totals as they close,
instead of being kept, so a pass of many thousand calls stays small in
memory.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


def _layer_targets():
    """(owner, attribute, metric key) for every wrapped entry point."""
    actions = importlib.import_module("paracon.actions")
    cli = importlib.import_module("paracon.cli")
    configurations = importlib.import_module("paracon.configurations")
    equations = importlib.import_module("paracon.equations")
    langsets = importlib.import_module("paracon.langsets")
    paradox = importlib.import_module("paracon.paradox")
    serialization = importlib.import_module("paracon.serialization")
    symbolic, finite = langsets.SymbolicSet, langsets.FiniteSet
    backends = (actions.FreeSelfAction, actions.FinitePermutationAction,
                actions.TrivialAction, actions.FiniteRegularAction)
    targets = [(cli, "main", "cli")]
    targets += [(serialization, name, "serialization.parse")
                for name in ("parse_action", "parse_set", "parse_sets", "parse_element",
                             "parse_elements", "parse_rational")]
    targets += [(serialization, "set_json", "serialization.set_json")]
    targets += [(cls, "__init__", "actions.build") for cls in backends]
    targets += [(cls, "act_on_set", "actions.act_on_set") for cls in backends]
    targets += [(actions, "validate_partition", "actions.validate_partition")]
    targets += [(symbolic, op, f"langsets.{op}")
                for op in ("intersection", "union", "difference", "translate", "complement")]
    targets += [(symbolic, ctor, "langsets.construct")
                for ctor in ("empty", "full", "singleton", "cone", "powers")]
    targets += [(finite, op, f"langsets.finite.{op}")
                for op in ("intersection", "union", "difference", "complement")]
    targets += [(configurations, "configuration_pair", "configurations.pair"),
                (configurations, "compute_configurations", "configurations.compute"),
                (configurations, "verify_cell_partition", "configurations.verify_cells"),
                (equations, "build_equations", "equations.build"),
                (equations, "solve_feasibility", "equations.solve"),
                (equations, "verify_solution", "equations.verify"),
                (equations, "verify_certificate", "equations.verify"),
                (paradox, "bounded_paradox_search", "paradox.search"),
                (paradox, "verify_decomposition", "paradox.verify")]
    return targets


def _bits(values) -> int:
    return max((max(Fraction(v).numerator.bit_length(), Fraction(v).denominator.bit_length())
                for v in values), default=0)


class Tracer:
    """Install with `with Tracer() as tracer:`; read `tracer.metrics()` after."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_bits = 0
        self._stack: list[list[float]] = []
        self._in_compute = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- counters read at span boundaries ------------------------------------

    def _observe(self, key: str, result) -> None:
        if key in ("langsets.intersection", "langsets.union", "langsets.difference",
                   "langsets.translate", "langsets.complement"):
            self.counts["states_out"] += len(result.transitions)
        if key == "langsets.intersection":
            self.counts["empty"] += result.is_empty
        if key in ("langsets.intersection", "langsets.finite.intersection") and self._in_compute:
            self.counts["compute_intersections"] += 1
        elif key == "configurations.compute":
            self.counts["realized"] += len(result.configurations)
        elif key == "equations.build":
            self.counts["vars"] += result.n_vars
            self.counts["rows"] += result.n_rows
        elif key == "equations.solve":
            self.counts["feasible" if result.feasible else "infeasible"] += 1
            self.max_bits = max(self.max_bits,
                                _bits(result.solution if result.feasible else result.certificate))
        elif key == "paradox.search":
            self.counts["found"] += result.decomposition is not None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key: str, fn):
        tracer = self
        is_compute = key == "configurations.compute"

        def span(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._in_compute += is_compute
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_compute -= is_compute
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.self_s[key] += elapsed - frame[0]
                tracer.calls[key] += 1
            tracer._observe(key, result)
            return result

        span.__wrapped__ = fn
        return span

    def __enter__(self) -> "Tracer":
        for owner, name, key in _layer_targets():
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(key, raw.__func__))
                else:
                    replacement = self._wrap(key, raw)
                self._restore.append((owner, name, raw))
                setattr(owner, name, replacement)
                continue
            # modules import functions by name, so patch every binding of it
            original = getattr(owner, name)
            wrapper = self._wrap(key, original)
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("paracon"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        s, calls, counts = self.self_s, self.calls, self.counts
        langsets_self = sum(v for k, v in s.items() if k.startswith("langsets."))
        intersections = calls["langsets.intersection"]
        return {
            "cli.self_s": (s["cli"], "s"),
            "serialization.parse_s": (s["serialization.parse"], "s"),
            "serialization.set_json_s": (s["serialization.set_json"], "s"),
            "serialization.set_json.calls": (calls["serialization.set_json"], "count"),
            "actions.build_s": (s["actions.build"], "s"),
            "actions.validate_partition_s": (s["actions.validate_partition"], "s"),
            "actions.validate_partition.calls": (calls["actions.validate_partition"], "count"),
            "actions.act_on_set_s": (s["actions.act_on_set"], "s"),
            "actions.act_on_set.calls": (calls["actions.act_on_set"], "count"),
            "langsets.self_s": (langsets_self, "s"),
            "langsets.intersection.calls": (intersections, "count"),
            "langsets.union.calls": (calls["langsets.union"], "count"),
            "langsets.difference.calls": (calls["langsets.difference"], "count"),
            "langsets.translate.calls": (calls["langsets.translate"], "count"),
            "langsets.finite.calls": (
                sum(n for k, n in calls.items() if k.startswith("langsets.finite.")), "count"),
            "langsets.states_out": (counts["states_out"], "states"),
            "langsets.empty_ratio": (_ratio(counts["empty"], intersections), "ratio"),
            "configurations.pair_s": (s["configurations.pair"], "s"),
            "configurations.compute_s": (s["configurations.compute"], "s"),
            "configurations.verify_cells_s": (s["configurations.verify_cells"], "s"),
            "configurations.realized": (counts["realized"], "count"),
            "configurations.yield": (
                _ratio(counts["realized"], counts["compute_intersections"]), "ratio"),
            "equations.build_s": (s["equations.build"], "s"),
            "equations.solve_s": (s["equations.solve"], "s"),
            "equations.verify_s": (s["equations.verify"], "s"),
            "equations.vars": (counts["vars"], "count"),
            "equations.rows": (counts["rows"], "count"),
            "equations.feasible": (counts["feasible"], "count"),
            "equations.infeasible": (counts["infeasible"], "count"),
            "equations.max_bits": (self.max_bits, "bits"),
            "paradox.search_s": (s["paradox.search"], "s"),
            "paradox.verify_s": (s["paradox.verify"], "s"),
            "paradox.candidates": (calls["paradox.verify"], "count"),
            "paradox.hit_ratio": (_ratio(counts["found"], calls["paradox.verify"]), "ratio"),
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
