"""In-process spans and counters around the public functions of sqcflow.

Nothing here lives in ``src/``: ``install`` replaces module attributes with
timing wrappers, in every module that looks the name up (``from .x import
y`` copies a reference, so ``cli.integrate_first_order`` and
``flows.integrate_first_order`` are patched separately).  Oracle and
domain-predicate counters wrap the entry that ``cli.get_entry`` returns.

Every span is kept in memory as (name, layer, start, end, parent index);
``summary`` turns them into per-layer busy and self times.  A layer's busy
time is the time covered by its outermost spans; its self time is the
duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "catalog", "core", "sampling", "verify", "flows", "solvers",
          "estimate")

# public functions traced per module; the module name is the span's layer
_MODULE_FUNCTIONS = {
    "verify": ("check_strong_quasiconvexity", "check_convexity",
               "check_gradient_characterization", "check_offset_monotonicity",
               "check_strong_pseudomonotonicity", "check_strong_quasimonotonicity",
               "check_monotone_operator", "check_pl", "check_quasi_strong_convexity",
               "check_sharp_quasiconvexity", "check_implication_ladder",
               "ladder_soundness", "witness_margin"),
    "flows": ("integrate_first_order", "integrate_second_order",
              "certify_first_order", "certify_first_order_values",
              "certify_second_order"),
    "solvers": ("gradient_descent", "heavy_ball", "certify_gd_contraction",
                "certify_gd_values", "certify_hb_energy"),
    "estimate": ("estimate_lipschitz_sublevel", "empirical_modulus",
                 "estimate_kappa", "reference_minimizer"),
    "sampling": ("sample_points", "sample_pairs"),
}

_INTEGRATORS = ("integrate_first_order", "integrate_second_order")
_RUNS = ("gradient_descent", "heavy_ball")


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, layer: str, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent)

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch sqcflow in this process; returns the patched cli module."""
        from sqcflow import (catalog, cli, core, estimate, flows, sampling,
                             solvers, verify)
        modules = {"cli": cli, "catalog": catalog, "core": core,
                   "estimate": estimate, "flows": flows, "sampling": sampling,
                   "solvers": solvers, "verify": verify}
        hooks = self._result_hooks()
        for mod_name, names in _MODULE_FUNCTIONS.items():
            for name in names:
                original = getattr(modules[mod_name], name)
                wrapped = self.wrap(original, f"{mod_name}.{name}", mod_name,
                                    hooks.get(name))
                for module in modules.values():
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)

        counts = self.counts

        def count_rows(result, args):
            counts["sampling.rows"] += result.shape[0]
        sampling.NestedSampler.rows = self.wrap(
            sampling.NestedSampler.rows, "sampling.rows", "sampling", count_rows)

        def count_contains(result, args):
            counts["core.contains_calls"] += 1
        core.DomainSpec.contains = self.wrap(
            core.DomainSpec.contains, "core.contains", "core", count_contains)

        get_entry = cli.get_entry
        cli.get_entry = lambda name: self.traced_entry(get_entry(name))

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse", "cli")
            return parser
        cli.build_parser = self.wrap(traced_build_parser, "cli.parse", "cli")
        cli._config_from_args = self.wrap(cli._config_from_args, "cli.parse", "cli")
        cli.write_trace_csv = self.wrap(
            cli.write_trace_csv, "cli.write_trace_csv", "cli",
            self._count_bytes("cli.trace_bytes"))
        cli.write_json = self.wrap(cli.write_json, "cli.write_json", "cli",
                                   self._count_bytes("cli.json_bytes"))
        cli.run_experiment = self.wrap(cli.run_experiment, "cli.run_experiment", "cli")
        cli.main = self.wrap(cli.main, "cli.main", "cli")
        return cli

    def _count_bytes(self, key):
        def hook(result, args):
            self.counts[key] += os.path.getsize(args[0])
        return hook

    def _result_hooks(self):
        counts = self.counts

        def check(result, args):
            counts["verify.checks"] += 1
            counts["verify.samples_tested"] += result.samples_tested
            counts["verify.violations"] += result.violations_count

        def integrate(result, args):
            counts["flows.steps"] += len(result) - 1

        def run(result, args):
            counts["solvers.iters"] += len(result) - 1

        def certify(layer):
            def hook(result, args):
                counts[f"{layer}.certs"] += 1
                counts[f"{layer}.certs_failed"] += not result.satisfied
            return hook

        def sample(result, args):
            counts["sampling.calls"] += 1
            first = result[0] if isinstance(result, tuple) else result
            counts["sampling.accepted"] += first.shape[0]

        def estimate(result, args):
            counts["estimate.calls"] += 1

        hooks = {name: check for name in _MODULE_FUNCTIONS["verify"]
                 if name.startswith("check_") and name != "check_implication_ladder"}
        hooks.update({name: integrate for name in _INTEGRATORS})
        hooks.update({name: run for name in _RUNS})
        hooks.update({name: certify("flows") for name in _MODULE_FUNCTIONS["flows"]
                      if name.startswith("certify_")})
        hooks.update({name: certify("solvers") for name in _MODULE_FUNCTIONS["solvers"]
                      if name.startswith("certify_")})
        hooks.update({name: sample for name in _MODULE_FUNCTIONS["sampling"]})
        hooks.update({name: estimate for name in _MODULE_FUNCTIONS["estimate"]})
        return hooks

    def traced_entry(self, entry):
        """The catalog entry with counting oracle callables and predicate."""
        counts = self.counts
        oracle = entry.oracle

        def points(key):
            def hook(result, args):
                counts[key] += 1
                counts["catalog.points"] += int(np.prod(np.shape(args[0])[:-1]))
            return hook

        domain = oracle.domain
        if domain.predicate is not None:
            def count_predicate(result, args):
                counts["core.predicate_calls"] += 1
            domain = dataclasses.replace(
                domain, predicate=self.wrap(domain.predicate, "core.predicate",
                                            "core", count_predicate))
        oracle = dataclasses.replace(
            oracle,
            value=self.wrap(oracle.value, "catalog.value", "catalog",
                            points("catalog.value_calls")),
            grad=self.wrap(oracle.grad, "catalog.grad", "catalog",
                           points("catalog.grad_calls")),
            domain=domain)
        return dataclasses.replace(entry, oracle=oracle)

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer busy/self seconds, per-name seconds, and the counters."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict = {}
        for i, (name, layer, start, end, parent) in enumerate(spans):
            dur = end - start
            self_s[layer] += dur - child_time[i]
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_time[i]
            if not self._has_ancestor_in(i, layer):
                busy[layer] += dur
        return {
            "spans": n,
            "busy_s": busy,
            "self_s": self_s,
            "by_name": {k: {"calls": c, "total_s": t, "self_s": s}
                        for k, (c, t, s) in sorted(by_name.items())},
            "counts": dict(sorted(self.counts.items())),
        }

    def _has_ancestor_in(self, i: int, layer: str) -> bool:
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][1] == layer:
                return True
            parent = self.spans[parent][4]
        return False
