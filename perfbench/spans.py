"""Spans around pbprop's public functions, put in place from outside.

Each function is replaced where its callers look it up (a module global
or a class attribute) by a wrapper that records a span (id, parent, name,
start, end) in memory.  Work counters are read from arguments and return
values inside a span of their own, named "trace", so that their cost is
booked as tracing overhead and not to the layer that was called.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
from collections import Counter
from time import perf_counter

ROOT = "bench.op"
TRACE = "trace"


def _verdict_counts(counts, args, verdict):
    counts["axioms.verdicts"] += 1
    counts["axioms.violated"] += not verdict.satisfied


def _subset_search(counts, args, verdict):
    _verdict_counts(counts, args, verdict)
    instance = args[0]
    counts["axioms.subset_pairs"] += 2 ** len(instance.voters) * 2 ** len(instance.projects)


def _lp_sizes(counts, args, result):
    system = args[0]
    counts["linsolve.rows"] += len(system.constraints)
    counts["linsolve.cols"] += len(system.variables)
    counts["linsolve.nonzeros"] += sum(len(con.coeffs) for con in system.constraints)
    counts["linsolve.infeasible"] += not result.feasible


def _purchases(field):
    def count(counts, args, result):
        counts["rules.purchases"] += len(getattr(result[1], field))

    return count


def _file_bytes(counts, args, result):
    counts["io.bytes"] += os.stat(args[0]).st_size


def _report_bytes(counts, args, result):
    # The benchmark runs every CLI call with stdout captured in a fresh
    # StringIO, so its length is the size of this call's report.
    counts["cli.report_bytes"] += len(sys.stdout.getvalue())


def _bundle_count(counts, args, result):
    counts["laminar.bundles"] += len(result)


# (module, attribute, span name, counter).  A function looked up in two
# places is wrapped in both, under one span name.
TARGETS = (
    ("pbprop.cli", "main", "cli.main", _report_bytes),
    ("pbprop.cli", "load_instance", "io.load_instance", _file_bytes),
    ("pbprop.io", "parse_pabulib", "io.parse_pabulib", None),
    ("pbprop.io", "parse_instance", "io.parse_instance", None),
    ("pbprop.model.PBInstance", "build", "model.build", None),
    ("pbprop.io", "validate", "model.validate", None),
    ("pbprop.cli", "phragmen", "rules.phragmen", _purchases("events")),
    ("pbprop.rules", "phragmen", "rules.phragmen", _purchases("events")),
    ("pbprop.cli", "rule_x", "rules.rule_x", _purchases("rounds")),
    ("pbprop.rules", "rule_x", "rules.rule_x", _purchases("rounds")),
    ("pbprop.rules", "min_rho", "rules.min_rho", None),
    ("pbprop.cli", "pav", "rules.pav", None),
    ("pbprop.rules", "pav", "rules.pav", None),
    ("pbprop.axioms", "check_core", "axioms.check_core", _subset_search),
    ("pbprop.axioms", "check_ejr", "axioms.check_ejr", _subset_search),
    ("pbprop.axioms", "check_pjr", "axioms.check_pjr", _subset_search),
    ("pbprop.axioms", "check_strong_bpjr", "axioms.check_strong_bpjr", _subset_search),
    ("pbprop.axioms", "check_mwv_pjr", "axioms.check_mwv_pjr", _subset_search),
    ("pbprop.cli", "check_priceable", "axioms.check_priceable", _verdict_counts),
    ("pbprop.axioms", "check_priceable", "axioms.check_priceable", _verdict_counts),
    ("pbprop.axioms", "priceability_system", "axioms.priceability_system", None),
    ("pbprop.linsolve", "lp_feasible", "linsolve.lp_feasible", _lp_sizes),
    ("pbprop.laminar", "recognize_laminar", "laminar.recognize_laminar", None),
    ("pbprop.laminar", "laminar_bundles", "laminar.laminar_bundles", _bundle_count),
    ("pbprop.laminar", "is_laminar_proportional", "laminar.is_laminar_proportional", None),
    ("pbprop.laminar", "laminar_price_system", "laminar.laminar_price_system", None),
    ("pbprop.laminar", "check_core_u_afford", "laminar.check_core_u_afford", None),
)

# Span name -> the per-layer self-time metric it is booked to.
SELF_TIME = {
    ROOT: "bench.self_s",
    TRACE: "trace.self_s",
    "cli.main": "cli.self_s",
    "io.load_instance": "io.parse_s",
    "io.parse_pabulib": "io.parse_s",
    "io.parse_instance": "io.parse_s",
    "model.build": "model.build_s",
    "model.validate": "model.validate_s",
    "rules.phragmen": "rules.phragmen_s",
    "rules.rule_x": "rules.rule_x_s",
    "rules.min_rho": "rules.rule_x_s",
    "rules.pav": "rules.pav_s",
    "axioms.check_core": "axioms.core_s",
    "axioms.check_ejr": "axioms.ejr_s",
    "axioms.check_pjr": "axioms.pjr_s",
    "axioms.check_strong_bpjr": "axioms.bpjr_s",
    "axioms.check_mwv_pjr": "axioms.mwvpjr_s",
    "axioms.check_priceable": "axioms.priceable_s",
    "axioms.priceability_system": "axioms.price_system_build_s",
    "linsolve.lp_feasible": "linsolve.lp_s",
    "laminar.recognize_laminar": "laminar.recognize_s",
    "laminar.laminar_bundles": "laminar.bundles_s",
    "laminar.is_laminar_proportional": "laminar.certify_s",
    "laminar.laminar_price_system": "laminar.price_system_s",
    "laminar.check_core_u_afford": "laminar.core_u_afford_s",
}

# Counts read off the span list: span name -> metric.
CALLS = {
    "rules.min_rho": "rules.min_rho_calls",
    "linsolve.lp_feasible": "linsolve.calls",
    "laminar.recognize_laminar": "laminar.recognize_calls",
}

# Counts the counter functions above add up: metric -> unit.
COUNTERS = {
    "io.bytes": "B/op",
    "cli.report_bytes": "B/op",
    "rules.purchases": "count/op",
    "axioms.verdicts": "count/op",
    "axioms.violated": "count/op",
    "axioms.subset_pairs": "computed/op",
    "linsolve.rows": "count/op",
    "linsolve.cols": "count/op",
    "linsolve.nonzeros": "count/op",
    "linsolve.infeasible": "count/op",
    "laminar.bundles": "count/op",
}


def _resolve(path):
    if path in sys.modules:
        return sys.modules[path]
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


class Tracer:
    """Records spans while installed; install() and uninstall() swap the
    wrappers in and out."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counts = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved = []

    def _open(self):
        sid = next(self._ids)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, self._stack[-1], name, start, end))

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span."""
        sid = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, name, start)

    def _wrap(self, fn, name, counter):
        materialize = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self._close(sid, name, start)
            if counter is not None:
                self.span(TRACE, counter, self.counts, args, result)
            return iter(result) if materialize else result

        return wrapper

    def install(self):
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(fn, name, counter)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            self._saved.append((owner, attr, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layer_metrics(self, ops):
        """Per-operation self times and counts over everything recorded."""
        children = Counter()
        for sid, parent, name, start, end in self.spans:
            children[parent] += end - start
        totals = Counter({metric: 0.0 for metric in SELF_TIME.values()})
        calls = Counter({metric: 0 for metric in CALLS.values()})
        for sid, parent, name, start, end in self.spans:
            totals[SELF_TIME[name]] += end - start - children[sid]
            if name in CALLS:
                calls[CALLS[name]] += 1
        metrics = {m: (v / ops, "s/op") for m, v in totals.items()}
        metrics.update({m: (v / ops, "count/op") for m, v in calls.items()})
        metrics.update({m: (self.counts[m] / ops, unit) for m, unit in COUNTERS.items()})
        metrics["trace.spans"] = (len(self.spans) / ops, "count/op")
        return metrics, sum(totals.values())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
