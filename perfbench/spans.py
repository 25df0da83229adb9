"""Span tracer that wraps iegirs functions from outside the package.

Each traced function is replaced by a wrapper in its own module and in every
iegirs module that imported it by name, so calls made through either binding
are seen. A span records (function, start, end, parent span, solve id, tag);
spans stay in memory until the run writes them out. The solve id is a
counter advanced by each harness.run_scheme call, so every span inside one
(trial, scheme) solve shares it. The tag is an outcome read from the
function's arguments and return value (binding power budget, changed
grouping, scheme name).
"""

import json
import sys
import time

import numpy as np

TRACED = {
    "channel": ("build_scenario", "sample_rician"),
    "grouping": ("combine_cascade", "relaxed_qp_grouping"),
    "beamforming": ("two_stage_solve", "solve_fp", "update_auxiliaries", "update_precoder",
                    "fp_objective", "effective_channels", "joint_phase_rotation",
                    "update_rcv_mm", "build_rcv_quadratic", "top_eigenvalue", "mm_step"),
    "harness": ("run_scheme", "write_csv"),
    "asymptotics": ("simulate_grouped_cascades", "simulate_ungrouped_gain",
                    "validate_combined_cascade_monte_carlo"),
}

# per-layer metrics reported by the traced run: (name, unit)
SELF_TIMES = (
    "grouping.relaxed_qp_grouping", "beamforming.update_precoder",
    "beamforming.update_auxiliaries", "beamforming.fp_objective",
    "beamforming.effective_channels", "beamforming.joint_phase_rotation",
    "beamforming.update_rcv_mm", "beamforming.top_eigenvalue", "beamforming.build_rcv_quadratic",
    "channel.build_scenario", "harness.run_scheme", "grouping.combine_cascade",
    "channel.sample_rician", "asymptotics.simulate_grouped_cascades",
    "asymptotics.simulate_ungrouped_gain", "asymptotics.validate_combined_cascade_monte_carlo",
    "harness.write_csv",
)
CALLS = (
    "grouping.relaxed_qp_grouping", "beamforming.update_precoder",
    "beamforming.update_auxiliaries", "beamforming.fp_objective",
    "beamforming.effective_channels", "beamforming.joint_phase_rotation",
    "beamforming.update_rcv_mm", "beamforming.top_eigenvalue", "beamforming.mm_step",
    "grouping.combine_cascade", "channel.sample_rician",
)
DERIVED = (
    ("beamforming.stage1_s", "s"),
    ("beamforming.stage2_s", "s"),
    ("beamforming.stat_solves_per_ieg", "count"),
    ("grouping.relaxed_qp_grouping.changed_ratio", "ratio"),
    ("beamforming.update_precoder.binding_ratio", "ratio"),
    ("beamforming.mm_steps_per_update", "count"),
)
LAYER_METRICS = (tuple((f"{n}.self_s", "s") for n in SELF_TIMES)
                 + tuple((f"{n}.calls", "count") for n in CALLS) + DERIVED)


def _scheme_tag(args, kwargs, out):
    return args[0] if args else kwargs["scheme"]


def _binding_tag(args, kwargs, out):
    return bool(out.lagrange > 0)


def _changed_tag(args, kwargs, out):
    starts = kwargs.get("extra_starts", ())
    return not (starts and np.array_equal(out.assignment, starts[0].assignment))


TAGS = {
    "harness.run_scheme": _scheme_tag,
    "beamforming.update_precoder": _binding_tag,
    "grouping.relaxed_qp_grouping": _changed_tag,
}


class Tracer:
    """Wraps the TRACED functions; records spans only while active is True."""

    def __init__(self):
        self.names = []
        self.spans = []          # [name index, start, end, parent, solve id, tag]
        self.active = False
        self._stack = []
        self._solve = -1
        self._restore = []

    def install(self):
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "iegirs" or name.startswith("iegirs."))]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"iegirs.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        tag_fn = TAGS.get(name)
        opens_solve = name == "harness.run_scheme"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if opens_solve:
                self._solve += 1
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self._solve, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag_fn is not None:
                span[5] = tag_fn(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, solve, tag."""
        with open(path, "w") as fh:
            for idx, start, end, parent, solve, tag in self.spans:
                fh.write(json.dumps({"name": self.names[idx], "start": start, "end": end,
                                     "parent": parent, "solve": solve, "tag": tag}) + "\n")

    def summary(self):
        """Per-function self time, call counts and tag counts, plus stage splits."""
        n = len(self.spans)
        child = [0.0] * n
        for idx, start, end, parent, solve, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {name: 0.0 for name in self.names}
        calls = {name: 0 for name in self.names}
        tagged = {name: 0 for name in self.names}
        for i, (idx, start, end, parent, solve, tag) in enumerate(self.spans):
            name = self.names[idx]
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if tag is True:
                tagged[name] += 1
        stage = self._stage_split()
        return {"self_s": self_s, "calls": calls, "tagged": tagged, **stage}

    def _stage_split(self):
        """Stage 1 / stage 2 of every two_stage_solve span.

        Stage 2 is the last solve_fp nested in the span; stage 1 is the rest
        of the span. Statistical solves are the other nested solve_fp calls.
        """
        two_stage = self.names.index("beamforming.two_stage_solve")
        solve_fp = self.names.index("beamforming.solve_fp")
        run_scheme = self.names.index("harness.run_scheme")
        owner = {}                                      # span index -> enclosing two_stage_solve
        last_fp, nested_fp = {}, {}
        scheme_of_solve = {}
        stage1 = stage2 = 0.0
        for i, (idx, start, end, parent, solve, tag) in enumerate(self.spans):
            if idx == run_scheme:
                scheme_of_solve[solve] = tag
            top = owner.get(parent) if parent >= 0 else None
            if idx == two_stage:
                top = i
            if top is not None:
                owner[i] = top
                if idx == solve_fp:
                    last_fp[top] = i
                    nested_fp[top] = nested_fp.get(top, 0) + 1
        ieg_stat_solves = []
        for top, fp in last_fp.items():
            span, last = self.spans[top], self.spans[fp]
            stage2 += last[2] - last[1]
            stage1 += (span[2] - span[1]) - (last[2] - last[1])
            if scheme_of_solve.get(span[4]) == "ieg":
                ieg_stat_solves.append(nested_fp[top] - 1)
        return {"stage1_s": stage1, "stage2_s": stage2,
                "stat_solves_per_ieg": (sum(ieg_stat_solves) / len(ieg_stat_solves)
                                        if ieg_stat_solves else 0.0)}


def layer_metrics(summary):
    """Per-layer metric values from one traced pass's summary."""
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = summary["self_s"][name]
    for name in CALLS:
        out[f"{name}.calls"] = summary["calls"][name]

    def ratio(num, den):
        return num / den if den else 0.0

    out["beamforming.stage1_s"] = summary["stage1_s"]
    out["beamforming.stage2_s"] = summary["stage2_s"]
    out["beamforming.stat_solves_per_ieg"] = summary["stat_solves_per_ieg"]
    out["grouping.relaxed_qp_grouping.changed_ratio"] = ratio(
        summary["tagged"]["grouping.relaxed_qp_grouping"],
        summary["calls"]["grouping.relaxed_qp_grouping"])
    out["beamforming.update_precoder.binding_ratio"] = ratio(
        summary["tagged"]["beamforming.update_precoder"],
        summary["calls"]["beamforming.update_precoder"])
    out["beamforming.mm_steps_per_update"] = ratio(
        summary["calls"]["beamforming.mm_step"], summary["calls"]["beamforming.update_rcv_mm"])
    return out
