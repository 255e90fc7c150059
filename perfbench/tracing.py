"""Layer tracing from outside the package: wrap public functions in place.

``Tracer.install`` replaces each traced function at every ``qshutter.*``
module attribute that holds it (so calls between modules are traced too) and
``ResonantMode.u`` on its class; ``uninstall`` puts the originals back.  A
span is opened around every call.  Its self time is its duration minus the
duration of the traced calls it made.  Spans of coarse functions are kept
one by one with their parent and op id; fine-grained functions (called
thousands of times per op) are aggregated into the nearest kept ancestor.
Nothing is written until ``spans`` is read at the end of the run.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import qshutter
from qshutter.modes import ResonantMode

# metric name -> (module, attribute); the layer is the module name
TRACED = {
    "scattering.transmission": ("scattering", "transmission"),
    "scattering.transfer_matrix": ("scattering", "transfer_matrix"),
    "scattering.solve_stationary": ("scattering", "solve_stationary"),
    "scattering.stationary_wave": ("scattering", "stationary_wave"),
    "poles.find_poles": ("poles", "find_poles"),
    "poles.seed_poles": ("poles", "seed_poles"),
    "poles.refine_pole": ("poles", "refine_pole"),
    "poles.pole_condition": ("poles", "pole_condition"),
    "modes.solve_mode": ("modes", "solve_mode"),
    "modes.ResonantMode.u": ("modes", "ResonantMode.u"),
    "modes.rho": ("modes", "rho"),
    "modes.rho_mirror": ("modes", "rho_mirror"),
    "mfunc.m_function": ("mfunc", "m_function"),
    "transient.make_problem": ("transient", "make_problem"),
    "transient.psi_exact": ("transient", "psi_exact"),
    "transient.psi_doublet_M": ("transient", "psi_doublet_M"),
    "transient.evolve_trace": ("transient", "evolve_trace"),
    "twolevel.density_two_level": ("twolevel", "density_two_level"),
    "twolevel.frequencies": ("twolevel", "frequencies"),
    "config.parse_config": ("config", "parse_config"),
    "config.resolve_scenario": ("config", "resolve_scenario"),
    "output.write_trace_csv": ("output", "write_trace_csv"),
}

FINE = {
    "scattering.transmission",
    "scattering.transfer_matrix",
    "scattering.stationary_wave",
    "poles.pole_condition",
    "modes.ResonantMode.u",
    "modes.rho",
    "modes.rho_mirror",
    "mfunc.m_function",
}

# functions whose arguments or results feed the extra counts (see _observe)
OBSERVED = {
    "poles.find_poles",
    "modes.solve_mode",
    "modes.ResonantMode.u",
    "mfunc.m_function",
    "output.write_trace_csv",
}

OP = "op"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.pairs = defaultdict(int)  # (parent name, name) -> calls
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.spans: list[dict] = []
        # open frames: [name, start, child time, index of nearest kept span]
        self._stack: list[list] = []
        self._op_id = None
        self._patched: list[tuple] = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.spans.append(
            {"name": OP, "op": op_id, "parent": None, "start": perf_counter()}
        )
        self._stack.append([OP, self.spans[-1]["start"], 0.0, len(self.spans) - 1])

    def end_op(self) -> None:
        end = perf_counter()
        _, start, child, idx = self._stack.pop()
        span = self.spans[idx]
        span.update(end=end, self_s=end - start - child)
        self.calls[OP] += 1
        self.self_s[OP] += end - start - child
        self._op_id = None

    # -- wrapping --------------------------------------------------------

    def _observe(self, name, args, result) -> None:
        if name == "poles.find_poles":
            self.counts["poles.found"] += len(result)
        elif name == "modes.solve_mode":
            for key in ("outgoing_residual", "normalization_residual"):
                self.maxima[key] = max(self.maxima[key], getattr(result, key))
        elif name == "modes.ResonantMode.u":
            self.counts["modes.u.points"] += np.size(args[1])
        elif name == "mfunc.m_function":
            self.counts["mfunc.m_function.points"] += np.size(args[0])
        elif name == "output.write_trace_csv":
            self.counts["output.bytes"] += os.path.getsize(result)

    def _wrap(self, name: str, fn):
        tracer = self
        keep = name not in FINE
        observed = name in OBSERVED

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            if keep:
                tracer.spans.append(
                    {"name": name, "op": tracer._op_id, "parent": parent[3]}
                )
                idx = len(tracer.spans) - 1
            else:
                idx = parent[3]
            frame = [name, 0.0, 0.0, idx]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observed:
                    tracer._observe(name, args, result)
                return result
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[2]
                parent[2] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.pairs[parent[0], name] += 1
                if keep:
                    tracer.spans[idx].update(start=start, end=end, self_s=own)
                else:
                    agg = tracer.spans[idx].setdefault("children", {})
                    entry = agg.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += own

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qshutter" or n.startswith("qshutter."))
        ]
        for name, (module, attr) in TRACED.items():
            if attr == "ResonantMode.u":
                original = ResonantMode.__dict__["u"]
                self._patched.append((ResonantMode, "u", original))
                ResonantMode.u = self._wrap(name, original)
                continue
            original = getattr(getattr(qshutter, module), attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        found = self.counts["poles.found"]

        def per_pole(v):
            return v / found if found else 0.0

        seed_points = self.pairs["poles.seed_poles", "scattering.transmission"]
        newton = self.pairs["poles.refine_pole", "poles.pole_condition"]
        m_points = self.counts["mfunc.m_function.points"]
        m_self = self.self_s["mfunc.m_function"]
        out.update(
            {
                "poles.seed_points": (seed_points, "count"),
                "poles.seed_points_per_pole": (per_pole(seed_points), "count"),
                "poles.seeds_per_pole": (
                    per_pole(self.calls["poles.refine_pole"]),
                    "count",
                ),
                "poles.newton_evals_per_pole": (per_pole(newton), "count"),
                "poles.refine_pole.failed": (self.failed["poles.refine_pole"], "count"),
                "poles.find_poles.calls_per_op": (
                    self.calls["poles.find_poles"] / ops,
                    "count",
                ),
                "modes.u.points": (self.counts["modes.u.points"], "count"),
                "modes.outgoing_residual_max": (
                    self.maxima["outgoing_residual"],
                    "1",
                ),
                "modes.normalization_residual_max": (
                    self.maxima["normalization_residual"],
                    "1",
                ),
                "mfunc.m_function.points": (m_points, "count"),
                "mfunc.points_per_s": (m_points / m_self if m_self else 0.0, "1/s"),
                "output.bytes": (self.counts["output.bytes"], "bytes"),
            }
        )
        return out

