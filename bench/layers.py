"""Span tracing of holesim's layers from outside the package.

Each public function is wrapped where its caller looks it up, because
``from .x import y`` binds ``y`` into the consuming module: for example
``hole_experiment.evolve`` and ``cli.evolve`` both wrap
``holesim.evolve.evolve``. Wrappers return the callee's object unchanged
(``run_hole`` tests ``raw is left.states[i]``). A span is recorded as
(name, start, end, parent span, run id, attributes, hook seconds) in
memory; the spans are written out when the run ends.

A layer's self time is its span time minus the time of its child spans.
The tracer's own work around a call (the attribute hooks, such as hashing
an evolve's inputs, and the span bookkeeping) runs outside the callee's
span but inside its parent's; it is kept as the span's hook seconds and
taken out of the parent's self time as well. Byte figures are computed
from array shapes, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from holesim.diffeo import _aligned_cells

COMPLEX_BYTES = 16


class Tracer:
    """Installs span-recording wrappers and records spans while installed."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, before=None, after=None, attrs=None):
        """``before(args, attrs)`` may return replacement arguments;
        ``after(args, result, attrs)`` records attributes of the result.
        Without either, every span shares the constant ``attrs``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook_start = time.perf_counter()
            span_attrs = attrs
            if before is not None or after is not None:
                span_attrs = {}
            if before is not None:
                args = before(args, span_attrs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else -1
                span = (name, start, end, parent, self.run_id, span_attrs, start - hook_start)
                spans[index] = span
            if after is not None:
                after(args, result, span_attrs)
            spans[index] = span[:6] + (span[6] + time.perf_counter() - end,)
            return result

        return traced

    def patch(self, owner, attribute, name, **hooks):
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapper = self.wrap(name, original, **hooks)
        self._patches.append((owner, attribute, original, wrapper))

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer) -> None:
    """Register a wrapper at every call site of each traced layer."""
    cli, diffeo, evolve, harmonic, hole, observable, recover = (
        importlib.import_module(f"holesim.{name}")
        for name in ("cli", "diffeo", "evolve", "harmonic", "hole_experiment",
                     "observable", "background_recover")
    )
    for module in (diffeo, evolve):
        tracer.patch(module, "spectral_sample", "grid.spectral_sample", before=_sample_attrs)
    for module in (cli, recover, observable, hole):
        tracer.patch(module, "inner_product", "grid.inner_product",
                     attrs={"site": module.__name__})
    for module in (hole, cli):
        tracer.patch(module, "evolve", "evolve.evolve", after=_evolve_attrs)
    tracer.patch(evolve.Potential, "point_mass", "evolve.Potential.point_mass")
    tracer.patch(hole, "pushforward_wavefunction", "diffeo.pushforward_wavefunction",
                 before=_classify_pushforward)
    tracer.patch(diffeo.SpatialDiffeomorphism, "inverse", "diffeo.SpatialDiffeomorphism.inverse")
    tracer.patch(hole, "pushforward_potential", "diffeo.pushforward_potential")
    tracer.patch(hole, "theta_time_series", "observable.theta_time_series")
    tracer.patch(observable, "compute_theta", "observable.compute_theta")
    for module in (cli, hole):
        tracer.patch(module, "run_hole", "hole_experiment.run_hole")
    tracer.patch(cli, "run_baseline", "hole_experiment.run_baseline")
    tracer.patch(cli, "sweep", "hole_experiment.sweep")
    tracer.patch(hole, "mass_in_region", "hole_experiment.mass_in_region")
    tracer.patch(cli, "sample_form", "background_recover.sample_form", before=_count_oracle)
    tracer.patch(cli, "recover_background", "background_recover.recover_background")
    tracer.patch(harmonic.MetricField, "__post_init__", "harmonic.MetricField")
    tracer.patch(cli, "harmonic_residual", "harmonic.harmonic_residual")
    for name in ("load_config", "execute", "read_metric_field", "render_grid_field"):
        tracer.patch(cli, name, f"cli.{name}")
    tracer.patch(cli, "write_bundle", "cli.write_bundle", after=_bundle_bytes)


def _sample_attrs(args, attrs):
    grid, _, points = args[:3]
    count = len(points)
    shape = grid.shape
    # Per-axis (P, N_axis) factor tables plus the contraction intermediate:
    # (N0, P) in 2D and (N0, N1, P) in 3D.
    intermediate = count * shape[0] * (shape[1] if len(shape) == 3 else 1)
    attrs["points"] = count
    attrs["table_bytes"] = COMPLEX_BYTES * (count * sum(shape)
                                            + (intermediate if len(shape) > 1 else 0))
    return args


def _evolve_attrs(args, result, attrs):
    psi0, potential, config = args[:3]
    digest = hashlib.blake2b(psi0.amplitudes)
    digest.update(potential.values)
    digest.update(repr(config).encode())
    attrs["input"] = digest.hexdigest()
    attrs["steps"] = int(round(config.t_end / config.dt))
    attrs["size"] = psi0.grid.size
    attrs["snapshot_bytes"] = COMPLEX_BYTES * psi0.grid.size * len(result.states)


def _classify_pushforward(args, attrs):
    """The path ``pushforward_wavefunction`` takes, by the package's own rule."""
    psi, phi, t = args[:3]
    if phi.is_identity_at(t):
        attrs["kind"] = "identity"
    elif phi.kind == "translation_ramp" and _aligned_cells(phi.displacement_at(t),
                                                           psi.grid) is not None:
        attrs["kind"] = "aligned"
    else:
        attrs["kind"] = "offgrid"
    return args


def _count_oracle(args, attrs):
    basis_g, basis_eta, oracle = args[:3]
    attrs["oracle_calls"] = 0

    def counted(e, f):
        attrs["oracle_calls"] += 1
        return oracle(e, f)

    return (basis_g, basis_eta, counted) + tuple(args[3:])


def _bundle_bytes(args, result, attrs):
    attrs["bytes"] = sum(Path(path).stat().st_size for path in result)


def layer_metrics(spans, offset: int) -> dict[str, float]:
    """Per-layer figures of one traced pass from its spans, the slice of
    the tracer's span list that starts at ``offset``."""
    child_time = defaultdict(float)
    for _, start, end, parent, _, _, hook_s in spans:
        if parent >= 0:
            child_time[parent - offset] += end - start + hook_s
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for index, (name, start, end, _, run, attrs, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time.get(index, 0.0)
        by_name[name].append((end - start, run, attrs))

    def total(name, key):
        return sum(attrs[key] for _, _, attrs in by_name[name])

    def largest(name, key):
        return max((attrs[key] for _, _, attrs in by_name[name]), default=0)

    evolves = by_name["evolve.evolve"]
    evolve_time = sum(duration for duration, _, _ in evolves)
    distinct = defaultdict(set)
    for _, run, attrs in evolves:
        distinct[run].add(attrs["input"])
    pushforwards = by_name["diffeo.pushforward_wavefunction"]
    recover_site = "holesim.background_recover"

    metrics = {
        "grid.spectral_sample.calls": calls["grid.spectral_sample"],
        "grid.spectral_sample.self_s": self_s["grid.spectral_sample"],
        "grid.spectral_sample.points": total("grid.spectral_sample", "points"),
        "grid.spectral_sample.table_bytes": largest("grid.spectral_sample", "table_bytes"),
        "grid.inner_product.calls": calls["grid.inner_product"],
        "grid.inner_product.self_s": self_s["grid.inner_product"],
        "evolve.evolve.calls": len(evolves),
        "evolve.evolve.self_s": self_s["evolve.evolve"],
        "evolve.evolve.steps": total("evolve.evolve", "steps"),
        "evolve.evolve.point_steps_per_s": (
            sum(a["steps"] * a["size"] for _, _, a in evolves) / evolve_time
            if evolve_time > 0 else 0.0),
        "evolve.evolve.snapshot_bytes": largest("evolve.evolve", "snapshot_bytes"),
        "evolve.evolve.distinct_ratio": (
            sum(len(s) for s in distinct.values()) / len(evolves) if evolves else 1.0),
        "diffeo.pushforward_wavefunction.offgrid_calls": sum(
            1 for _, _, attrs in pushforwards if attrs["kind"] == "offgrid"),
        # Only the final transformed potential of a run_hole is used.
        "diffeo.pushforward_potential.useful_ratio": (
            min(calls["hole_experiment.run_hole"], calls["diffeo.pushforward_potential"])
            / calls["diffeo.pushforward_potential"]
            if calls["diffeo.pushforward_potential"] else 1.0),
        "background_recover.sample_form.oracle_calls": total(
            "background_recover.sample_form", "oracle_calls"),
        "background_recover.gram_inner_products": sum(
            1 for _, _, attrs in by_name["grid.inner_product"]
            if attrs["site"] == recover_site),
        "cli.write_bundle.bytes": total("cli.write_bundle", "bytes"),
    }
    for name in ("evolve.Potential.point_mass", "diffeo.pushforward_wavefunction",
                 "diffeo.pushforward_potential", "observable.compute_theta",
                 "hole_experiment.mass_in_region"):
        metrics[f"{name}.calls"] = calls[name]
    for name in ("evolve.Potential.point_mass", "diffeo.pushforward_wavefunction",
                 "diffeo.SpatialDiffeomorphism.inverse", "diffeo.pushforward_potential",
                 "observable.theta_time_series", "hole_experiment.run_hole",
                 "hole_experiment.run_baseline", "hole_experiment.sweep",
                 "background_recover.sample_form", "background_recover.recover_background",
                 "harmonic.MetricField", "harmonic.harmonic_residual", "cli.load_config",
                 "cli.execute", "cli.read_metric_field", "cli.render_grid_field",
                 "cli.write_bundle"):
        metrics[f"{name}.self_s"] = self_s[name]
    return metrics


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Per metric, the median traced pass's value (the lower one of an even
    count), so counts stay whole numbers."""
    return {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
