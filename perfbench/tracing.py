"""Layer spans for the traced run, installed from the benchmark.

Each target is a name that levyrep's callers actually resolve at call time:
a module global (``make_multi_table`` is imported by name into
``representation`` and ``hedging``), a package attribute (``levyrep.simulate``
is the function; its module is ``sys.modules["levyrep.simulate"]``) or a
method on a class (``psi`` on each model class).  ``Tracer.installed()``
swaps wrappers in and restores the originals on exit; a target that no
longer exists raises ``MissingTarget`` instead of reporting zeros.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all layers add up to the traced wall time of
the benchmark's own root spans (layer ``bench``).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np


class MissingTarget(RuntimeError):
    """A traced name is gone from levyrep."""


def _size(a) -> int:
    return int(np.size(a))


def _count_psi(tr, args, kwargs, out):
    tr.add("psi.calls", 1)
    tr.add("psi.points", _size(args[1] if len(args) > 1 else kwargs["z"]))


def _count_table(tr, args, kwargs, out):
    tr.add("table.builds", 1)
    tr.add("table.nodes", out.zs.size)
    tr.peak("table.nodes_max", out.zs.size)


def _count_eval(tr, args, kwargs, out):
    n = _size(args[1] if len(args) > 1 else kwargs["xs"])
    tr.add("eval.calls", 1)
    tr.add("eval.points", n)
    tr.add("eval.point_nodes", n * args[0].zs.size)


def _count_density_table(tr, args, kwargs, out):
    tr.add("density.builds", 1)
    tr.add("density.nodes", out.vs.size)


def _count_density_eval(tr, args, kwargs, out):
    tr.add("density.point_nodes", _size(args[1] if len(args) > 1 else kwargs["ys"])
           * args[0].vs.size)


def _count_simulate(tr, args, kwargs, out):
    tr.add("simulate.jumps", out.jump_size.size)


def _count_replicate(tr, args, kwargs, out):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tr.add("replicate.points", batch.n_paths * batch.n_steps + batch.jump_size.size)


def _count_components(tr, args, kwargs, out):
    tr.add("hedge.components_calls", 1)


def targets():
    """(owner, attribute, layer, counter) for every traced name."""
    import levyrep
    from levyrep import fourier, hedging, mmm, models, representation

    simulate_mod = sys.modules["levyrep.simulate"]
    out = []
    for cls in (models.MertonModel, models.NIGModel, mmm.StarModel):
        out.append((cls, "psi", "models", _count_psi))
        out.append((cls, "jump_exponent", "models", None))
    for mod in (fourier, representation, hedging):
        out.append((mod, "make_multi_table", "adapt", _count_table))
    out += [
        (fourier.MultiTable, "eval_all", "eval", _count_eval),
        (fourier, "make_density_table", "density_build", _count_density_table),
        (fourier.DensityTable, "eval", "density_eval", _count_density_eval),
        (levyrep, "simulate", "simulate", _count_simulate),
        (simulate_mod, "build_mark_table", "mark_table", None),
        (levyrep, "replicate_batch", "replicate", _count_replicate),
        (hedging, "fs_path_study", "fs", None),
        (levyrep, "hedge_grid", "hedge_grid", None),
        (hedging, "hedge_components_batch", "hedge_components", _count_components),
        (levyrep, "conditional_value", "query", None),
        (levyrep, "lrm_xi", "query", None),
        (representation.RepresentationIntegrands, "u", "query", None),
        (representation.RepresentationIntegrands, "theta", "query", None),
    ]
    return out


class Tracer:
    """Self time per (section, layer) and work counts, aggregated in memory;
    ``section`` names the benchmark's timed call that is open."""

    def __init__(self):
        self.section = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = [0.0]  # time covered by finished child spans, per open span

    def add(self, key, n):
        self.counts[key] += int(n)

    def peak(self, key, n):
        self.counts[key] = max(self.counts[key], int(n))

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``; returns (result, seconds)."""
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.self_s[self.section, layer] += dur - self._child.pop()
            self._child[-1] += dur
        return out, dur

    def _wrap(self, fn, layer, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            out, _ = tracer.span(layer, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, layer, counter in targets():
                own = vars(owner)
                if not callable(getattr(owner, name, None)):
                    raise MissingTarget(
                        f"traced name {getattr(owner, '__name__', owner)}.{name} is gone"
                    )
                saved.append((owner, name, own.get(name), name in own))
                setattr(owner, name, self._wrap(getattr(owner, name), layer, counter))
            yield self
        finally:
            for owner, name, orig, had in reversed(saved):
                if had:
                    setattr(owner, name, orig)
                else:
                    delattr(owner, name)
