"""Outside-in layer tracer.

The tracer never edits the package: it replaces public functions and
methods of ``repro`` modules with wrappers that record a span (name,
start, end, parent) around each call, plus counters read off the call's
result.  A function bound elsewhere by ``from x import f`` is a separate
reference, so every module namespace holding the original object is
patched, not only the defining module.  Methods are patched on their
class, which every importer shares.

Spans stay in memory; :meth:`Tracer.summary` folds them into per-layer
self times (a span's duration minus the part its child spans cover)
when the run ends.  Install wrappers only in a traced run: the
untraced run must execute the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Pass modules that get one ``passes.<module>`` sub-layer each.
PASS_MODULES = (
    "dce", "salvage", "constprop", "loops", "fre", "licm", "inline",
    "mem2reg", "copyprop", "instcombine", "sched", "simplifycfg", "dse",
    "vrp", "sink", "ipa", "cfg_cleanup",
)


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self) -> None:
        #: [name, parent index, start, end] per span, in open order
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             post: Optional[Callable] = None,
             skip_under: Sequence[str] = ()) -> Callable:
        """``fn`` inside a span called ``name``.  ``post(tracer, result,
        args)`` records counters from a successful call.  A call made
        directly inside a span named in ``skip_under`` opens no span of
        its own, so its time stays with that caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] in skip_under:
                return fn(*args, **kwargs)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(
                    [name, stack[-1][1] if stack else -1, 0.0, 0.0])
            stack.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = tracer.spans[index]
                span[2], span[3] = start, end
            if post is not None:
                post(tracer, result, args)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- folding ---------------------------------------------------------------

    def summary(self, wall_start: float, wall_end: float
                ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``; plus the
        counters and ``coverage`` (share of the wall interval inside
        some root span)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        roots: List[Tuple[float, float]] = []
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
            if parent < 0:
                roots.append((max(start, wall_start), min(end, wall_end)))
        covered = 0.0
        reach = wall_start
        for start, end in sorted(roots):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        wall = max(wall_end - wall_start, 1e-9)
        return {"layers": dict(layers), "counts": dict(self.counts),
                "coverage": covered / wall, "wall_s": wall}


# -- what gets wrapped ----------------------------------------------------------


def _post_len(counter: str) -> Callable:
    def post(tracer: Tracer, result, args) -> None:
        tracer.count(counter, len(result))
    return post


def _post_trace(tracer: Tracer, traces, args) -> None:
    if traces:
        tracer.count("debugger.trace.stops", len(traces[0].visits))


def _post_pass(tracer: Tracer, changed, args) -> None:
    tracer.count("passes.applied")
    if changed:
        tracer.count("passes.changed")


def _post_get_result(tracer: Tracer, payload, args) -> None:
    tracer.count("store.hits" if payload is not None else "store.misses")


def _post_reduction(tracer: Tracer, result, args) -> None:
    for key in ("queries", "memo_hits", "accepts"):
        tracer.count(f"reduce.{key}", result.stats.get(key, 0))


def _post_bisect(tracer: Tracer, result, args) -> None:
    for key in ("consults", "probes", "memo_hits"):
        tracer.count(f"bisect.{key}", result.stats.get(key, 0))


#: (span name, module, attribute path, post hook, skip_under)
TARGETS: Tuple[tuple, ...] = (
    ("fuzz.generate", "repro.fuzz.generator",
     "_generate_validated_uncached", None, ()),
    ("analysis", "repro.analysis.symbols", "resolve", None,
     ("fuzz.generate",)),
    ("analysis", "repro.analysis.source_facts", "SourceFacts.__init__",
     None, ()),
    ("ir.lower", "repro.ir.lower", "lower_program", None,
     ("fuzz.generate",)),
    ("ir.clone", "repro.ir.clone", "clone_module", None, ()),
    ("compilers", "repro.compilers.compiler", "Compiler.compile", None, ()),
    ("compilers", "repro.compilers.compiler", "Compiler.compile_ir", None,
     ()),
    ("passes.salvage", "repro.passes.salvage", "salvage_dbg_uses", None,
     ()),
    ("passes.salvage", "repro.passes.salvage", "kill_dbg_for_vreg", None,
     ()),
    ("passes.sink", "repro.passes.sink", "maybe_sink_dbg", None, ()),
    ("passes.cfg_cleanup", "repro.passes.cfg_cleanup", "cleanup_cfg",
     None, ()),
    ("target.link", "repro.target.codegen", "link",
     _post_len("target.instructions"), ()),
    ("debugger.trace", "repro.debugger.base", "trace_all", _post_trace,
     ()),
    ("conjectures.check", "repro.conjectures.base", "check_all",
     _post_len("conjectures.check.violations"), ()),
    ("staticcheck.verify", "repro.staticcheck.verifier",
     "verify_compilation", _post_len("staticcheck.verify.findings"), ()),
    ("reduce.oracle.check", "repro.reduce.oracle", "ReductionOracle.check",
     None, ()),
    ("reduce.engine", "repro.reduce.engine", "Reducer.reduce", None, ()),
    ("triage.culprit", "repro.triage.triage", "triage", None, ()),
    ("bisect.verdict", "repro.bisect.core", "VersionProber.verdict", None,
     ()),
    ("bisect.verdict", "repro.bisect.core", "VersionProber.isolated_fired",
     None, ()),
    ("faults.boundary", "repro.faults.boundary", "FailureBoundary.evaluate",
     None, ()),
    ("faults.boundary", "repro.faults.boundary",
     "FailureBoundary.store_write", None, ()),
    ("store.put_result", "repro.store.db", "CampaignStore.put_result", None,
     ()),
    ("store.get_result", "repro.store.db", "CampaignStore.get_result",
     _post_get_result, ()),
    ("store.add_program", "repro.store.db", "CampaignStore.add_program",
     None, ()),
    ("store.jobs", "repro.store.db", "CampaignStore.put_job", None, ()),
    ("store.jobs", "repro.store.db", "CampaignStore.get_job", None, ()),
    ("store.jobs", "repro.store.db", "CampaignStore.set_job_state", None,
     ()),
    ("store.jobs", "repro.store.db", "CampaignStore.jobs_in_state", None,
     ()),
    ("store.artifact", "repro.serve.service", "CampaignService.job_result",
     None, ()),
    ("store.busy_retry", "repro.store.db", "busy_delay", None, ()),
    ("pipeline", "repro.pipeline.matrix", "run_matrix_campaign_seeds", None,
     ()),
    ("pipeline", "repro.pipeline.campaign", "run_campaign_seeds", None, ()),
    ("pipeline", "repro.staticcheck.campaign", "run_verify_campaign_seeds",
     None, ()),
    ("pipeline", "repro.pipeline.reduction", "run_reduction_campaign",
     _post_reduction, ()),
    ("pipeline", "repro.bisect.campaign", "run_bisect_campaign",
     _post_bisect, ()),
)


def _import_all() -> List[object]:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _original(obj: Callable) -> Callable:
    return getattr(obj, "__perfbench_original__", obj)


def _patch_everywhere(modules: List[object], original: Callable,
                      wrapper: Callable) -> int:
    """Rebind every module-level reference to ``original``."""
    patched = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


def install(tracer: Tracer) -> None:
    """Wrap every target and every pass class's ``run``."""
    modules = _import_all()
    for name, module_name, path, post, skip_under in TARGETS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            original = _original(owner.__dict__[attr])
            setattr(owner, attr,
                    tracer.wrap(name, original, post, skip_under))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, post, skip_under)
        if not _patch_everywhere(modules, original, wrapper):
            raise RuntimeError(f"tracer found no reference to "
                               f"{module_name}.{path}")
    from repro.passes.base import Pass
    for short in PASS_MODULES:
        module = importlib.import_module(f"repro.passes.{short}")
        for cls in list(vars(module).values()):
            if (isinstance(cls, type) and issubclass(cls, Pass)
                    and cls.__module__ == module.__name__):
                cls.run = tracer.wrap(f"passes.{short}",
                                      _original(cls.run), _post_pass)
