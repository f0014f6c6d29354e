"""In-memory span tracer wrapped around wate's public functions from outside.

Nothing under ``src/wate`` is changed. Installing the tracer replaces each
traced function with a wrapper that records a span (name, start, end,
parent span, invocation id, whether it raised). The consumers import these
functions by name (``from .models import fit_outcome``), so a wrapper is
bound in *every* ``wate`` module that holds the original object, not only in
the defining module; otherwise those calls would bypass the span. Methods
(``DesignSpec.matrix``, ``ObservationalDataset.replace_rows``) are replaced on
their class.

Times are integer nanoseconds from ``time.perf_counter_ns``, so a span's self
time (its duration minus the durations of its direct children, which nest
inside it and do not overlap) is exact and never negative.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
import sys
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Iterator, NamedTuple

# Every public function the trace times, as "<module>.<function>" or
# "<module>.<Class>.<method>". Grouped by the layer a later change is likely
# to touch; a name that no longer exists in the package is skipped and then
# reports zero calls.
TRACED = (
    "data.load_csv",
    "data.validate",
    "data.ObservationalDataset.replace_rows",
    "design.DesignSpec.matrix",
    "design.parse_design",
    "design.main_effects",
    "models.fit_propensity",
    "models.fit_outcome",
    "models.predict_propensity",
    "models.predict_outcome",
    "models.truncate_propensity",
    "targets.evaluate_h",
    "targets.compute_weights",
    "estimators.estimate",
    "estimators.estimate_regression",
    "estimators.estimate_att_regression",
    "estimators.estimate_atc_regression",
    "estimators.estimate_ipw_normalized",
    "estimators.estimate_ipw_unnormalized",
    "estimators.estimate_aipw",
    "estimators.estimate_dr_linear_in_pi",
    "estimators.estimate_att_dr",
    "estimators.estimate_atc_dr",
    "simulation.generate_dataset",
    "simulation.reference_truth",
    "simulation.true_estimands",
    "simulation.run_study",
    "bootstrap.run_pipeline",
    "bootstrap.bootstrap_vector",
    "bootstrap.bootstrap_se",
    "cli.main",
)

# Counters read off a traced function's return value: span name -> (counter
# name, extractor). Newton steps of the propensity fit are the fitting work
# that a faster fitter or a warm start would cut.
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "models.fit_propensity": ("newton_iters", lambda model: int(getattr(model, "iterations", 0))),
}


def display_name(qualified: str) -> str:
    """Metric prefix of a traced name: methods drop their class, so
    ``design.DesignSpec.matrix`` reports as ``design.matrix``."""
    parts = qualified.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    invocation: int
    error: bool

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans around the calls into the named wate functions.

    Use ``with tracer.active(invocation_id):`` around one invocation; the
    wrappers are installed on entry and the originals restored on exit.
    """

    def __init__(self, names: Iterable[str] = TRACED):
        self.names = tuple(names)
        # Spans are kept column-wise in integer arrays, which the garbage
        # collector does not scan; a list of tuples would make every
        # collection, traced or not, slower as the trace grows.
        self._span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._columns = {
            field: array("q") for field in ("name", "start", "end", "parent", "invocation", "error")
        }
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._invocation = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def _resolve(self, qualified: str) -> tuple[Any, str, Any] | None:
        module_name, *path = qualified.split(".")
        try:
            owner = importlib.import_module(f"wate.{module_name}")
        except ModuleNotFoundError:
            return None
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        original = getattr(owner, path[-1], None)
        if original is None:
            return None
        return owner, path[-1], original

    def _bind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "wate" or name.startswith("wate."))
        ]
        for qualified in self.names:
            found = self._resolve(qualified)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(qualified, original)
            if isinstance(owner, type):
                self._bind(owner, attr, wrapper)
                continue
            # Rebind every module-level name that refers to the original.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, invocation: int) -> Iterator["Tracer"]:
        """Install the wrappers for one invocation, restore on exit."""
        self._invocation = invocation
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._span_names)
            self._span_names.append(name)
        name_id = self._name_ids[name]
        cols = self._columns
        names, starts, ends = cols["name"], cols["start"], cols["end"]
        parents, invocations, errors = cols["parent"], cols["invocation"], cols["error"]
        stack = self._stack
        counter = RESULT_COUNTERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            invocations.append(self._invocation)
            ends.append(-1)
            errors.append(1)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                errors[index] = 0
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["start"])

    def finished_spans(self) -> list[Span]:
        c = self._columns
        if -1 in c["end"]:
            raise RuntimeError("a traced call is still open")
        return [
            Span(self._span_names[n], start, end, parent, inv, bool(err))
            for n, start, end, parent, inv, err in zip(
                c["name"], c["start"], c["end"], c["parent"], c["invocation"], c["error"]
            )
        ]

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        spans = self.finished_spans()
        child = [0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.duration_ns
        return [span.duration_ns - child[i] for i, span in enumerate(spans)]

    def write(self, path: str) -> None:
        """One CSV line per span, in start order."""
        spans = self.finished_spans()
        self_ns = self.self_times_ns()
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,self_ns,parent,invocation,error\n")
            for i, (s, own) in enumerate(zip(spans, self_ns)):
                fh.write(
                    f"{i},{s.name},{s.start_ns},{s.end_ns},{own},{s.parent},"
                    f"{s.invocation},{int(s.error)}\n"
                )

