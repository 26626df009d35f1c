"""Per-layer timing for the traced run.

The tracer replaces broomlab's public functions with timing wrappers in
every broomlab module that binds them, so the library's own calls into
those functions are timed without editing the library.  Times are
inclusive: a call made inside another traced call counts for both.  A
function re-entered while already on the stack is counted but timed
only at its outermost call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from functools import wraps

# (module, attribute, key): wrapped in every broomlab module that binds
# the same function object.
EVERYWHERE = (
    ("broomlab.graph_io", "read_graph", "graph_io.read_graph"),
    ("broomlab.cli", "main", "cli.main"),
    ("broomlab.structures", "find_core", "structures.find_core"),
    ("broomlab.templates", "cleanliness_holds", "templates.cleanliness_holds"),
    ("broomlab.solvers", "clique_number", "solvers.clique_number"),
    ("broomlab.solvers", "chromatic_number", "solvers.chromatic_number"),
    ("broomlab.solvers", "chi_local", "solvers.chi_local"),
    ("broomlab.trees", "is_T_delta_free", "trees.is_T_delta_free"),
    ("broomlab.constants", "ledger", "constants.ledger"),
    ("broomlab.constants", "reevaluate", "constants.reevaluate"),
)

# (module, attribute, key): wrapped only where that one module binds it,
# on top of the wrapper above, to time a caller's use of a function.
BINDINGS = (
    ("broomlab.cli", "run_pipeline", "cli.library"),
    ("broomlab.cli", "ledger", "cli.library"),
    ("broomlab.pipeline", "extract_template_array", "pipeline.extract"),
    ("broomlab.pipeline", "clean1", "pipeline.clean1"),
    ("broomlab.pipeline", "clean2", "pipeline.clean2"),
    ("broomlab.pipeline", "privatize", "pipeline.privatize"),
    ("broomlab.pipeline", "clean3", "pipeline.clean3"),
    ("broomlab.pipeline", "find_core", "pipeline.leftover_core"),
    ("broomlab.pipeline", "build_shadowing", "pipeline.shadow"),
    ("broomlab.pipeline", "bound_audit", "pipeline.audit"),
    ("broomlab.pipeline", "strong_triple_audit", "pipeline.strong_triples"),
    ("broomlab.pipeline", "_check_stage", "pipeline.validate"),
    ("broomlab.pipeline", "validate_privatization", "pipeline.validate"),
    ("broomlab.pipeline", "validate_shadowing", "pipeline.validate"),
    ("broomlab.constants:ConstantsLedger", "to_json_dict", "constants.to_json"),
)


def _t_free_key(args, kwargs) -> str:
    """is_T_delta_free's time is also split by delta."""
    delta = kwargs["delta"] if "delta" in kwargs else args[1]
    return f"trees.t_free_d{delta}"


def _owner(path: str):
    """A module, or a class in it written as ``module:Class``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Call counts and busy seconds per key, while ``recording`` is set."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.recording = False
        self._depth: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def _wrap(self, key: str, fn):
        split = _t_free_key if key == "trees.is_T_delta_free" else None

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            if self._depth[key]:
                return fn(*args, **kwargs)
            self._depth[key] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[key] += elapsed
                if split is not None:
                    self.seconds[split(args, kwargs)] += elapsed
                self._depth[key] -= 1

        return traced

    def install(self) -> None:
        """Wrap every function in the two tables."""
        for path, _, _ in EVERYWHERE + BINDINGS:
            _owner(path)  # import it, so that all its bindings are seen
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "broomlab" or name.startswith("broomlab."))
        ]
        for path, attr, key in EVERYWHERE:
            original = getattr(_owner(path), attr)
            wrapper = self._wrap(key, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        for path, attr, key in BINDINGS:
            owner = _owner(path)
            setattr(owner, attr, self._wrap(key, getattr(owner, attr)))
