"""End-to-end pipeline: extract, clean, privatize, shadow, audit.

Every intermediate array is validated against its declared cleanliness
predicate and the full structural invariants before the next stage may
consume it; a failure raises :class:`StageError` naming the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, mask_of
from .shadows import (
    Privatization,
    Shadowing,
    StrongTripleReport,
    build_shadowing,
    privatize,
    strong_triple_audit,
    validate_privatization,
    validate_shadowing,
)
from .solvers import solving
from .structures import Params, find_core
from .templates import (
    AuditReport,
    TemplateArray,
    bound_audit,
    clean1,
    clean2,
    clean3,
    extract_template_array,
    validate_template_array,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, problems: list[str]):
        self.stage = stage
        self.problems = problems
        super().__init__(f"stage {stage}: " + "; ".join(problems[:5]))


@dataclass
class PipelineTrace:
    params: Params
    stages: list[tuple[str, TemplateArray, dict]]
    leftover: frozenset[int]
    leftover_core_free: bool
    shadowing: Shadowing
    privatization: Privatization
    audit: AuditReport
    strong_triples: StrongTripleReport

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                {"name": name, "array": arr.to_json_dict(), "report": report}
                for name, arr, report in self.stages
            ],
            "leftover": sorted(self.leftover),
            "leftover_core_free": self.leftover_core_free,
            "shadowing": self.shadowing.to_json_dict(),
            "privatization": self.privatization.to_json_dict(),
            "audit": self.audit.to_json_dict(),
            "strong_triples": self.strong_triples.to_json_dict(),
        }


def _check_stage(name: str, arr: TemplateArray) -> None:
    problems = validate_template_array(arr)
    if problems:
        raise StageError(name, problems)


def run_pipeline(g: Graph, p: Params) -> PipelineTrace:
    stages: list[tuple[str, TemplateArray, dict]] = []

    def stage(name: str, arr: TemplateArray, report: dict) -> TemplateArray:
        _check_stage(name, arr)
        stages.append((name, arr, report))
        return arr

    # One search context per run keeps the enclosing cap, and the vertex
    # sets that stages colour more than once are coloured once per run.
    with solving():
        arr, leftover = extract_template_array(g, p)
        arr = stage("extract", arr, {"leftover": sorted(leftover)})
        arr = stage("clean1", *clean1(arr))
        arr = stage("clean2", *clean2(arr))
        arr, priv, report = privatize(arr)
        arr = stage("privatize", arr, report)
        problems = validate_privatization(arr, priv)
        if problems:
            raise StageError("privatize", problems)
        arr = stage("clean3", *clean3(arr))

        leftover_core_free = (
            find_core(g, p.zeta, p.beta, within=mask_of(leftover)) is None
        )

        shadow = build_shadowing(arr)
        problems = validate_shadowing(arr, shadow)
        if problems:
            raise StageError("shadow", problems)

        audit = bound_audit(arr, privatization=priv)
        triples = strong_triple_audit(arr, shadow, priv)
        return PipelineTrace(
            params=p,
            stages=stages,
            leftover=leftover,
            leftover_core_free=leftover_core_free,
            shadowing=shadow,
            privatization=priv,
            audit=audit,
            strong_triples=triples,
        )
