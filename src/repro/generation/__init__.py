"""Pipeline generation, validation, and error management (paper Section 4).

Submodule attributes are resolved lazily to keep import edges acyclic
(``repro.llm.faults`` needs :mod:`repro.generation.errors` while
:mod:`repro.generation.generator` needs :mod:`repro.prompt`, which renders
prompts through :mod:`repro.llm`).
"""

from typing import TYPE_CHECKING

__all__ = [
    "CostModel",
    "InteractionCost",
    "ERROR_TYPES",
    "ErrorGroup",
    "ErrorType",
    "PipelineError",
    "classify_exception",
    "ExecutionResult",
    "execute_pipeline_code",
    "CatDB",
    "CatDBChain",
    "GenerationReport",
    "KnowledgeBase",
    "KnowledgeBaseEntry",
    "LibraryPolicy",
]

_LOCATIONS = {
    "CostModel": "repro.generation.cost",
    "InteractionCost": "repro.generation.cost",
    "ERROR_TYPES": "repro.generation.errors",
    "ErrorGroup": "repro.generation.errors",
    "ErrorType": "repro.generation.errors",
    "PipelineError": "repro.generation.errors",
    "classify_exception": "repro.generation.errors",
    "ExecutionResult": "repro.generation.executor",
    "execute_pipeline_code": "repro.generation.executor",
    "CatDB": "repro.generation.generator",
    "CatDBChain": "repro.generation.generator",
    "GenerationReport": "repro.generation.generator",
    "KnowledgeBase": "repro.generation.knowledge_base",
    "KnowledgeBaseEntry": "repro.generation.knowledge_base",
    "LibraryPolicy": "repro.analysis.pipeline_rules",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.generation.cost import CostModel, InteractionCost
    from repro.generation.errors import (
        ERROR_TYPES,
        ErrorGroup,
        ErrorType,
        PipelineError,
        classify_exception,
    )
    from repro.generation.executor import ExecutionResult, execute_pipeline_code
    from repro.generation.generator import CatDB, CatDBChain, GenerationReport
    from repro.generation.knowledge_base import KnowledgeBase, KnowledgeBaseEntry


def __getattr__(name: str):
    if name in _LOCATIONS:
        import importlib

        module = importlib.import_module(_LOCATIONS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
