"""PatternPaint reproduction: layout pattern generation via diffusion inpainting.

A from-scratch, pure-numpy reproduction of *"PatternPaint: Practical Layout
Pattern Generation Using Diffusion-Based Inpainting"* (DAC 2025), including
every substrate the paper depends on:

- :mod:`repro.geometry` — grids, rectilinear shapes, the squish representation;
- :mod:`repro.drc` — a pixel-level design-rule checker with basic / complex /
  advanced (discrete-width, width-dependent-spacing) rule decks;
- :mod:`repro.nn` / :mod:`repro.diffusion` — a manually backpropagated UNet,
  DDPM training, DDIM sampling, RePaint inpainting, DreamBooth-style
  few-shot finetuning;
- :mod:`repro.baselines` — the rule-based generator, the nonlinear solver
  legalization, and the CUP / DiffPattern baselines;
- :mod:`repro.core` — the PatternPaint pipeline: mask sets, template-based
  denoising, PCA selection, iterative generation;
- :mod:`repro.metrics`, :mod:`repro.io`, :mod:`repro.zoo`,
  :mod:`repro.experiments` — evaluation, persistence/rendering, cached model
  artifacts and the per-table/figure experiment harnesses.

Quickstart::

    import numpy as np
    from repro.zoo import finetuned, starter_patterns, experiment_deck
    from repro.core import PatternPaint, PatternPaintConfig

    pipeline = PatternPaint(finetuned("sd1"), experiment_deck())
    result = pipeline.run(starter_patterns(20), np.random.default_rng(0),
                          iterations=2)
    print(result.library.summary())
"""

from .core.library import PatternLibrary
from .core.pipeline import PatternPaint, PatternPaintConfig, PatternPaintResult
from .core.template_denoise import TemplateDenoiseConfig, template_denoise
from .drc.decks import RuleDeck, advanced_deck, basic_deck, complex_deck, deck_by_name
from .drc.engine import DrcEngine
from .engine import (
    BatchExecutor,
    ExecutorConfig,
    GenerationBatch,
    GenerationRequest,
    get_backend,
    list_backends,
    register_backend,
    run_generation,
)
from .geometry.grid import DEFAULT_GRID, Grid
from .geometry.squish import SquishPattern, squish, unsquish
from .library import (
    InMemoryStore,
    LibraryStore,
    load_library,
    merge_libraries,
    save_library,
)
from .metrics.diversity import summarize_library
from .metrics.entropy import h1_entropy, h2_entropy
from .service import GenerationService, ServiceClient, ServiceConfig

__version__ = "1.0.0"

__all__ = [
    "BatchExecutor",
    "DEFAULT_GRID",
    "DrcEngine",
    "ExecutorConfig",
    "GenerationBatch",
    "GenerationRequest",
    "GenerationService",
    "Grid",
    "InMemoryStore",
    "LibraryStore",
    "PatternLibrary",
    "PatternPaint",
    "PatternPaintConfig",
    "PatternPaintResult",
    "RuleDeck",
    "ServiceClient",
    "ServiceConfig",
    "SquishPattern",
    "TemplateDenoiseConfig",
    "__version__",
    "advanced_deck",
    "basic_deck",
    "complex_deck",
    "deck_by_name",
    "get_backend",
    "h1_entropy",
    "h2_entropy",
    "list_backends",
    "load_library",
    "merge_libraries",
    "register_backend",
    "run_generation",
    "save_library",
    "squish",
    "summarize_library",
    "template_denoise",
    "unsquish",
]
