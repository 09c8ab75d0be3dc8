"""One sampler step count: ``SAMPLE_STEPS`` is the only default.

Served requests, serial ``run_generation`` and the experiment campaigns
all sample at :data:`repro.diffusion.inpaint.SAMPLE_STEPS`.  A literal
``InpaintConfig(num_steps=20)`` anywhere in the package would let one of
them drift from the others unseen.
"""

import ast
from pathlib import Path

from repro.core.expansion import ExpansionConfig
from repro.core.pipeline import PatternPaintConfig
from repro.diffusion.inpaint import SAMPLE_STEPS, InpaintConfig

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def _literal_step_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``InpaintConfig(num_steps=<int literal>)`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "InpaintConfig":
            continue
        for keyword in node.keywords:
            value = keyword.value
            if (
                keyword.arg == "num_steps"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
            ):
                lines.append(node.lineno)
    return lines


def test_no_literal_step_count_in_package():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _literal_step_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_sees_a_literal():
    tree = ast.parse(
        "InpaintConfig(num_steps=20)\n"
        "inpaint.InpaintConfig(eta=0.0, num_steps=8)\n"
        "InpaintConfig(num_steps=SAMPLE_STEPS)\n"
    )
    assert _literal_step_calls(tree) == [1, 2]


def test_every_default_samples_at_sample_steps():
    assert InpaintConfig().num_steps == SAMPLE_STEPS
    assert PatternPaintConfig().inpaint.num_steps == SAMPLE_STEPS
    assert ExpansionConfig().inpaint.num_steps == SAMPLE_STEPS
