"""Every function the benchmark's tracer wraps still exists.

``perfbench/run.py --trace`` wraps a fixed list of functions and methods
(``perfbench/tracing.py``'s ``TARGETS``) by module path and name.  A
rename or deletion in the program would only show when a traced run
fails, so this test resolves each target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _load_targets()
    assert targets
    missing = []
    for name, module_name, class_name, attr, _counts in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            label = ".".join(p for p in (module_name, class_name, attr) if p)
            missing.append(f"{name}: {label}")
    assert not missing, f"trace targets that no longer resolve: {missing}"
