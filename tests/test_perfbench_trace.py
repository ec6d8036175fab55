"""The benchmark's trace wraps library functions by name; they must all exist.

`perfbench/spans.py` is loaded from its path and only read: a library
name it wraps that disappears would otherwise surface only as a failed
`perfbench/run.py --trace 1` run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    for path, attr, name, _ in spans.WRAPS:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
            assert attr in owner.__dict__, f"{path}.{attr} ({name})"
        assert callable(getattr(owner, attr)), f"{path}.{attr} ({name})"


def test_scan_keywords_the_trace_reads_exist():
    # The trace tells first scans from re-scans by these keywords.
    from burstldpc import burst
    params = inspect.signature(burst.scan_length).parameters
    assert {"early_exit", "collect_residuals"} <= set(params)
