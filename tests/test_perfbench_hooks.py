"""The benchmark's tracer wraps library functions by name; a rename must fail here, not drop a span."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert "not found" not in capsys.readouterr().err
        assert len(tracer._undo) == sum(len(sites) for sites in spans.TARGETS.values())
    finally:
        tracer.uninstall()
