"""The benchmark's tracer still finds every package name it wraps.

``Tracer.install`` skips a name it cannot find with a warning on stderr,
and that layer's metrics then read zero; a rename in the package would
otherwise go unnoticed until a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_wraps_every_name(capsys):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert capsys.readouterr().err == ""
