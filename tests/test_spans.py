"""The benchmark's tracer still finds every engine layer it wraps."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

from flagbochner import bochner, feasibility  # noqa: E402


def test_every_traced_layer_resolves():
    # the packed route replaced the four Polynomial layers of the Gram
    # route, so the engine no longer has them; any other name the tracer
    # cannot resolve is a layer a refactor dropped from the benchmark
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_rref = bochner.rref
    finally:
        tracer.uninstall()
    assert tracer.absent == ["expansion.gram", "expansion.exp_Z",
                             "poly.minor_det", "poly.log1p_expand"]
    assert traced_rref.__wrapped__ is feasibility.rref
    assert bochner.rref is feasibility.rref
