"""Byte identity of the request path: every benchmark request, answered by
the engine, against its digest in bench/golden.json (read, never written)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.append(str(BENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


def test_golden_file_covers_every_request():
    keys = [r.key for w in workloads.WORKLOADS for r in workloads.all_requests(w)]
    assert sorted(keys) == sorted(GOLDEN) and len(keys) == 548


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_matches_its_golden_digest(workload):
    # check() also applies the paper's classification rule
    failures = []
    for request in workloads.all_requests(workload):
        error = workloads.check(request, request.execute(), GOLDEN)
        if error is not None:
            failures.append(f"{request.key}: {error}")
    assert not failures, failures[:5]
