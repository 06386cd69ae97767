"""Write golden.json: the digest of every response any seed can request.

Usage: python3 bench/make_golden.py

Refuses to write when a response breaks the paper's classification rule or
a numeric check fails, so a golden file always describes correct output.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        for request in workloads.all_requests(workload):
            doc = request.execute()
            golden[request.key] = workloads.digest(doc)
            error = workloads.check(request, doc, golden)
            if error is not None:
                print(f"{request.key}: {error}", file=sys.stderr)
                return 1
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
