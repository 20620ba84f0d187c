"""Record reference.json.gz: the expected outcome of every benchmark query.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be correct; the benchmark
then accepts a report when it matches the recorded one (see checker.py).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

import checker
import run


def main() -> int:
    queries = {q.id: q for w in run.WORKLOADS.values() for q in w.queries}
    work = run.BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="record-", dir=work))
    try:
        runner = run.Runner(base, time.monotonic() + 3600)
        refs = {}
        for i, (qid, query) in enumerate(sorted(queries.items())):
            cache = base / f"cache{i}"
            cache.mkdir()
            outcome = runner.run(query, cache)
            if outcome.exit != query.exit:
                print(f"{qid}: exit {outcome.exit}, expected {query.exit}", file=sys.stderr)
                return 1
            refs[qid] = checker.reference_entry(outcome.exit, outcome.stdout.read_bytes())
            print(f"{qid}: {len(refs[qid].get('floats', []))} float leaves")
        checker.save_reference(refs)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
