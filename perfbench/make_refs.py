"""Write ``refs/<workload>.json``: every op's answer on the default seed.

The benchmark compares default-seed answers with these files within
``ORACLE_TOL``.  Regenerate them only in a change that means to alter the
library's answers, and say so in that change:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (needs the checkout's src on the path)


def main() -> int:
    workloads.REFS.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED)
        try:
            workload.setup()
            refs = {op.key: workload.answer(op, op.call())
                    for visit in workload.visits for op in visit}
        finally:
            workload.close()
        lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                 for key, value in sorted(refs.items())]
        path = workloads.REFS / f"{name}.json"
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path.relative_to(BENCH_DIR.parent)}: {len(refs)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
