"""Pin the output digests that the default-seed runs are checked against.

    python3 perfbench/pin.py

Runs one round of every workload at the default seed and full scale,
requires the invariant checks to pass, and rewrites ``digests.json``. Pin
only from a commit whose outputs are known to be right: after pinning, any
change to an output at the default seed counts as a failed operation.
"""

import json
import os
import shutil
import sys

from run import BENCH, ROOT, check_round, import_honeyflow, run_round
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    import_honeyflow()
    digests = {}
    for name, workload in WORKLOADS.items():
        workdir = ROOT / ".perfbench_work" / f"pin-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        home = os.getcwd()
        os.chdir(workdir)
        try:
            state = workload.setup(DEFAULT_SEED, 1.0, str(workdir))
            _, results = run_round(workload, state)
            errors = [e for e in check_round(workload, state, results, True, None) if e]
            if errors:
                raise SystemExit(f"{name}: not pinning, checks fail: {errors}")
            digests[name] = {op: workload.digest(state, op, output) for op, output, _ in results}
        finally:
            os.chdir(home)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.parent.rmdir()
    with open(BENCH / "digests.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
