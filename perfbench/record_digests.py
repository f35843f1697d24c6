"""Record the baseline workload's output digests for a range of seeds.

Usage, from the root of a dravlid checkout:

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

For each seed it runs the baseline-zipf-kn commands through dravlid.cli.main,
checks the outputs with the benchmark's gate, and stores the SHA-256 of the
predictions JSONL and of the report in baseline_digests.json. run.py then
requires byte-identical outputs for those seeds. Rerun it only when a change
to the program is meant to change the baseline's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, str(Path("src").resolve()))
    import dravlid.cli

    digests = json.loads(run.DIGESTS_PATH.read_text()) if run.DIGESTS_PATH.is_file() else {}
    work = Path(".perfbench_work") / "record"
    for seed in range(first, last + 1):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        plan = run.plan_workload("baseline-zipf-kn", seed, work, start_stub=None)
        plan.digests = {}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [dravlid.cli.main(argv) for argv in plan.commands]
        failed = run.Gate(plan).failures(codes, None)
        if failed:
            print(f"seed {seed}: not recorded, failed {failed}", file=sys.stderr)
            return 1
        pred, report = plan.expected, plan.accuracy
        digests[str(seed)] = {"predictions": run.sha256_of(next(iter(pred))),
                              "report": run.sha256_of(next(iter(report)))}
        print(f"seed {seed}: {digests[str(seed)]}")
    shutil.rmtree(work, ignore_errors=True)
    ordered = dict(sorted(digests.items(), key=lambda item: int(item[0])))
    run.DIGESTS_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
