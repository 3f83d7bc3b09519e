#!/usr/bin/env python3
"""Gate one perfbench run on its correctness and on unchanged results.

Usage: check_run.py WORKLOAD STDOUT_FILE

STDOUT_FILE holds the full stdout of
`python3 perfbench/run.py --workload WORKLOAD --seed 1 ...`. The run
passes when its last line reports `"correct": true` and `"failed": 0`,
and its `sim_digest` line equals the digest of the newest record in
history.jsonl (next to this script) that measured WORKLOAD at seed 1.
A change that moves simulated results then fails here; a reviewed model
fix appends a history record with the new digest in the same change.
"""

import json
import pathlib
import sys


def newest_digest(history, workload):
    digest = None
    for line in history.read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line).get("workloads", {}).get(workload)
        if entry is not None and entry.get("seed") == 1 and entry.get("sim_digest"):
            digest = entry["sim_digest"]
    return digest


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workload, out_path = argv[1], pathlib.Path(argv[2])
    history = pathlib.Path(__file__).resolve().parent / "history.jsonl"

    lines = out_path.read_text().splitlines()
    if not lines:
        print(f"{out_path}: empty perfbench output", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    if report.get("correct") is not True or report.get("failed") != 0:
        print(f"{workload}: correct={report.get('correct')} failed={report.get('failed')}",
              file=sys.stderr)
        return 1

    got = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
    want = newest_digest(history, workload)
    if want is None:
        print(f"{history}: no seed-1 record for {workload}", file=sys.stderr)
        return 1
    if got != [want]:
        print(f"{workload}: sim_digest {got} != {want} (newest record in {history})",
              file=sys.stderr)
        return 1
    print(f"{workload}: correct, sim_digest {want} as recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
