"""Benchmark entry point.

    python3 perfbench/run.py --workload {campaign,service,live} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Before the result (the last stdout line) one JSON line carries the
environment stamp and the workload's report: sample counts, validity
flags and any output that failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "service", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_TRACE", None)

    import harness

    cpu = harness.pin_to_one_cpu()
    workload = __import__(args.workload)
    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        with harness.idle_spinner():
            values, report = workload.run(
                config[args.workload], args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run shares the directory
    attempted = values.pop("_attempted")
    failed = values.pop("_failed")
    if args.trace:
        values = harness.fill_unreached(values)
    outcome = harness.result(values, trace=bool(args.trace), attempted=attempted, failed=failed)
    print(json.dumps({"workload": args.workload, "env": harness.env_stamp(args.seed, cpu),
                      "report": report}))
    if failed:
        print(f"PROGRAM DEFECT: {failed} of {attempted} outputs failed their check; "
              "see report.defects", file=sys.stderr)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
