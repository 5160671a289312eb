"""Fresh-interpreter set-up probe: import the CLI, compile the campaign DAGs.

Usage: ``python perfbench/setup_probe.py CAMPAIGN_CONFIG_JSON SEED`` (config
``null`` builds nothing).  Prints one
JSON line with the seconds the ``repro.cli`` import and the
``build_pipeline`` calls took inside this interpreter.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start
    from campaign import manifests
    from repro.dag import build_pipeline

    config = json.loads(argv[0])
    built = [] if config is None else manifests(config, seed=int(argv[1]))
    start = time.perf_counter()
    for manifest in built:
        build_pipeline(manifest)
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "build_pipeline_s": build_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
