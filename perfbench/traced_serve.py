"""``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python perfbench/traced_serve.py DUMP_DIR serve ARGS...``.  On
exit (SIGINT) the server's totals land in ``DUMP_DIR/server-<pid>.json``;
each pool worker writes its own file as it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

from harness import Tracer
from hooks import dump_server, install_server


def main(argv: list[str]) -> int:
    dump_dir = Path(argv[0])
    dump_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    install_server(tracer, dump_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        dump_server(tracer, dump_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
