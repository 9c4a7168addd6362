"""One traced cold CLI op, for the traced run of the cli-cold workload.

Usage: python perfbench/cold_child.py RAW_OUT <hypervol arguments...>

Imports hypervol.cli, wraps its layers, runs ``hypervol.cli.main`` on the
arguments (its records go to stdout as usual) and writes the tracer's
aggregates and spans to RAW_OUT as JSON.
"""

import json
import sys
from pathlib import Path

import tracer


def main() -> int:
    raw_out, argv = Path(sys.argv[1]), sys.argv[2:]
    import hypervol.cli

    tr = tracer.Tracer()
    tr.install()
    tr.begin_job("cold")
    try:
        return hypervol.cli.main(argv)
    finally:
        tr.uninstall()
        raw_out.write_text(json.dumps(tr.raw()))


if __name__ == "__main__":
    sys.exit(main())
