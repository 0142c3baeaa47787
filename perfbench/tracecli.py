"""Run the ddlab command line under the outside-in tracer.

    python3 perfbench/tracecli.py DUMP_DIR <ddlab cli arguments...>

Installs the tracer, then calls `ddlab.cli.main`.  Each call of the CLI's
per-file worker, in this process or in a forked pool worker, is traced and
the process's cumulative totals are written to DUMP_DIR/<pid>.json after it,
so the caller can merge the totals of every process.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

from tracer import Tracer


def main(argv) -> int:
    dump_dir = Path(argv[0])
    from ddlab import cli

    tracer = Tracer()
    tracer.install()
    worker = cli._worker
    owner = None  # the process whose spans the tracer holds

    @functools.wraps(worker)  # pool workers unpickle it by the name ddlab.cli._worker
    def traced_worker(item):
        nonlocal owner
        if owner != os.getpid():  # a forked worker starts from its own totals
            tracer.reset()
            owner = os.getpid()
        tracer.active = True
        try:
            return worker(item)
        finally:
            tracer.active = False
            tracer.dump(dump_dir / f"{os.getpid()}.json")

    cli._worker = traced_worker
    try:
        return cli.main(argv[1:])
    finally:
        cli._worker = worker
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
