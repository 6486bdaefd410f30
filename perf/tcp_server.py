"""A ``repro serve`` process with the trace wrappers installed.

The traced pass of ``tcp_micro_loopback`` starts its servers through this
file; the untraced pass uses plain ``python -m repro serve``.  The
wrappers go in first, then the CLI's own ``serve`` entry runs unchanged,
and the per-name ledger is written to ``--out`` on shutdown.  The
wrappers start switched off; the driver switches them on with SIGUSR1 as
its timed region starts and off with SIGUSR2 as it ends, so the ledger
covers that region only — not the warm-up, not the audit's reads.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", required=True)
    parser.add_argument("--node", required=True)
    parser.add_argument("--out", required=True, help="where to write the ledger")
    args = parser.parse_args()

    import entry
    from tracing import Tracer

    tracer = Tracer(keep_transactions=0)
    tracer.install(entry.trace_targets())
    tracer.active = False
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "active", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "active", False))
    try:
        return entry.serve_main(["serve", "--topology", args.topology, "--node", args.node])
    finally:
        tracer.uninstall()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"node": args.node, "table": tracer.table()}, handle)


if __name__ == "__main__":
    sys.exit(main())
