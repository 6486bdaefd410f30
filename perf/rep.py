"""One repetition of one workload in a fresh process; prints one JSON line.

``perf/run.py`` spawns this file over and over.  A fresh process per
repetition gives every repetition the same cold start — imports and
cluster build are paid, and measured as ``setup_s``, each time — keeps
peak RSS independent of how many repetitions a run fits, and makes the
repetitions independent samples a noisy host disturbs one at a time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spans", type=int, default=0, help="include full spans")
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=time.time(),
        help="epoch seconds at which the parent started this process",
    )
    args = parser.parse_args()

    # The benchmark's own instrument is not the program's set-up; once
    # built it samples the host's speed until the first timed region.
    from hostspeed import HostSpeed

    host_build_start = time.time()
    host = HostSpeed()
    host_build_s = time.time() - host_build_start
    host.start()

    import entry  # the first import of the program: part of set-up
    from tracing import Target, Tracer
    from workloads import SIM_WORKLOADS

    if args.workload == "tcp_micro_loopback":
        from tcp_load import tcp_micro_loopback as workload
    elif args.workload in SIM_WORKLOADS:
        workload = SIM_WORKLOADS[args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    tracer = None
    if args.traced:
        tracer = Tracer()
        # The host-speed samples taken inside a region are spans too, so
        # that no layer is charged for them.
        tracer.install(
            entry.trace_targets() + [Target("hostspeed:HostSpeed.sample", "hostspeed/sample")]
        )
        tracer.active = False  # workloads switch it on for timed regions
    try:
        result = workload(args.seed, tracer, host)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result["workload"] = args.workload
    result["seed"] = args.seed
    setup_speed = result.pop("setup_speed")
    result["setup_s"] = (
        result.pop("ready") - args.spawned_at - host_build_s - setup_speed["inside_wall_s"]
    ) * setup_speed["scale"]
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["peak_rss_mb"] = max(own_rss, result.pop("children_peak_rss_mb", 0.0))
    if tracer is not None:
        result["trace"] = {
            "table": tracer.table(),
            "spans": tracer.span_rows() if args.spans else [],
            "transactions": tracer.transactions,
            "servers": result.pop("server_traces", []),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
