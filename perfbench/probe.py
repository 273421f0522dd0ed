"""Set-up probe: one fresh interpreter doing one workload's set-up.

    python3 perfbench/probe.py <workload> <campaign seed>

Imports the package and runs the workload's lazy set-up while sampling the
host's speed, then prints ``ready <s>``: the CPU time the process used from
its start to ready, interpreter start-up included, in seconds on the
nominal host (``calibrate.HostSampler``).  The median over several probes
is ``setup_s``.
"""

from __future__ import annotations

import sys
import time

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare_process()
    import calibrate

    with calibrate.HostSampler() as host:
        import workloads

        workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
        ready = time.process_time()
    print(f"ready {host.normalise(ready)!r}", flush=True)
