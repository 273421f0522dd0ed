"""Benchmark: fault-campaign trial throughput, end to end and per layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload grid-train --seed 0 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(fresh interpreters, median), the median time of one ``api.run`` call,
trial throughput and peak RSS.  Times are host-normalised CPU seconds
(``calibrate.HostSampler``); raw CPU and wall times are printed beside
them.  ``--trace 1`` alternates untraced and traced
calls of one campaign seed and reports per-layer spans and counts.  Both
modes check every call (see ``workloads.Gate``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (calls)
and ``metrics``.  ``--record`` stores the digests it saw as the goldens.

See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import bootstrap

HERE = Path(__file__).resolve().parent

#: The seed whose panel has committed golden digests.
DEFAULT_SEED = 0

#: Untraced/traced pairs a traced invocation makes at least: single calls
#: swing by 20% on a shared host, so one pair says little about overhead.
MIN_TRACED_PAIRS = 3

E2E_UNITS = {"setup_s": "s", "call_ref_s": "s", "trials_per_ref_s": "1/s", "peak_rss_mb": "MB"}


def measure_setup(workload, seeds: List[int]) -> List[float]:
    """Host-normalised CPU time from interpreter start to ready, per fresh probe.

    Probe ``i`` sets up campaign seed ``seeds[i % len(seeds)]``: the drone
    pretrain's cost depends on the seed.
    """
    samples = []
    for i in range(workload.setup_samples):
        campaign_seed = seeds[i % len(seeds)]
        command = [sys.executable, str(HERE / "probe.py"), workload.name, str(campaign_seed)]
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().split()
            probe.stdout.read()
            code = probe.wait()
        if len(line) != 2 or line[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code} before ready")
        samples.append(float(line[1]))
    return samples


def guarded_call(
    workloads, workload, gate, campaign_seed: int, trace=None, extra=None, host=None
):
    """One checked call; ``None`` if it raised."""
    try:
        call = workloads.run_call(workload, campaign_seed, trace=trace, host=host)
    except Exception as exc:  # a failed call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        gate.raised(campaign_seed, exc)
        return None
    gate.check(call, extra(call) if extra else ())
    return call


def run_untraced(workloads, workload, gate, seed: int, seconds: float):
    """Whole passes over the seed panel until calls have used ``seconds`` of CPU.

    Each call samples the host's speed as it runs; its time in seconds on
    the nominal host is what the metrics are made of.
    """
    import calibrate

    seeds = workload.panel_seeds(seed)
    setup = measure_setup(workload, seeds)
    workloads.import_spec(workload)
    host = calibrate.HostSampler()
    calls = []
    samples = []
    measured = 0.0
    while True:
        for campaign_seed in seeds:
            call = guarded_call(workloads, workload, gate, campaign_seed, host=host)
            if call is not None:
                calls.append(call)
                samples.extend(host.samples)
                measured += call.cpu_s
        if measured >= seconds:
            break
    if not calls:
        return calls, None
    trials = sum(c.trials for c in calls)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_ref_s": statistics.median(call.ref_s for call in calls),
        "trials_per_ref_s": trials / sum(call.ref_s for call in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    cpu = sum(c.cpu_s for c in calls)
    wall = sum(c.wall_s for c in calls)
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "call_ref_s": f"median of {len(calls)} calls over seeds {seeds}; median CPU "
        f"{statistics.median(c.cpu_s for c in calls):.4g} s, wall "
        f"{statistics.median(c.wall_s for c in calls):.4g} s",
        "trials_per_ref_s": f"{trials} trials; {trials / cpu:.4g} per CPU s, "
        f"{trials / wall:.4g} per wall s; {len(samples)} host samples, median "
        f"{statistics.median(samples) * 1e3:.4g} ms (nominal {calibrate.NOMINAL_S * 1e3:g} ms)",
    }
    return calls, (metrics, E2E_UNITS, notes)


def run_traced(workloads, workload, gate, seed: int, seconds: float):
    """Untraced/traced call pairs of the panel's first seed.

    At least ``MIN_TRACED_PAIRS`` pairs, and more until ``seconds`` have
    elapsed.
    """
    import tracing

    campaign_seed = workload.panel_seeds(seed)[0]
    workloads.import_spec(workload)
    tracer = tracing.Tracer()
    untraced: List[Any] = []
    traced: List[Any] = []

    def counts_repeat(call) -> List[str]:
        if traced and call.traced.counts() != traced[0].traced.counts():
            return ["per-layer counts differ from the first traced call"]
        return []

    def untraced_call():
        call = guarded_call(workloads, workload, gate, campaign_seed)
        if call is not None:
            untraced.append(call)

    def traced_call():
        call = guarded_call(
            workloads, workload, gate, campaign_seed, trace=tracer.trace, extra=counts_repeat
        )
        if call is not None:
            traced.append(call)

    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        # Alternate which call of a pair runs first, so host drift within a
        # run does not bias trace.overhead_frac.
        order = (untraced_call, traced_call) if pairs % 2 == 0 else (traced_call, untraced_call)
        for call in order:
            call()
        pairs += 1
    if not untraced or not traced:
        return untraced + traced, None
    metrics = tracing.per_layer_metrics(
        [call.traced for call in traced],
        traced_cpu_s=sum(call.cpu_s for call in traced),
        untraced_cpu_s=sum(call.cpu_s for call in untraced),
    )
    notes = {"trace.overhead_frac": f"{len(traced)} traced / {len(untraced)} untraced calls"}
    return untraced + traced, (metrics, tracing.metric_units(), notes)


def host_block() -> Dict[str, Any]:
    """Where the numbers were measured; the snapshot envelope's host fields."""
    import numpy
    from repro import kernels

    from importlib.metadata import PackageNotFoundError, version

    try:
        numba = version("numba")
    except PackageNotFoundError:
        numba = "absent"
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "kernel_backend": kernels.active_backend_name(),
        "numba": numba,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap.prepare_process()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this invocation's digests as the goldens")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate(workload, {"workloads": {}} if args.record else workloads.load_goldens())
    run: Callable = run_traced if args.trace else run_untraced
    calls, measured = run(workloads, workload, gate, args.seed, args.seconds)

    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if measured is None:
        print("perfbench: no call succeeded", file=sys.stderr)
        return 1
    if args.record:
        workloads.record_goldens(workload, calls)

    metrics, units, notes = measured
    print(f"perfbench {workload.name}: {workload.spec} {dict(workload.params)} "
          f"R={workload.repetitions} B={workload.batch_size} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(host_block(), sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<58} {value:>14.6g} {units[name]}{note}")
    print(f"  {'failed_frac':<58} {gate.failed / gate.attempted:>14.6g} ratio"
          f"  ({gate.failed} of {gate.attempted} calls)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
