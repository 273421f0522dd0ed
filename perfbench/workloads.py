"""The benchmark's workloads: which fault campaign each runs, and how.

Every workload call goes through the public API::

    repro.api.run(spec, params,
                  execution=ExecutionConfig(seed=s, repetitions=R,
                                            batch_size=B, workers=1))

An invocation with ``--seed n`` runs a *panel* of ``K`` campaign seeds,
``n*K .. n*K+K-1``.  Each campaign seed trains its own policy (fig5) or
pre-trains its own drone policy (fig7), and how far a policy flies or walks
sets how many environment steps a trial takes, so one seed's wall time
swings by up to 2x from the next.  Averaging over a panel of policies is
what makes two invocations comparable.

Import :mod:`bootstrap` and call ``prepare_process()`` before this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import api
from repro.core.runner import executed_trial_count
from repro.io.sanitize import canonical_json

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    params: Mapping[str, Any]
    repetitions: int
    batch_size: int
    #: Campaign seeds run per invocation.
    panel: int
    #: Fresh-interpreter set-ups timed per untraced invocation.
    setup_samples: int
    #: Whether set-up and every call pre-train a drone policy.
    drone: bool

    def panel_seeds(self, seed: int) -> List[int]:
        return [seed * self.panel + j for j in range(self.panel)]

    def execution(self, campaign_seed: int) -> api.ExecutionConfig:
        return api.ExecutionConfig(
            seed=campaign_seed,
            repetitions=self.repetitions,
            batch_size=self.batch_size,
            workers=1,
        )


#: Why each workload exists: README.md.  R is a multiple of B, so every
#: lockstep batch starts full; each panel is sized from the spread of
#: per-seed call times and the time budget for all runs together.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="grid-train",
            spec="fig2.permanent_sweep",
            params={"approach": "tabular", "fast": True},
            repetitions=2,
            batch_size=8,
            panel=3,
            setup_samples=3,
            drone=False,
        ),
        Workload(
            name="grid-infer",
            spec="fig5.inference",
            params={"approach": "nn", "fast": True},
            repetitions=32,
            batch_size=32,
            panel=8,
            setup_samples=3,
            drone=False,
        ),
        Workload(
            name="drone-infer",
            spec="fig7.locations",
            params={"fast": True},
            repetitions=8,
            batch_size=8,
            panel=12,
            setup_samples=2,
            drone=True,
        ),
    )
}


def import_spec(workload: Workload) -> None:
    """Import the experiment registry and every figure module."""
    api.get_spec(workload.spec)


def setup(workload: Workload, campaign_seed: int) -> None:
    """What a fresh process does before its first call of this seed.

    For the drone workload that includes pre-training (and caching
    in-process) the seed's drone policy.
    """
    import_spec(workload)
    if workload.drone:
        from repro.experiments.common import build_drone_bundle
        from repro.experiments.config import drone_config_for

        build_drone_bundle(drone_config_for(fast=True), campaign_seed)


@dataclass
class Call:
    """One timed ``api.run`` call and what it produced."""

    campaign_seed: int
    wall_s: float
    #: CPU time of the benchmark process during the call: the campaign
    #: runs single-threaded, so this is the wall time less the time the
    #: host gave the CPU to something else.
    cpu_s: float
    trials: int
    digest: str
    rows: List[Dict[str, Any]]
    #: What the tracer recorded, for a traced call.
    traced: Any = None
    #: The CPU time in seconds on the nominal host, for a sampled call
    #: (see ``calibrate.HostSampler``).
    ref_s: Optional[float] = None


def run_call(
    workload: Workload,
    campaign_seed: int,
    trace: Optional[Callable[[Callable[[], Any]], Any]] = None,
    host: Any = None,
) -> Call:
    """Time one ``api.run`` call, wall and CPU; ``trace`` wraps it as the root span.

    ``trace(fn)`` must return ``(fn(), record)``.  A ``calibrate.HostSampler``
    passed as ``host`` samples the host's speed during the call.
    """
    execution = workload.execution(campaign_seed)

    def invoke():
        return api.run(workload.spec, workload.params, execution=execution)

    if workload.drone:
        # Every call pre-trains its own policy, as grid-infer's calls train
        # theirs: the pretrain costs about the same for every seed and the
        # campaign does not, so a cold call varies less from seed to seed.
        from repro.experiments.common import clear_drone_cache

        clear_drone_cache()
    record = None
    before = executed_trial_count()
    with host if host is not None else contextlib.nullcontext():
        cpu_start = time.process_time()
        start = time.perf_counter()
        if trace is None:
            artifact = invoke()
        else:
            artifact, record = trace(invoke)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    payload = artifact.result.to_json_dict()
    return Call(
        campaign_seed=campaign_seed,
        wall_s=wall,
        cpu_s=cpu,
        trials=executed_trial_count() - before,
        digest=hashlib.sha256(canonical_json(payload).encode()).hexdigest(),
        rows=payload["rows"],
        traced=record,
        ref_s=host.normalise(cpu) if host is not None else None,
    )


def load_goldens() -> Dict[str, Any]:
    if not GOLDENS_PATH.exists():
        return {"workloads": {}}
    with GOLDENS_PATH.open() as f:
        return json.load(f)


class Gate:
    """Checks every call of one invocation; counts the calls that fail.

    A call fails when it raises, when its shape (trials executed, rows,
    non-finite numbers) differs from the workload's recorded shape, when
    its digest differs from the committed golden for its campaign seed, or
    when it differs from an earlier call of the same campaign seed in this
    invocation.
    """

    def __init__(self, workload: Workload, goldens: Mapping[str, Any]) -> None:
        self.expected = goldens["workloads"].get(workload.name)
        self.seen: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, call: Call, extra: Sequence[str] = ()) -> bool:
        self.attempted += 1
        problems = self._problems(call) + list(extra)
        self.seen.setdefault(call.campaign_seed, call.digest)
        if problems:
            self.failed += 1
            self.problems.extend(f"seed {call.campaign_seed}: {p}" for p in problems)
        return not problems

    def raised(self, campaign_seed: int, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"seed {campaign_seed}: raised {exc!r}")

    def _problems(self, call: Call) -> List[str]:
        problems = []
        for row in call.rows:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"non-finite {key} in row {row}")
        earlier = self.seen.get(call.campaign_seed)
        if earlier is not None and call.digest != earlier:
            problems.append(f"digest {call.digest[:12]} != earlier call {earlier[:12]}")
        if self.expected is None:
            return problems
        if call.trials != self.expected["trials_per_call"]:
            problems.append(
                f"executed {call.trials} trials, expected {self.expected['trials_per_call']}"
            )
        if len(call.rows) != self.expected["rows_per_call"]:
            problems.append(
                f"{len(call.rows)} result rows, expected {self.expected['rows_per_call']}"
            )
        golden = self.expected["digests"].get(str(call.campaign_seed))
        if golden is not None and call.digest != golden:
            problems.append(f"digest {call.digest[:12]} != golden {golden[:12]}")
        return problems


def record_goldens(workload: Workload, calls: List[Call]) -> None:
    """Store the shape and digests of ``calls`` as the workload's goldens."""
    goldens = load_goldens()
    entry = goldens["workloads"].setdefault(workload.name, {"digests": {}})
    entry["trials_per_call"] = calls[0].trials
    entry["rows_per_call"] = len(calls[0].rows)
    for call in calls:
        entry["digests"][str(call.campaign_seed)] = call.digest
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
