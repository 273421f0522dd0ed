"""Process set-up shared by the benchmark entry points.

Must run before numpy is imported: BLAS and OpenMP read their thread-pool
sizes once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Thread-pool variables pinned to 1 so every workload runs single-threaded
#: numpy on any host (the campaigns are measured with ``workers=1``).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The package sources, relative to the checkout this file lives in.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def prepare_process() -> None:
    """Pin thread pools, drop ``REPRO_*`` knobs and put ``src`` on the path.

    ``REPRO_SCALE``, ``REPRO_CAMPAIGN_*``, ``REPRO_KERNEL_BACKEND`` and the
    like would silently change what a workload computes, so the benchmark
    runs with none of them.  Child processes inherit the cleaned
    environment.  Exits with status 2 when the package sources are missing.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: package sources not found under {SRC_DIR}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
