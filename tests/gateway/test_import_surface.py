"""What ``import repro.gateway`` costs: no shared-memory machinery.

The gateway's ``setup_s`` and ``process.import_ms`` pay for every module
the import pulls in; the sharded engine (EXPERIMENTS.md) dragged
``multiprocessing.shared_memory`` into every gateway process.  A fresh
interpreter, so another test's imports cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, sys
import repro.gateway
import repro.runtime
print(json.dumps({
    "loaded": [m for m in ("multiprocessing.shared_memory", "repro.runtime.shm")
               if m in sys.modules],
    "schedulers": sorted(n for n in repro.runtime.__all__ if n.endswith("Scheduler")),
}))
"""


def test_gateway_import_loads_no_shared_memory_and_two_schedulers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["loaded"] == []
    assert seen["schedulers"] == ["InlineScheduler", "ThreadedScheduler"]
