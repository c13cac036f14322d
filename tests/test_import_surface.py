"""Importing the package does not load ``scipy.stats``.

``scipy.stats`` is the heaviest optional import in the tree: it roughly
doubles the package's import time and adds ~45 MB of resident memory.
The figure analyses need only ``scipy.special`` (Fig. 7's Gamma
intervals), so no module on the import surface below may pull in
``scipy.stats``.  ``repro.core.rackscale`` still uses it, for
EXPERIMENTS row X2, and must stay off this surface.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules a program imports to run campaigns, analyses, the live
#: estimators, the service and telemetry.
SURFACE = (
    "repro",
    "repro.runtime",
    "repro.analysis",
    "repro.live",
    "repro.serve",
    "repro.obs",
)


def test_import_surface_does_not_load_scipy_stats():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        + "; ".join(f"import {module}" for module in SURFACE)
        + "; print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"
