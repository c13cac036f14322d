"""The paper's primary contribution: reliability metrics, models, analyses.

* :mod:`repro.core.taxonomy` — the failure taxonomy of Table I.
* :mod:`repro.core.attribution` — failure attribution via health-check
  windows and differential diagnosis (Section II-E, Fig. 4).
* :mod:`repro.core.metrics` — ETTR / MFU / goodput definitions (Section II-D).
* :mod:`repro.core.ettr` — analytical E[ETTR] (Eq. 1-2, Appendix A) and its
  Monte Carlo validator.
* :mod:`repro.core.mttf` — MTTF estimation with Gamma CIs and the
  1/(N * r_f) projection (Fig. 7).
* :mod:`repro.core.goodput` — lost-goodput accounting including
  second-order preemption cascades (Fig. 8).
* :mod:`repro.core.lemon` — lemon-node detection (Section IV-A, Fig. 11,
  Table II).
* :mod:`repro.core.checkpoint` — checkpoint-interval design space (Fig. 10).
"""

from repro.core.taxonomy import (
    FailureDomain,
    FailureSymptom,
    TaxonomyEntry,
    FAILURE_TAXONOMY,
    diagnose,
)
from repro.core.attribution import (
    AttributionPolicy,
    AttributedFailure,
    FailureAttributor,
)
from repro.core.metrics import (
    ETTRAssumptions,
    run_ettr,
)
from repro.core.ettr import (
    ETTRParameters,
    expected_ettr,
    expected_ettr_simple,
    expected_failures,
    expected_slowdown,
    monte_carlo_ettr,
    monte_carlo_ettr_samples,
)
from repro.core.mttf import (
    MTTFBucket,
    rf_floor,
    project_mttf,
    mttf_projection_curve,
)
from repro.core.goodput import (
    GoodputLoss,
    lost_goodput_by_size,
    find_crash_loops,
)
from repro.core.lemon import (
    LemonPolicy,
    LemonDetector,
    LemonReport,
    LEMON_SIGNALS,
)
from repro.core.checkpoint import (
    required_checkpoint_interval,
    ettr_checkpoint_grid,
)

__all__ = [
    "FailureDomain",
    "FailureSymptom",
    "TaxonomyEntry",
    "FAILURE_TAXONOMY",
    "diagnose",
    "AttributionPolicy",
    "AttributedFailure",
    "FailureAttributor",
    "ETTRAssumptions",
    "run_ettr",
    "ETTRParameters",
    "expected_ettr",
    "expected_ettr_simple",
    "expected_failures",
    "expected_slowdown",
    "monte_carlo_ettr",
    "monte_carlo_ettr_samples",
    "MTTFBucket",
    "rf_floor",
    "project_mttf",
    "mttf_projection_curve",
    "GoodputLoss",
    "lost_goodput_by_size",
    "find_crash_loops",
    "LemonPolicy",
    "LemonDetector",
    "LemonReport",
    "LEMON_SIGNALS",
    "required_checkpoint_interval",
    "ettr_checkpoint_grid",
]
