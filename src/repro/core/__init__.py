"""The paper's contribution layer: QoE studies and the offload evaluation.

Everything below maps one-to-one onto the paper's evaluation:

* :mod:`repro.core.studies.web` — Figs 2a, 3a–3d, §3.1 categories
* :mod:`repro.core.studies.video` — Figs 2b, 4a–4d
* :mod:`repro.core.studies.rtc` — Figs 2c, 5a–5d
* :mod:`repro.core.studies.network` — Fig 6 (iperf vs clock)
* :mod:`repro.core.studies.offload` — Figs 7a–7c (DSP regex offload)
* :mod:`repro.core.studies.history` — Fig 1 (2011–2018 evolution)

:mod:`repro.core.experiments` provides the trial runner
(`RobustTrialRunner`: seeded repeats → mean/std, the paper's
20-repetition methodology, with budgets, retries, and journal/resume),
:mod:`repro.core.pipeline` the one dispatch loop every runner and sweep
folds over, :mod:`repro.core.session` the one function that assembles a
simulated session (device, background load, link, app) for every study,
the fleet and the tracer, and :mod:`repro.core.background` the
background-load jitter that gives low-end devices their larger error
bars.
"""

from repro.core.experiments import (
    RobustRunReport,
    RobustTrialRunner,
    TrialError,
    TrialRecord,
    derive_retry_seed,
    derive_seed,
)
from repro.core.background import BackgroundLoad

__all__ = [
    "BackgroundLoad",
    "RobustRunReport",
    "RobustTrialRunner",
    "TrialError",
    "TrialRecord",
    "derive_retry_seed",
    "derive_seed",
]
