"""Two-step motion-intention prediction benchmark.

Gaze rows classify the traversal segment; time-domain resistance features
plus the segment probabilities feed an LSTM that classifies the movement
direction. Everything trains from scratch and is deterministic per seed.
"""

__version__ = "0.1.0"

import os

# One BLAS thread per process unless the environment sets a count, read when numpy
# loads its BLAS: `run` trains the two shapes in two processes, whose BLAS threads
# would otherwise contend for the cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .dataset import (  # noqa: E402, F401
    Direction,
    ParticipantRecord,
    ResistanceTrace,
    SynthConfig,
    TaskShape,
    assign_segment_label,
    segment_trace,
    synth_cohort,
    synth_participant,
)
from .features import (  # noqa: E402, F401
    FEATURE_NAMES,
    FeatureKind,
    Scaler,
    SetupId,
    apply_scaler,
    assemble_setup,
    compute_feature,
    fit_scaler,
)
from .pipeline import (  # noqa: E402, F401
    GridConfig,
    Metrics,
    RunConfig,
    TwoStepConfig,
    evaluate,
    run_grid,
    run_two_step,
)
