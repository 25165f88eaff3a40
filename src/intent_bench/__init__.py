"""Two-step motion-intention prediction benchmark.

Gaze rows classify the traversal segment; time-domain resistance features
plus the segment probabilities feed an LSTM that classifies the movement
direction. Everything trains from scratch and is deterministic per seed.
"""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
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
from .features import (  # noqa: F401
    FEATURE_NAMES,
    FeatureKind,
    Scaler,
    SetupId,
    apply_scaler,
    assemble_setup,
    compute_feature,
    fit_scaler,
)
from .pipeline import (  # noqa: F401
    GridConfig,
    Metrics,
    TwoStepConfig,
    evaluate,
    run_grid,
    run_two_step,
)
