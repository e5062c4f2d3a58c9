"""Sparse-array DOA estimation under sensor failures.

Simulation library and benchmark harness for coarray SS-MUSIC on
minimum-redundancy arrays, with two neural covariance-repair paths
(hybrid smoothing->network and end-to-end data-driven) evaluated against
the coarray Cramer-Rao bound.
"""

__version__ = "0.1.0"

from .geometry import (
    ArrayGeometry,
    DifferenceCoarray,
    difference_coarray,
    essential_sensors,
    is_hole_free,
    mra_lookup,
    mra_search,
)
from .signals import (
    Covariance,
    SourceScene,
    analytic_covariance,
    draw_angles,
    inject_failures,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    steering_matrix,
    stream_rng,
    stream_seed,
    zero_failed_rows,
)
from .coarray import (
    CoarraySignal,
    flatten_features,
    khatri_rao,
    redundancy_average,
    spatial_smoothing,
    unflatten_features,
    vectorize_covariance,
)
from .spectral import (
    CrbResult,
    MusicSpectrum,
    PeakResult,
    crb,
    doa_mse,
    hermitian_eig,
    music_spectrum,
    pick_peaks,
)
from .neural import (
    DATA_DRIVEN,
    HYBRID,
    AdamState,
    MlpModel,
    ScenePolicy,
    TrainingDataset,
    adam_init,
    adam_step,
    build_model,
    generate_dataset,
    load_dataset,
    load_model,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    mlp_backward,
    mlp_forward,
    predict_covariance,
    repair_input,
    save_dataset,
    save_model,
    train,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    TrialRecord,
    emit_spectrum,
    preset,
    run_sweep,
    run_trial,
    train_variant,
    trial_snapshots,
)
