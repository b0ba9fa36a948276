"""Sparse-sampled FMCW radar quantitative imaging.

Synthesizes frequency-domain radar echoes from 2-D reflectivity maps,
reconstructs them with a classic accelerated shrinkage solver, and trains
an unrolled-solver network with a convolutional refinement head that does
the same job faster and better.
"""

from .config import ExperimentConfig, apply_fast_profile, load_config
from .datasets import (
    read_idx_images,
    shape_rasters,
    split_dataset,
    synthetic_digit_rasters,
)
from .errors import ConfigError, DivergedError, FormatError, RadarQiError
from .fista import (
    FistaConfig,
    ImagingOperator,
    SolverResult,
    energy,
    fista_solve,
    fista_solve_many,
    soft_threshold,
)
from .forward import build_sensing_matrix, noisy_echoes, synthesize_echoes
from .geometry import (
    SPEED_OF_LIGHT,
    build_doi_grid,
    build_sweep,
    build_ula,
    distances,
    rasters_to_maps,
)
from .harness import (
    MetricsReport,
    build_scene,
    compare_methods,
    f0_conditions,
    prepare_dataset,
    snr_conditions,
    sweep,
    train_pipeline,
    unseen_shape_eval,
)
from .metrics import mse, ssim
from .models import EchoDnn, LFistaResNet, build_model, predict_maps
from .training import (
    AdamState,
    Checkpoint,
    PlateauSchedule,
    TrainingData,
    adam_step,
    fit,
    hybrid_loss_batch,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)

__version__ = "0.1.0"
