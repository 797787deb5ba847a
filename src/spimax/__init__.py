"""Simultaneous prediction intervals and max-type tests for mixed parameters
in block-diagonal linear mixed models."""

from .model import (
    FHM,
    NERM,
    VAR_FLOOR,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    cluster_mean_spec,
    replace_response,
    validate,
)
from .estimation import (
    FitResult,
    batch_eblup,
    cholesky_residuals,
    eb_random_effects,
    eblup,
    fit_gls_blup,
    g1,
    g2,
    reml_fit,
    restricted_loglik,
)
from .maxstat import (
    SCALE_FLOOR,
    ContrastTest,
    CriticalValue,
    SimultaneousIntervals,
    build_spi,
    covers_all,
    single_step_test,
    step_down_test,
)
from .bootstrap import (
    BootstrapDraws,
    beran_critical_values,
    critical_value_bs,
    critical_value_contrast,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from .mc import (
    Arrow,
    JointNormalModel,
    assemble_precision,
    build_joint_normal,
    critical_value_mc,
    model_scales,
)
from .analytic import (
    RidgeWeights,
    TubeConstants,
    bonferroni_cv,
    ridge_interval_scales,
    ridge_weights,
    tube_alpha_bound,
    tube_cv,
)
from .calibration import calibrate, max_test
from .dataio import (
    export_area_csv,
    export_unit_csv,
    ingest_area_csv,
    ingest_unit_csv,
)
from .simulate import (
    ExperimentResult,
    ScenarioConfig,
    generate_scenario,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)
from . import errors

__version__ = "0.1.0"
