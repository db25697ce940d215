"""Design-based two-stage survey sampling toolkit.

Estimation of totals and smooth functions of totals under two-stage designs
(SI, SIR or Bernoulli sampling of PSUs, arbitrary equal-probability
subsampling inside), coupled joint draws of with/without-replacement
designs, the with-replacement bootstrap of PSUs, and a deterministic
parallel Monte Carlo harness for bias/stability/coverage studies.
"""

from .bootstrap import (
    BootstrapConfig,
    ReplicateSet,
    bootstrap_variance,
    percentile_ci,
    resample_wr,
    stratified_proportion_resample,
    studentized_ci,
)
from .coupling import (
    BoundReport,
    CoupledBeSiDraw,
    CoupledSirSiDraw,
    DecayReport,
    coupled_be_si,
    coupled_sir_si,
    verify_decay,
    verify_hajek_bound,
    verify_sir_si_bound,
)
from .designs import (
    DesignSpec,
    FirstStageDraw,
    draw_be,
    draw_si,
    draw_sir,
    draw_stratified_si,
)
from .estimators import (
    CorrelationEstimand,
    ProportionEstimand,
    RatioEstimand,
    TotalEstimand,
    TotalEstimate,
    ht_total_be,
    linearized_values,
    mean_total,
    normal_ci,
    normal_quantile,
    population_value,
    theoretical_variance,
    variance_estimate,
)
from .frame import (
    Frame,
    SyntheticConfig,
    calibrate_model,
    frame_to_csv,
    generate_population,
    ingest_frame,
)
from .montecarlo import (
    MCReport,
    Scenario,
    approximate_true_variance,
    coverage_stats,
    run_scenario,
    scaling_study,
)
from .rng import GENERATOR_ID, substream

__version__ = "0.1.0"
