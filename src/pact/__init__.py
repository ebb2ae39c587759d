"""Change-point preferential attachment trees.

Simulation of preferential attachment trees whose attachment offset switches
at prescribed fractions of the final size, exact and Monte Carlo evaluation
of the limiting degree laws, the continuous-time embedding's timing
statistics, leaf-count fluctuation theory, and an offline change-point
estimator, wired into a reproducible experiment CLI (``pact``).
"""

__version__ = "0.1.0"

from .model_core import (
    ChangePointSchedule,
    Segment,
    SeededRng,
    segment_of,
    validate_schedule,
)
from .generator import (
    AttachmentSampler,
    DegreeHistogram,
    GrowingTree,
    RecordFlags,
    degree_histogram,
    grow_tree,
    load_tree,
    sample_parent,
    save_tree,
    top_k_degrees,
)
from .leaf_process import (
    LeafTrajectory,
    expected_leaves,
    gn_path,
    p_inf,
    variance_suite,
    w_m,
)
from .embedding import (
    EmbeddingClock,
    holding_times,
    malthusian_track,
    upsilon,
    upsilon_clt_sample,
    upsilon_limit,
)
from .limit_laws import (
    DegreeSampleBatch,
    LimitDegreeSample,
    p_alpha_pmf,
    sample_age,
    sample_d_alpha,
    sample_d_theta,
    sample_d_theta_multi,
    sample_point_count,
    tail_exponent,
)
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    dn_curve,
    estimate,
    gamma_hat,
    limit_D,
    limit_H,
    split_means,
)
