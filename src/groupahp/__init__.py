"""Group AHP aggregation with manipulation-resistant expert weighting.

The package covers the full pipeline: pairwise comparison matrices and
priority derivation (GMM, EVM), inconsistency indices, classical group
aggregation (AIJ/AIP), three robust expert-weighting schemes (APDD, AID,
MX), a bribery attack model, and Monte Carlo experiments measuring
defense effectiveness and perturbation cost.
"""

from .aggregate import aggregate_panel, aij, aip
from .attack import AttackOutcome, bribe_matrix, run_attack
from .core import (
    ExpertPanel,
    ExpertWeights,
    PCMatrix,
    PriorityVector,
    consistent_matrix_from_priorities,
    pcm_from_upper_triangle,
    resymmetrize,
)
from .derive import evm_priorities, evm_stack, gmm_priorities, panel_gmm
from .errors import (
    CredibilityOrderError,
    DomainError,
    EmptyReportError,
    GroupAHPError,
    PanelParseError,
    ShapeError,
)
from .inconsistency import koczkodaj_k, panel_cis, panel_mean_ci, saaty_ci
from .metrics import (
    chebyshev,
    euclidean,
    kendall_tau_distance,
    manhattan,
    manhattan_mean,
)
from .montecarlo import (
    Scenario,
    experiment1,
    experiment2,
    generate_corpus,
    headline_stats,
    perturb,
    random_priority_vector,
    summarize,
)
from .panelio import RunConfig, bundled_panel, load_config, load_panel, save_panel
from .robust import (
    EXAMPLE_CREDIBILITY_MATRIX,
    CredibilityScale2,
    CredibilityScale3,
    RobustConfig,
    aid_weights,
    apdd_weights,
    credibility_from_matrix,
    method_weights,
    mx_weights,
    preferential_distances,
    robust_aggregate,
)

__version__ = "0.1.0"
