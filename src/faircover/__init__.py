"""Set cover with exact per-group selection quotas.

The public surface re-exported here: the data model (SetSystem,
FairnessSpec, Cover, fairness reports), the cover algorithms in their
unweighted, weighted, generalized-quota and multicover flavors, the
exhaustive reference solvers, instance I/O and generators, and the small
LP toolkit the rounding algorithms ride on.
"""

from .errors import (
    AllTauInfeasible,
    AllTuplesZeroCoverage,
    AuditFailure,
    BudgetExceeded,
    DimensionMismatch,
    FairCoverError,
    InfeasibleRequirement,
    InsufficientColor,
    InvalidMatrix,
    NegativeFraction,
    NoProgress,
    NumericalFailure,
    ParseError,
    PCapExceeded,
    ResampleCapExceeded,
    SumNotOne,
    ZeroFractionViolated,
)
from .generalized import (
    EpsilonAudit,
    EpsilonSpec,
    approx_factor,
    epsilon_audit,
    epsilon_gfsc,
    gfsc,
    gfwsc,
)
from .io_generators import (
    gen_biased,
    gen_geometric,
    gen_sum_of_radii,
    gen_synthetic,
    load_instance,
    save_instance,
)
from .lp import (
    FEAS_TOL,
    LpProblem,
    LpSolution,
    build_mkcc_lp,
    build_weighted_mkcc_lp,
    color_sampling_probs,
    lp_variable_order,
    solve,
)
from .model import (
    Cover,
    FairnessReport,
    FairnessSpec,
    SetSystem,
    ValidationOutcome,
    count_parity,
    delta,
    fairness_report,
    ratio_parity,
    validate_instance,
)
from .multicover import (
    AuditReport,
    MulticoverInstance,
    PriceEntry,
    PriceLedger,
    audit_harmonic_bound,
    audit_price_identity,
    fair_multicover_greedy,
)
from .oracles import opt_fair_cover, opt_fair_multicover, opt_mkcc, opt_set_cover
from .unweighted import (
    GreedyState,
    eff_fsc,
    greedy_allpick,
    greedy_set_cover,
    mkcc_greedy,
    mkcc_lp_round,
    naive_fsc,
)
from .weighted import (
    TauCandidate,
    eff_wfsc,
    greedy_weighted_allpick,
    naive_wfsc,
    weighted_mkcc_round,
)

__version__ = "0.1.0"
