"""eplab: numerical analysis of EP/posinormal structure for complex matrices.

The toolkit decides, with explicit tolerances and residuals, the predicates
normal / hyponormal / quasiposinormal / posinormal / coposinormal / EP /
hypo-EP / EP_r for dense complex matrices, provides product decision
procedures (when is a product of EP matrices EP), block decompositions of
pairs relative to the kernel splitting of the first operand, structured
random generators, finite-section truncation families, and a seeded
theorem-fuzzing harness with a CLI.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    CmatParseError,
    DimensionMismatchError,
    EplabError,
    InapplicableError,
    InputError,
    TrivialSubspaceError,
)
from .kernel import RankDecision, as_matrix, psd_check
from .subspaces import (
    AngleReport,
    BouldinComponents,
    Factorization,
    Subspace,
    bouldin_angle,
    equality_residual,
    equals,
    factor,
    includes,
    inclusion_residual,
    intersect,
    kernel_basis,
    minimal_angle,
    numerical_rank,
    pinv,
    projector,
    range_basis,
    subspace_sum,
)
from .predicates import ClassificationReport, classify, is_ep
from .structure import (
    BlockDecomposition,
    InclusionReport,
    PosinormalProductConditions,
    block_kernel_inclusions,
    decompose_pair,
    posinormal_product_conditions,
)
from .products import (
    GroupInvertibleReport,
    JohnsonVinothReport,
    ProductReport,
    RangeIdentityReport,
    djordjevic_check,
    group_invertible_check,
    hartwig_katz,
    johnson_vinoth_check,
    power_ep,
    product_range_identity,
)
from .generators import (
    ExamplePair,
    TruncationMetrics,
    TruncationSeries,
    TRUNCATION_FAMILIES,
    catalog,
    catalog_names,
    random_commuting_ep_pair,
    random_ep,
    random_invariant_range_b,
    random_same_kernel_pair,
    random_unitary,
    shift_block_pair,
    sweep,
    tilted_projection_pair,
    weighted_shift_truncation,
)
from .matfile import format_matrix, parse_matrix, read_matrix, write_matrix
from .fuzz import SUITES, FuzzOutcome, run_suite, run_trial
