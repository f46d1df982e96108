"""Multifractal entropy toolkit for subshifts of finite type."""

from .errors import (
    AdmissibilityError,
    BracketError,
    ConfigError,
    ConvergenceError,
    MfentError,
    SpaceMismatchError,
    TooLargeError,
    UnreachableBetaError,
)
from .local import (
    LocalEntropySample,
    filtration_member,
    local_entropy,
    sample_level_set,
)
from .measures import (
    Bernoulli,
    DoublingReport,
    Gibbs,
    Markov,
    MeasureModel,
    Mixture,
    doubling_check,
    log_mass_array,
    logsumexp,
)
from .potential import Potential
from .premeasure import (
    TreeEvaluator,
    antichain_oracle,
    psi_log,
)
from .solver import (
    DEFAULT_SCHEDULE,
    EntropyEstimate,
    bowen_entropy,
    critical_exponent,
    packing_entropy_delta,
)
from .space import (
    CylinderSet,
    ShiftSpace,
    Word,
    make_shift,
)
from .spectrum import (
    LevelSetBin,
    log_partition,
    SpectrumCurve,
    domain_endpoints,
    h_curve,
    legendre,
    level_set_spectrum_oracle,
    level_set_window,
    level_tangency_residual,
    one_sided_derivatives,
    tangency_beta,
)
from .thermo import (
    closed_form_h,
    correlation_entropy,
    gibbs_identity_residual,
    partition_growth_by_squaring,
    pressure,
)

__version__ = "0.1.0"
