"""Max-product Kantorovich sampling operators over generalized kernels,
Orlicz-space error measures (modulars, Luxemburg norms) and an empirical
verification harness for the operator inequalities."""

from .analysis import (PAIR_FAMILIES, CampaignResult, ConvergenceReport,
                       InequalityCheck, PairFamily, campaign_max_convexity,
                       campaign_operator_algebra, campaign_pair_inequality,
                       check_jackson, check_modular_inequality, fit_rate,
                       modulus_of_continuity, run_convergence)
from .errors import (EmptyIndexSetError, InadmissibleKernelError,
                     InvalidInputError, MaxprodError, QuadratureError,
                     TruncationError, UnknownNameError)
from .kernels import (Kernel, KernelDiagnostics, bspline, check_assumptions,
                      de_la_vallee_poussin, ensure_l1, fejer, kernel_by_name,
                      l1_norm, lower_bound_constant, moment)
from .operators import (OperatorConfig, maxprod_kantorovich,
                        maxprod_kantorovich_grid, operator_config)
from .orlicz import (PhiFunction, exponential_phi, luxemburg_norm,
                     maxphi_inequality_check, modular, phi_by_name,
                     power_phi, zygmund_phi)
from .signals import (MeanValueTable, PiecewisePoly, Signal, catalog,
                      from_csv, mean_values, random_piecewise_poly)

__version__ = "0.1.0"
