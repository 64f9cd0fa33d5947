"""wavesym: exact symbolic verification of the group classification of the
nonlinear wave equations u_tt = f(x,u_x) u_xx + g(x,u_x)."""

from .charts import AUG_COORDS, BASE_COORDS, augmented_chart, equation_chart
from .detsys import (AnsatzBasis, ClassSpec, check_symmetry,
                     generate_determining_system, invariance_residual,
                     kernel_fields, solve_within_ansatz)
from .expr import (Chart, Expr, Symbol, add, app, collect, diff, equal,
                   evaluate, exp_, is_zero, lnabs, mul, pow_, rat,
                   structurally_zero, substitute, sym, total_derivative)
from .classif import (builtin_catalog, run_campaign, verify_adjoint_actions,
                      verify_case, verify_equivalence_algebra,
                      verify_equivalence_group, verify_megaideals,
                      verify_potential_link, verify_reductions,
                      verify_subalgebra_lists, verify_table)
from .equivalence import EquivalenceAlgebra, Gen
from .liealg import (LieAlgebraPresentation, Subspace, center, centralizer,
                     close_or_fail, derived_series, flag_automorphism_solve,
                     radical)
from .parse import parse, parse_vector_field
from .printer import to_str
from .vecfield import (EquivParams, PointTransform, VectorField,
                       apply_equivalence, bracket, prolong2, pushforward,
                       transform_equation)

__version__ = "0.1.0"
