"""qsigns: exact q-expansion arithmetic for half-integral weight forms,
Shimura lifts, Hecke operators, and coefficient sign statistics."""

from .arith import (DirichletCharacter, chi_star, chi_t, divisors,
                    is_fundamental_discriminant, is_squarefree, kronecker)
from .qseries import (PrecisionError, QSeries, add, derive, dilate,
                      eisenstein_e4, eta, mul, pow_, scalar_mul, theta,
                      theta_psi, u_op)
from .forms import (NAMED, Form, delta_form, expression_form, g_form,
                    integer_table, plus_space_check, ramanujan_delta,
                    x0_11_form)
from .formspec import FormSpecError, evaluate, parse_formspec
from .hecke import (EigenReport, RecurrenceReport, deligne_check,
                    elementary_bound_check, extract_eigenvalue,
                    recurrence_check, satake, shimura_lift, t_integral,
                    t_square_half, u_image)
from .signs import (SignStatsReport, dprime_filter, first_nonzero,
                    fundamental, prefix, prime_powers, prop2_witnesses,
                    render_ratio, scan, square_class)

__version__ = "0.1.0"
