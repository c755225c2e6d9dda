"""The stochastic bracket {<x>, <p>}_s and the commutator correspondence.

The density and phase form a canonical pair (Nelson, Phys. Rev. 150,
1079 (1966)), so functionals of (rho, S) carry the bracket
    {A, B}_s = integral (dA/drho dB/dS - dA/dS dB/drho) dx.
For <x> = integral rho x dx and <p> = integral rho S' dx the derivatives are
d<x>/drho = x, d<x>/dS = 0 and d<p>/dS = -rho' (by parts), so
{<x>, <p>}_s = -integral x rho' dx, evaluated here by trapezoidal
quadrature on the field's grid. On the operator side the matching object
is [x, p] / i, read exactly: the commutator normal-orders to i times the
identity, so the operator side is exactly +1 in every state, and
{<x>, <p>}_s is +1 up to quadrature error. (With the standard commutator
[x_i, p_j] = i delta_ij the i sits in the denominator; this fixes the sign
convention of the correspondence once and for all.)
"""

from __future__ import annotations

import numpy as np

from ..core import ValidationError
from ..fpe import GridField
from .operators import OperatorExpr, commutator

# largest density at a grid end over its peak: the end terms [rho dS] that the bracket
# drops move a Gaussian's bracket by 4 to 5 times that ratio (seen from 1.5e-8 to 2.3e-5)
TAIL = 1.0e-6


def stochastic_bracket(field: GridField) -> float:
    """{<x>, <p>}_s = -integral x rho' dx on a grid whose end densities are within ``TAIL``."""
    end = max(field.rho[0], field.rho[-1]) / field.rho.max()
    if not end <= TAIL:
        raise ValidationError(f"density {end:.3g} of its peak at a grid end, over {TAIL:g}: widen "
                              f"x_min = {field.x_min}, x_max = {field.x_max} or lower alpha_prime")
    return float(np.trapezoid(field.x * -np.gradient(field.rho, field.h), dx=field.h))


def bracket_from_commutator(A: OperatorExpr, B: OperatorExpr) -> complex:
    """Operator-side value matching {A, B}_s: [A_q, B_q] / i, for a
    commutator that is c times the identity; any other word is rejected."""
    comm = commutator(A, B)
    for word in comm.terms:
        if word:
            raise ValidationError(f"commutator is not a scalar: it holds the word {word!r}")
    return comm.coefficient(()).to_complex() / 1j
