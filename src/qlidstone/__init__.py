"""qlidstone: exact q-series polynomial families, divided-difference
two-point expansions, and the generalized-translation difference solver.

Quick start::

    from fractions import Fraction
    from qlidstone import QContext, qpolys, lidstone

    ctx = QContext(Fraction(1, 2))          # s = q**(1/4)
    beta = qpolys.build_numbers(ctx, "beta_q", 8)
    report = qpolys.check_identity(ctx, "connection_F1", 8)

Everything exact-mode is built on :class:`fractions.Fraction`; the only
floating point lives in the zero finders and residual grids.
"""

from .qcore import QContext, q_number, q_pochhammer_inf
from .symlaurent import SymPoly, aw_derivative, change_basis, eval_at, q_translate, special_poly
from .fps import Series
from . import qpolys, qspecial, lidstone, guichard

__version__ = "0.1.0"

__all__ = [
    "QContext",
    "SymPoly",
    "Series",
    "q_number",
    "q_pochhammer_inf",
    "special_poly",
    "eval_at",
    "aw_derivative",
    "q_translate",
    "change_basis",
    "qpolys",
    "qspecial",
    "lidstone",
    "guichard",
    "__version__",
]
