"""Numerical laboratory for dilation semigroups on truncated Hardy-space series.

The package computes, at explicit finite truncation, every quantity the
weighted dilation semigroup on square-summable Maclaurin coefficients
exposes to direct verification: the coefficient transforms and their
adjoints, kernel bases, explicit adjoint eigenvectors and their residuals,
the h_k special functions with a mutual-oracle generator pair, local
Dirichlet energies at the boundary point 1, and least-squares distances
from targets to finite spans (the Baez-Duarte style distance sequence and
cyclicity experiments).
"""

from . import errors, projection, semigroup, series, special, spectral
from .errors import *
from .projection import *
from .semigroup import *
from .series import *
from .special import *
from .spectral import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + projection.__all__ + semigroup.__all__ + series.__all__
           + special.__all__ + spectral.__all__)
