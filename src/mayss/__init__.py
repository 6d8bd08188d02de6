"""Exact mod-p spectral sequence algebra: first-page bases, the first
differential, second-page dimensions, and scenario-level verification."""

from .algebra import (Monomial, a, b, element_from_monomial, h, monomial_from_factors,
                      multiply, parse_element, render_element)
from .cache import ENGINE_VERSION, ResultCache
from .differential import d1
from .enumeration import enumerate_basis
from .errors import MayssError, ParameterError, ParseError
from .grading import PrimeContext, Tridegree, make_context, padic_profile
from .pages import e2_dimension, survives_to_e2
from .verify import (verify_critical_differential, verify_main, verify_representatives,
                     verify_survival, verify_upper_window_vanishing, verify_window)

__version__ = ENGINE_VERSION
