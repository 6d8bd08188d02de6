"""Exact mod-p spectral sequence algebra: first-page bases, the first
differential, second-page dimensions, and scenario-level verification."""

from .algebra import (Element, Generator, Monomial, UNIT, a, add, b,
                      canonicalize, element_from_monomial, element_parity,
                      element_tridegree, h, monomial_from_factors, monomial_mul,
                      multiply, parse_element, render_element, scale)
from .cache import ENGINE_VERSION, ResultCache, default_cache_root
from .differential import d1, d1_generator, d1_matrix
from .enumeration import (ALL_PRUNING, NO_PRUNING, BidegreeBasis, CarrySolution,
                          carry_solutions, column_sums, enumerate_basis,
                          generator_universe, vanishes_by_digit_bound,
                          vanishes_by_remainder_bound)
from .errors import (CompletenessError, MayssError, ParameterError, ParseError)
from .grading import (PAdicProfile, PrimeContext, Tridegree, generator_tridegree,
                      make_context, padic_profile, profile_to_degree, stem)
from .linalg import (MatrixFp, in_span, kernel_basis, matrix_from_rows, rank)
from .pages import (PageQueryResult, SourcePageReport, SurvivalVerdict,
                    WeightBlock, e1_dimension, e2_dimension,
                    higher_page_hit_analysis, survives_to_e2)
from .verify import (Check, VerificationReport, critical_leading_terms,
                     critical_monomials, family_degree, h_triple, product_class,
                     s_rep, validate_family_params, verify_critical_differential,
                     verify_main, verify_representatives, verify_survival,
                     verify_upper_window_vanishing, verify_window)

__version__ = ENGINE_VERSION
