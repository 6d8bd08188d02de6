import pytest

from helpers import UNIT, add, d1_generator
from mayss import (ParameterError, Tridegree, a, e2_dimension, element_from_monomial, h,
                   enumerate_basis, higher_page_hit_analysis, monomial_from_factors,
                   survives_to_e2)
from mayss.verify import product_class


def test_second_page_of_small_bidegree(ctx5):
    res = e2_dimension(ctx5, 2, 49)
    assert (res.e1_dim, res.cycle_dim, res.boundary_dim, res.e2_dim) == (2, 1, 1, 0)
    assert len(res.blocks) == 1
    blk = res.blocks[0]
    assert blk.u == 4 and blk.e2_dim == 0
    # filtration below: a(2) alone
    assert enumerate_basis(ctx5, 1, 49).dimension == 1


def test_boundary_class_dies_on_page_two(ctx5):
    x = d1_generator(a(2), ctx5)
    v = survives_to_e2(x, ctx5)
    assert v.position == Tridegree(2, 49, 4)
    assert v.is_cycle
    assert v.is_boundary
    assert v.boundary_witness == (1,)
    assert not v.e2_nonzero


def test_non_cycle_is_reported_as_such(ctx5):
    x = element_from_monomial(
        monomial_from_factors([(a(0), 1), (h(2, 0), 1)], ctx5), ctx5)
    v = survives_to_e2(x, ctx5)
    assert not v.is_cycle
    assert not v.e2_nonzero


def test_inhomogeneous_input_rejected(ctx5):
    x = add(element_from_monomial(monomial_from_factors([(a(0), 1)], ctx5), ctx5),
            element_from_monomial(monomial_from_factors([(a(1), 1)], ctx5), ctx5),
            ctx5)
    with pytest.raises(ParameterError):
        survives_to_e2(x, ctx5)
    with pytest.raises(ParameterError):
        higher_page_hit_analysis(x, ctx5)


def test_product_class_survives(ctx5):
    omega = element_from_monomial(product_class(ctx5, 4, 6, 4), ctx5)
    v = survives_to_e2(omega, ctx5)
    assert v.position == Tridegree(7, 130194, 17)
    assert v.is_cycle and not v.is_boundary
    assert v.e2_nonzero


def test_hit_analysis_of_the_product_class(ctx5):
    omega = element_from_monomial(product_class(ctx5, 4, 6, 4), ctx5)
    report = higher_page_hit_analysis(omega, ctx5)
    assert report.source_filtration == 6
    assert report.source_weights == (34, 50, 50, 50, 50, 50, 50)
    assert report.first_page_source_dim == 0
    assert report.higher_source_e2 == {17: 0, 33: 0}
    assert report.not_hit_beyond_first_page
    assert "convergence" in report.caveat


def test_hit_analysis_at_filtration_zero(ctx5):
    x = element_from_monomial(UNIT, ctx5)
    report = higher_page_hit_analysis(x, ctx5)
    assert report.source_filtration == -1
    assert report.source_weights == ()
    assert report.first_page_source_dim == 0
    assert report.higher_source_e2 == {}
    assert report.not_hit_beyond_first_page


def test_weight_filtered_page_queries(ctx5):
    assert enumerate_basis(ctx5, 6, 130194).dimension == 7
    assert enumerate_basis(ctx5, 5, 130194).dimension == 0
    assert enumerate_basis(ctx5, 7, 130194).dimension == 85
    assert enumerate_basis(ctx5, 7, 130194, u=17).dimension == 1
    full = e2_dimension(ctx5, 6, 130194)
    assert full.e1_dim == 7 and full.cycle_dim == 0 and full.e2_dim == 0
    assert sorted(b.u for b in full.blocks) == [34, 50]


def test_block_dimensions_sum_to_totals(ctx5):
    for (s, t) in [(2, 49), (3, 57), (4, 130), (3, 96)]:
        res = e2_dimension(ctx5, s, t)
        assert sum(b.e1_dim for b in res.blocks) == res.e1_dim
        assert sum(b.cycle_dim for b in res.blocks) == res.cycle_dim
        assert sum(b.boundary_dim for b in res.blocks) == res.boundary_dim
        assert sum(b.e2_dim for b in res.blocks) == res.e2_dim
        assert 0 <= res.boundary_dim <= res.cycle_dim <= res.e1_dim


def test_weight_restricted_query_matches_block(ctx5):
    full = e2_dimension(ctx5, 2, 49)
    one = e2_dimension(ctx5, 2, 49, u=4)
    assert (one.e1_dim, one.cycle_dim, one.boundary_dim, one.e2_dim) == \
        (full.e1_dim, full.cycle_dim, full.boundary_dim, full.e2_dim)
    missing = e2_dimension(ctx5, 2, 49, u=99)
    assert missing.e1_dim == 0 and missing.e2_dim == 0 and missing.blocks == ()
