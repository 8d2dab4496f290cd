"""Tests for product terms, sums of products and Petrick expansion."""

import pytest

from repro.core import ProductTerm, SumOfProducts, expand_product_of_sums
from repro.errors import OptimizationError


def term(*literals):
    return ProductTerm(frozenset(literals))


class TestProductTerm:
    def test_len_and_contains(self):
        t = term(1, 2)
        assert len(t) == 2
        assert 1 in t and 3 not in t

    def test_iteration_sorted(self):
        assert list(term(3, 1, 2)) == [1, 2, 3]

    def test_absorption(self):
        assert term(1).absorbs(term(1, 2))
        assert not term(1, 2).absorbs(term(1))
        assert term(1).absorbs(term(1))

    def test_union(self):
        assert term(1).union(term(2)) == term(1, 2)

    def test_with_literal(self):
        assert term(1).with_literal(5) == term(1, 5)

    def test_map(self):
        mapped = term(5).map(lambda lit: {10 * lit, 10 * lit + 1})
        assert mapped == term(50, 51)

    def test_render(self):
        assert term(2, 5).render() == "C2.C5"
        assert term(1, 2).render("OP") == "OP1.OP2"
        assert term().render() == "1"

    def test_hashable_and_equal(self):
        assert term(1, 2) == term(2, 1)
        assert hash(term(1, 2)) == hash(term(2, 1))

    def test_terms_have_no_order(self):
        """``<`` on the literal sets would test inclusion, not order."""
        with pytest.raises(TypeError):
            term(1, 5) < term(2, 3)

    def test_negative_literal_rejected(self):
        with pytest.raises(OptimizationError, match="negative literal"):
            term(-1, 2)
        with pytest.raises(OptimizationError, match="negative literal"):
            expand_product_of_sums([{3}, {-1, 2}])


class TestSumOfProducts:
    def test_absorption_on_construction(self):
        sop = SumOfProducts.of_terms([{1, 2}, {1}, {1, 2, 3}])
        assert sop.terms == frozenset({term(1)})

    def test_one_and_zero(self):
        assert SumOfProducts.one().is_true
        assert SumOfProducts.zero().is_false

    def test_clause(self):
        sop = SumOfProducts.clause([1, 4, 5])
        assert len(sop) == 3
        assert term(4) in sop.terms

    def test_or_with(self):
        a = SumOfProducts.of_terms([{1}])
        b = SumOfProducts.of_terms([{2}])
        assert len(a.or_with(b)) == 2

    def test_minimal_terms(self):
        sop = SumOfProducts.of_terms([{1, 2}, {3, 4}, {5, 6, 7}])
        minimal = sop.minimal_terms()
        assert {frozenset(t.literals) for t in minimal} == {
            frozenset({1, 2}),
            frozenset({3, 4}),
        }

    def test_sorted_terms_deterministic(self):
        sop = SumOfProducts.of_terms([{2, 5}, {1, 2}])
        assert [t.render() for t in sop.sorted_terms()] == [
            "C1.C2",
            "C2.C5",
        ]

    def test_map_literals(self):
        sop = SumOfProducts.of_terms([{5}])
        mapped = sop.map_literals(lambda lit: {1, 3})
        assert mapped.terms == frozenset({term(1, 3)})

    def test_map_literals_triggers_absorption(self):
        """The §4.3 effect: C2.C5 -> OP1.OP2.OP3 absorbed by OP1.OP2."""
        sop = SumOfProducts.of_terms([{1, 2}, {2, 5}])
        mapped = sop.map_literals(
            lambda config: {1: {1}, 2: {2}, 5: {1, 3}}[config]
        )
        assert mapped.terms == frozenset({term(1, 2)})

    def test_with_literals(self):
        sop = SumOfProducts.of_terms([{1, 3}, {2}])
        assert sop.with_literals({7, 70}).terms == frozenset(
            {term(1, 3, 7, 70), term(2, 7, 70)}
        )
        assert SumOfProducts.one().with_literals({4}).terms == frozenset(
            {term(4)}
        )
        assert SumOfProducts.zero().with_literals({4}).is_false

    def test_with_literals_rejects_shared_literal(self):
        # C1 + C2 times C2 is C2: appending would keep C1.C2 unabsorbed.
        # A broken invariant must not pass for an over-budget expansion,
        # which callers catch as OptimizationError and fall back from.
        with pytest.raises(ValueError, match="occur in no term") as info:
            SumOfProducts.of_terms([{1}, {2}]).with_literals({2})
        assert not isinstance(info.value, OptimizationError)

    def test_render(self):
        sop = SumOfProducts.of_terms([{2, 5}, {1, 2}])
        assert sop.render() == "C1.C2 + C2.C5"
        assert SumOfProducts.zero().render() == "0"

    def test_contains_raw_iterable(self):
        sop = SumOfProducts.of_terms([{1, 2}])
        assert {1, 2} in sop


class TestPetrickExpansion:
    def test_paper_biquad_expansion(self):
        """(C2)(C1+C4+C5)(C1+C5) -> C1.C2 + C2.C5 (paper §4.1)."""
        clauses = [{2}, {1, 4, 5}, {1, 5}]
        sop = expand_product_of_sums(clauses)
        assert sop.terms == frozenset({term(1, 2), term(2, 5)})

    def test_empty_clause_gives_false(self):
        assert expand_product_of_sums([{1}, set()]).is_false

    def test_no_clauses_gives_true(self):
        assert expand_product_of_sums([]).is_true

    def test_every_term_hits_every_clause(self):
        clauses = [{1, 2, 3}, {2, 4}, {3, 4, 5}, {1, 5}]
        sop = expand_product_of_sums(clauses)
        for t in sop.terms:
            for clause in clauses:
                assert t.literals & clause, (t, clause)

    def test_terms_are_irredundant(self):
        clauses = [{1, 2, 3}, {2, 4}, {3, 4, 5}, {1, 5}]
        sop = expand_product_of_sums(clauses)
        for t in sop.terms:
            for literal in t.literals:
                smaller = t.literals - {literal}
                hits_all = all(
                    smaller & clause for clause in clauses
                )
                assert not hits_all, f"{t} is redundant"

    def test_term_budget_enforced(self):
        clauses = [{2 * i, 2 * i + 1} for i in range(30)]
        with pytest.raises(OptimizationError, match="exceeded"):
            expand_product_of_sums(clauses, max_terms=100)

    def test_single_clause(self):
        sop = expand_product_of_sums([{7, 9}])
        assert sop.terms == frozenset({term(7), term(9)})
