"""Minimal boolean algebra for the covering formulation.

The fundamental requirement of §4.1 is written as a product-of-sums

.. math:: ξ = \\prod_{f_j} \\Big( \\sum_{C_i} d_{ij}\\,C_i \\Big)

whose expansion into an (absorbed) sum-of-products enumerates every
*irredundant* configuration set that maintains the maximum fault coverage.
This module provides the two value types used throughout the optimization
layer:

* :class:`ProductTerm` — a conjunction of positive literals (a set of
  configuration indices, or of opamp positions after the §4.3 mapping);
* :class:`SumOfProducts` — a set of product terms kept minimal under the
  absorption law ``X + X·Y = X``.

Literals are non-negative integers; rendering to ``C1.C2`` / ``OP1.OP2``
strings is a display concern handled by the ``render`` helpers.  The
algebra works on terms packed into Python-int bitmasks (bit ``i`` set ⇔
literal ``i`` present, so ``a ⊆ b ⇔ a & b == a`` at any literal size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List

from ..errors import OptimizationError

#: Petrick term budget of every expansion entry point
MAX_TERMS = 2_000_000


def _nonnegative(literals: FrozenSet[int]) -> FrozenSet[int]:
    if literals and min(literals) < 0:
        raise OptimizationError(
            f"negative literal {min(literals)}: literals are "
            "configuration indices or opamp positions"
        )
    return literals


@dataclass(frozen=True)
class ProductTerm:
    """Conjunction of positive literals, e.g. ``C2·C5``."""

    literals: FrozenSet[int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "literals", _nonnegative(frozenset(self.literals))
        )

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.literals))

    def __contains__(self, literal: int) -> bool:
        return literal in self.literals

    def absorbs(self, other: "ProductTerm") -> bool:
        """True when this term absorbs ``other`` (X absorbs X·Y)."""
        return self.literals <= other.literals

    def union(self, other: "ProductTerm") -> "ProductTerm":
        return ProductTerm(self.literals | other.literals)

    def with_literal(self, literal: int) -> "ProductTerm":
        return ProductTerm(self.literals | {literal})

    def map(self, f: Callable[[int], Iterable[int]]) -> "ProductTerm":
        """Substitute each literal by a set of literals (Table 3 mapping)."""
        mapped: set = set()
        for literal in self.literals:
            mapped.update(f(literal))
        return ProductTerm(frozenset(mapped))

    def render(self, prefix: str = "C") -> str:
        if not self.literals:
            return "1"
        return ".".join(f"{prefix}{i}" for i in sorted(self.literals))

    def __repr__(self) -> str:
        return f"ProductTerm({self.render()})"


def _mask(literals: Iterable[int]) -> int:
    mask = 0
    for literal in literals:
        mask |= 1 << literal
    return mask


def _term(mask: int) -> ProductTerm:
    literals = []
    while mask:
        low = mask & -mask
        literals.append(low.bit_length() - 1)
        mask ^= low
    return ProductTerm(frozenset(literals))


def _minimal(masks: Iterable[int]) -> List[int]:
    """The masks no other mask is a subset of (absorption on bitmasks).

    Visits the distinct masks smallest first and files each kept mask
    under its lowest literal.  A kept mask that absorbs a candidate has
    its lowest literal in the candidate, so a candidate is compared only
    with the kept masks filed under its own literals.
    """
    by_size = sorted(set(masks), key=lambda mask: bin(mask).count("1"))
    if by_size and by_size[0] == 0:
        return [0]  # the empty product absorbs every term
    kept: List[int] = []
    filed: Dict[int, List[int]] = {}
    for mask in by_size:
        rest = mask
        while rest:
            low = rest & -rest
            if any(s & mask == s for s in filed.get(low, ())):
                break
            rest ^= low
        else:
            kept.append(mask)
            filed.setdefault(mask & -mask, []).append(mask)
    return kept


def _and_clause(masks: List[int], clause: FrozenSet[int]) -> List[int]:
    """Minimal sum of products ``masks`` times ``Σ clause``, still minimal.

    A term that already hits the clause is kept unchanged: every product
    it makes contains it.  Every other term ``t`` is extended by each
    clause literal ``c``, and ``t·c`` is dropped only when a kept term
    ``s ∋ c`` has ``s∖{c} ⊆ t``.  Nothing else can absorb: ``t·c ⊆ t'·c'``
    forces ``c = c'`` and ``t ⊆ t'``, so ``t = t'`` in a minimal sum, and
    ``t·c ⊆ s`` would put ``t`` inside ``s``.  Only kept terms that meet
    the clause in the single literal ``c`` qualify; they are filed by the
    lowest literal of ``s∖{c}``.
    """
    clause_mask = _mask(clause)
    bits = [1 << literal for literal in clause]
    products: List[int] = []
    extend: List[int] = []
    blocks_all = 0  # literals c with {c} itself a term
    blockers: Dict[int, Dict[int, int]] = {}  # low bit -> {s∖{c}: c bits}
    for mask in masks:
        hit = mask & clause_mask
        if not hit:
            extend.append(mask)
            continue
        products.append(mask)
        if hit & (hit - 1):
            continue  # meets the clause twice: absorbs no new product
        rest = mask ^ hit
        if rest:
            filed = blockers.setdefault(rest & -rest, {})
            filed[rest] = filed.get(rest, 0) | hit
        else:
            blocks_all |= hit
    for mask in extend:
        blocked = blocks_all
        rest = mask
        while rest:
            low = rest & -rest
            for residual, hit in blockers.get(low, {}).items():
                if residual & mask == residual:
                    blocked |= hit
            rest ^= low
        products.extend(mask | bit for bit in bits if not bit & blocked)
    return products


@dataclass(frozen=True)
class SumOfProducts:
    """Disjunction of product terms, minimal under absorption."""

    terms: FrozenSet[ProductTerm]

    def __post_init__(self) -> None:
        by_mask = {_mask(term.literals): term for term in self.terms}
        object.__setattr__(
            self, "terms", frozenset(by_mask[m] for m in _minimal(by_mask))
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of_minimal(cls, terms: Iterable[ProductTerm]) -> "SumOfProducts":
        """Wrap terms already minimal under absorption (no pass runs)."""
        sop = object.__new__(cls)
        object.__setattr__(sop, "terms", frozenset(terms))
        return sop

    @staticmethod
    def one() -> "SumOfProducts":
        """The identity of conjunction: a single empty product (true)."""
        return SumOfProducts(frozenset({ProductTerm(frozenset())}))

    @staticmethod
    def zero() -> "SumOfProducts":
        """The empty sum (false) — an unsatisfiable cover."""
        return SumOfProducts(frozenset())

    @staticmethod
    def of_terms(terms: Iterable[Iterable[int]]) -> "SumOfProducts":
        return SumOfProducts(
            frozenset(ProductTerm(frozenset(t)) for t in terms)
        )

    @staticmethod
    def clause(literals: Iterable[int]) -> "SumOfProducts":
        """A sum of single-literal terms: ``(C1 + C4 + C5)``."""
        return SumOfProducts(
            frozenset(ProductTerm(frozenset({lit})) for lit in literals)
        )

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[ProductTerm]:
        return iter(self.sorted_terms())

    def __contains__(self, term: object) -> bool:
        if isinstance(term, ProductTerm):
            return term in self.terms
        return ProductTerm(frozenset(term)) in self.terms  # type: ignore[arg-type]

    @property
    def is_false(self) -> bool:
        return not self.terms

    @property
    def is_true(self) -> bool:
        return any(len(t) == 0 for t in self.terms)

    def sorted_terms(self) -> List[ProductTerm]:
        """Terms sorted by size then lexicographically — stable output."""
        return sorted(self.terms, key=lambda t: (len(t), sorted(t.literals)))

    def minimal_terms(self) -> List[ProductTerm]:
        """All terms of minimum cardinality (the 2nd-order candidates)."""
        if not self.terms:
            return []
        smallest = min(len(t) for t in self.terms)
        return [t for t in self.sorted_terms() if len(t) == smallest]

    # -- algebra ----------------------------------------------------------
    def or_with(self, other: "SumOfProducts") -> "SumOfProducts":
        return SumOfProducts(self.terms | other.terms)

    def and_with(self, other: "SumOfProducts") -> "SumOfProducts":
        """Distribute the conjunction and re-absorb.

        The generic product, for factors with multi-literal terms (the
        n-detection factors); single-literal clauses go through
        :func:`expand_product_of_sums`.
        """
        left = [_mask(t.literals) for t in self.terms]
        right = [_mask(t.literals) for t in other.terms]
        return SumOfProducts._of_minimal(
            map(_term, _minimal(a | b for a in left for b in right))
        )

    def with_literals(self, literals: Iterable[int]) -> "SumOfProducts":
        """Conjunction with the single product of ``literals``.

        The literals must occur in no term (ξ_ess · ξ_compl: the
        reduced problem holds no essential configuration).  Adding the
        same disjoint literals to every term of a minimal sum keeps it
        minimal, so no absorption runs.  A shared literal is a broken
        invariant, not an unsolvable instance, so it raises
        :class:`ValueError` rather than :class:`OptimizationError`.
        """
        extra = frozenset(literals)
        if any(not term.literals.isdisjoint(extra) for term in self.terms):
            raise ValueError(
                "with_literals needs literals that occur in no term"
            )
        return SumOfProducts._of_minimal(
            ProductTerm(t.literals | extra) for t in self.terms
        )

    def map_literals(
        self, f: Callable[[int], Iterable[int]]
    ) -> "SumOfProducts":
        """Apply a literal substitution to every term (ξ → ξ*)."""
        return SumOfProducts(frozenset(t.map(f) for t in self.terms))

    def render(self, prefix: str = "C") -> str:
        if self.is_false:
            return "0"
        return " + ".join(t.render(prefix) for t in self.sorted_terms())

    def __repr__(self) -> str:
        return f"SumOfProducts({self.render()})"


def expand_product_of_sums(
    clauses: Iterable[Iterable[int]],
    max_terms: int = MAX_TERMS,
) -> SumOfProducts:
    """Petrick expansion: multiply out a product of positive clauses.

    Each clause step keeps the running sum minimal without an
    absorption pass (see :func:`_and_clause`).

    Parameters
    ----------
    clauses:
        Each clause is an iterable of literals (an OR of configurations).
        An empty clause makes the product unsatisfiable.
    max_terms:
        Safety valve against exponential blow-up; exceeded size raises
        :class:`OptimizationError` (use the branch-and-bound cover
        instead for such instances).
    """
    masks = [0]  # the empty product: true
    # Multiplying small clauses first keeps intermediate SOPs tighter.
    clause_list = sorted(
        (_nonnegative(frozenset(c)) for c in clauses), key=len
    )
    for clause in clause_list:
        if not clause:
            return SumOfProducts.zero()
        # Guard BEFORE distributing: the raw product size bounds the
        # step's work and output.
        if len(masks) * len(clause) > max_terms:
            raise OptimizationError(
                f"Petrick expansion exceeded {max_terms} terms; "
                "use branch_and_bound_cover for this instance"
            )
        masks = _and_clause(masks, clause)
        if len(masks) > max_terms:
            raise OptimizationError(
                f"Petrick expansion exceeded {max_terms} terms; "
                "use branch_and_bound_cover for this instance"
            )
    return SumOfProducts._of_minimal(map(_term, masks))
