import hypothesis.strategies as st
from hypothesis import settings

from transfinite.notation import (
    Add, Hyper, LeftHyper, Mul, NaiveExt, NatLit, Omega, Pow, Synth,
)
from transfinite.ordinal import Ordinal, from_natural

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


def _build(exp_coeffs):
    # Deduplicate exponents, then sort them into canonical order.
    best = {}
    for exp, coeff in exp_coeffs:
        best[exp] = coeff
    terms = sorted(best.items(), key=lambda t: t[0], reverse=True)
    return Ordinal(terms)


def ordinals(depth: int = 3):
    """Strategy for canonical ordinals with nesting depth <= depth."""
    base = st.integers(min_value=0, max_value=9).map(from_natural)
    coeff = st.integers(min_value=1, max_value=9)

    def extend(children):
        return st.lists(st.tuples(children, coeff), min_size=1, max_size=3).map(_build)

    return st.recursive(base, extend, max_leaves=depth * 3)


def expr_trees(depth: int = 6):
    """Strategy for expression trees of all nine node types, depth <= depth."""
    index = st.integers(min_value=1, max_value=6)
    small = st.integers(min_value=0, max_value=12)
    trees = st.one_of(
        st.builds(NatLit, small), st.just(Omega()),
        st.builds(Hyper, index, small, small), st.builds(LeftHyper, index, small, small),
    )
    for _ in range(depth):
        trees = st.one_of(
            trees,
            *(st.builds(cls, trees, trees) for cls in (Add, Mul, Pow)),
            *(st.builds(cls, index, trees, trees) for cls in (Synth, NaiveExt)),
        )
    return trees
