"""Deterministic corpus builders shared by the test modules.

Everything here is seeded: the same call always yields the same list,
so failures replay and report bytes never drift.
"""
import random
from typing import List, Tuple

from transfinite.arithmetic import add, mul
from transfinite.errors import BudgetExceeded, NoPatternError, NotRepresentable
from transfinite.lub import LubInference
from transfinite.notation import (
    Add, Expr, Hyper, LeftHyper, Mul, NaiveExt, NatLit, Omega, Pow, Synth,
)
from transfinite.ordinal import (
    OMEGA, ONE, ZERO, Ordinal, _ord, cnf_height, compare, from_natural,
    fundamental_prefix, omega_power, successor,
)

W = OMEGA


def nat(k: int) -> Ordinal:
    return from_natural(k)


def repeated_term_count(x: Ordinal) -> int:
    """Number of unit terms when coefficients are expanded to repetition."""
    return sum(c for _, c in x.terms)


def coefficient_bits(x: Ordinal) -> int:
    """Largest bit length among all coefficients anywhere in the form."""
    return x._bits


def w_times_plus(a: int, b: int) -> Ordinal:
    """The ordinal w*a + b; covers everything below w^2."""
    return add(mul(W, nat(a)), nat(b))


def rand_below_w_w(rng: random.Random, max_exp: int = 5,
                   max_terms: int = 3, max_coeff: int = 4) -> Ordinal:
    """Random ordinal below w^w: all exponents are naturals."""
    count = rng.randint(0, max_terms)
    exps = rng.sample(range(max_exp + 1), min(count, max_exp + 1))
    terms = [(nat(e), rng.randint(1, max_coeff)) for e in sorted(exps, reverse=True)]
    return Ordinal(terms)


def rand_below_w_w2(rng: random.Random, max_terms: int = 2,
                    max_coeff: int = 3) -> Ordinal:
    """Random ordinal below w^(w^2): exponents have the shape w*a + b."""
    count = rng.randint(0, max_terms)
    pairs = set()
    while len(pairs) < count:
        pairs.add((rng.randint(0, 2), rng.randint(0, 2)))
    terms = [
        (w_times_plus(a, b), rng.randint(1, max_coeff))
        for a, b in sorted(pairs, reverse=True)
    ]
    return Ordinal(terms)


def pair_corpus_below_w_w2(count: int = 1000, seed: int = 20260818) -> List[Tuple[Ordinal, Ordinal]]:
    """The fixed operand-pair corpus used by the agreement suites."""
    rng = random.Random(seed)
    return [(rand_below_w_w2(rng), rand_below_w_w2(rng)) for _ in range(count)]


def ordinal_corpus_below_w_w(count: int = 500, seed: int = 977) -> List[Ordinal]:
    rng = random.Random(seed)
    seen = []
    have = set()
    while len(seen) < count:
        x = rand_below_w_w(rng)
        if x not in have:
            have.add(x)
            seen.append(x)
    return seen


def rand_tree(rng: random.Random, depth: int) -> Ordinal:
    """Random CNF tree with nesting depth up to `depth`."""
    if depth == 0 or rng.random() < 0.3:
        return nat(rng.randint(0, 9))
    count = rng.randint(1, 3)
    exps = []
    while len(exps) < count:
        e = rand_tree(rng, depth - 1)
        if all(compare(e, f) != 0 for f in exps):
            exps.append(e)
    exps.sort(reverse=True)
    return Ordinal([(e, rng.randint(1, 9)) for e in exps])


def reference_compare(x: Ordinal, y: Ordinal) -> int:
    """Three-way CNF comparison by a recursive term-by-term scan.

    The definition `compare` and the order operators are checked against:
    the first differing exponent decides, then the first differing
    coefficient, then the longer term list.
    """
    if x is y:
        return 0
    for (e1, c1), (e2, c2) in zip(x.terms, y.terms):
        c = reference_compare(e1, e2)
        if c != 0:
            return c
        if c1 != c2:
            return -1 if c1 < c2 else 1
    n1, n2 = len(x.terms), len(y.terms)
    if n1 == n2:
        return 0
    return -1 if n1 < n2 else 1


def reference_classify(samples) -> Tuple[Ordinal, LubInference]:
    """`classify_lub` with the rule search signalling failure by exception.

    The definition `classify_lub` is checked against: every window with
    no pattern raises NoPatternError, and a rule that catches it from its
    sub-inference gives way to the next rule.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise NoPatternError(f"need at least 3 samples, got {len(samples)}", samples)
    if samples[-1] == samples[-2] == samples[-3]:
        return max(samples), LubInference.CONSTANT_TAIL
    a, b, c = (cnf_height(s) for s in samples[-3:])
    if 0 < a < b < c:
        raise NotRepresentable(
            "samples climb a w-tower; the supremum is not below epsilon_0", samples
        )
    run = _increasing_tail(samples)
    value, rule = _raising_infer(run, samples)
    return max([value, *samples[: len(samples) - len(run)]]), rule


def _increasing_tail(samples):
    i = len(samples) - 1
    while i > 0 and samples[i - 1] < samples[i]:
        i -= 1
    return samples[i:]


def _common_term_prefix(run):
    # The first and last samples of a strictly increasing run agree
    # exactly where all samples do.
    first, last = run[0].terms, run[-1].terms
    for n, (a, b) in enumerate(zip(first, last)):
        if a != b:
            return first[:n]
    return first


def _raising_infer(run, trace):
    if run[0] is ZERO:
        run = run[1:]
    for start in range(len(run) - 2):
        try:
            return _raising_lub(run[start:], trace)
        except NoPatternError:
            continue
    raise NoPatternError("samples match no growth rule", trace)


def _raising_lub(run, trace):
    prefix = _common_term_prefix(run)
    if prefix:
        try:
            sub, _ = _raising_infer([_ord(s.terms[len(prefix):]) for s in run], trace)
        except NoPatternError:
            pass
        else:
            return add(_ord(prefix), sub), LubInference.PREFIX_PEEL
    exps = [s.terms[0][0] for s in run]
    if all(a < b for a, b in zip(exps, exps[1:])):
        try:
            sub, _ = _raising_infer(exps, trace)
        except NoPatternError:
            pass
        else:
            return omega_power(sub), LubInference.EXPONENT_GROWTH
    first_exp = run[0].terms[0][0]
    if all(s.terms[0][0] == first_exp for s in run):
        coeffs = [s.terms[0][1] for s in run]
        if all(a < b for a, b in zip(coeffs, coeffs[1:])):
            return omega_power(successor(first_exp)), LubInference.COEFFICIENT_GROWTH
    raise NoPatternError("samples match no growth rule", trace)


def reference_sample_and_infer(eval_at, lam, meter) -> Ordinal:
    """`sample_and_infer` as a plain loop over Ordinals, inferring through
    `reference_classify`, with the in-flight tower check re-reading the
    heights of the last four samples after every sample.

    The definition `sample_and_infer` is checked against: the same value,
    or the same exception with the same samples, the same work left on
    the meter, and the same points handed to eval_at.  As there, lam may
    be a tuple of what to hand eval_at instead of a limit.
    """
    if type(lam) is tuple:
        gammas = list(lam)
    else:
        gammas = [ZERO, ONE] + fundamental_prefix(lam, meter.budget.sup_samples)
    samples = []
    cut = None
    for g in gammas:
        work = meter.work
        try:
            samples.append(eval_at(g))
        except BudgetExceeded as err:
            meter.work = work
            if len(samples) < 3:
                raise
            cut = err
            break
        if len(samples) >= 6 and _tower_preview(samples):
            reference_classify(samples)  # raises NotRepresentable
    try:
        return reference_classify(samples)[0]
    except NotRepresentable:
        if cut is None:
            raise
    except NoPatternError as err:
        if cut is None:
            rendered = ", ".join(str(s) for s in samples)
            raise BudgetExceeded(
                f"no growth rule matched after {len(samples)} samples: [{rendered}]",
                samples,
            ) from err
    raise cut


def _tower_preview(samples) -> bool:
    # Four climbing heights make the tower test of the last three fire.
    a, b, c, d = map(cnf_height, samples[-4:])
    return a < b < c < d


def tree_corpus(count: int = 10000, depth: int = 3, seed: int = 4242) -> List[Ordinal]:
    rng = random.Random(seed)
    return [rand_tree(rng, depth) for _ in range(count)]


# Binding strength of each infix node; every other node is an atom.
_INFIX = {Add: (1, "+"), Mul: (2, "*"), Pow: (3, "^")}
_CALLS = {Hyper: "H", LeftHyper: "L", Synth: "S", NaiveExt: "N"}


def render_expr(node: Expr, minimal: bool = False) -> str:
    """Text that parses back to `node`: every infix node in parentheses,
    or with `minimal` only the parentheses that precedence needs."""
    if isinstance(node, NatLit):
        return str(node.value)
    if isinstance(node, Omega):
        return "w"
    if type(node) not in _INFIX:
        fields = [render_expr(f, minimal) if isinstance(f, tuple) else str(f) for f in node]
        return "{}({})".format(_CALLS[type(node)], ",".join(fields))
    binds, symbol = _INFIX[type(node)]
    # "+" and "*" group to the left and "^" to the right: only the operand
    # on the grouping side may bind as loosely as the node itself.
    floors = (binds + 1, binds) if type(node) is Pow else (binds, binds + 1)
    parts = []
    for operand, floor in zip(node, floors):
        text = render_expr(operand, minimal)
        if minimal and _INFIX.get(type(operand), (floor,))[0] < floor:
            text = f"({text})"
        parts.append(text)
    text = symbol.join(parts)
    return text if minimal else f"({text})"
