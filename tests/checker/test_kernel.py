"""The resolution kernel against the frozenset oracle, plus its clause type.

The kernel (:mod:`repro.checker.kernel`) must be *observationally identical*
to the paper's frozenset fold: same resolvents, same ``BAD_RESOLUTION``
failures, same error context — on valid chains, zero-clash and multi-clash
failures, duplicate literals and tautological inputs alike. Hypothesis
drives the equivalence over random chains; deterministic cases pin the
interesting corners.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.kernel import (
    FrozenClause,
    KernelEngine,
    ReferenceEngine,
    ResolutionKernel,
    make_engine,
)
from repro.checker.resolution import ResolutionError, resolve, resolve_chain
from repro.cnf import CnfFormula

literals = st.integers(min_value=-6, max_value=6).filter(lambda lit: lit != 0)
clauses = st.lists(literals, min_size=1, max_size=6)
chains = st.lists(clauses, min_size=1, max_size=6)


def _oracle_outcome(chain, learned_cid=99):
    pairs = [(cid, frozenset(lits)) for cid, lits in enumerate(chain, start=1)]
    try:
        return ("ok", resolve_chain(pairs, learned_cid=learned_cid))
    except ResolutionError as exc:
        return ("err", exc.context)


def _kernel_outcome(chain, learned_cid=99, raw_sources=False, plain=None):
    """``plain``, when given, marks per position which sources are plain
    tuples (duplicates kept) rather than kernel clauses."""
    kernel = ResolutionKernel(num_vars=8)
    if raw_sources:
        table = {cid: list(lits) for cid, lits in enumerate(chain, start=1)}
    elif plain is not None:
        table = {
            cid: tuple(lits) if is_plain else kernel.freeze(lits)
            for cid, (lits, is_plain) in enumerate(zip(chain, plain), start=1)
        }
    else:
        table = {cid: kernel.freeze(lits) for cid, lits in enumerate(chain, start=1)}
    sources = tuple(range(1, len(chain) + 1))
    try:
        result = kernel.resolve_chain(learned_cid, sources, table.__getitem__)
        return ("ok", result)
    except ResolutionError as exc:
        return ("err", exc.context)


def _assert_equivalent(chain, raw_sources=False, plain=None):
    oracle_kind, oracle_value = _oracle_outcome(chain)
    kernel_kind, kernel_value = _kernel_outcome(
        chain, raw_sources=raw_sources, plain=plain
    )
    assert kernel_kind == oracle_kind, (chain, oracle_value, kernel_value)
    if oracle_kind == "ok":
        assert frozenset(kernel_value) == oracle_value
        assert type(kernel_value) is FrozenClause
        assert kernel_value.negset == {-lit for lit in kernel_value}
    else:
        for key in ("learned_cid", "chain_position", "cid_b"):
            assert kernel_value.get(key) == oracle_value.get(key), (chain, key)
        assert kernel_value.get("clashing_vars") == oracle_value.get("clashing_vars")


@given(chains)
@settings(max_examples=300)
def test_chain_equivalence_on_random_chains(chain):
    _assert_equivalent(chain)


@given(chains)
@settings(max_examples=150)
def test_chain_equivalence_with_uninterned_sources(chain):
    # get_clause may hand the kernel plain lists (no negation sets);
    # the fallback path must keep the exact oracle semantics.
    _assert_equivalent(chain, raw_sources=True)


mixed_chains = st.lists(st.tuples(clauses, st.booleans()), min_size=1, max_size=6)


@given(mixed_chains)
@settings(max_examples=300)
def test_chain_equivalence_on_mixed_interned_and_plain_sources(mixed):
    # The streaming checker hands the kernel original clauses as the
    # formula's plain tuples, next to frozen learned clauses; each
    # position here is independently one or the other.
    chain = [lits for lits, _ in mixed]
    _assert_equivalent(chain, plain=[is_plain for _, is_plain in mixed])


def test_valid_chain_matches_oracle():
    chain = [[1, 2], [-1, 3], [-2, 4]]
    kind, value = _kernel_outcome(chain)
    assert kind == "ok"
    assert list(value) == [3, 4]


def test_zero_clash_chain_reports_position_and_source():
    kind, context = _kernel_outcome([[1, 2], [1, 3]])
    assert kind == "err"
    assert context["learned_cid"] == 99
    assert context["chain_position"] == 1
    assert context["cid_b"] == 2
    assert context["clashing_vars"] == []


def test_multi_clash_chain_matches_oracle():
    _assert_equivalent([[1, 2], [-1, -2]])


def test_failure_mid_chain_carries_the_right_position():
    kind, context = _kernel_outcome([[1, 2], [-1, 3], [5, 6]])
    assert kind == "err"
    assert context["chain_position"] == 2
    assert context["cid_b"] == 3


def test_tautological_source_resolves_like_the_oracle():
    # B contains both phases of the pivot variable; only the literal whose
    # negation is in the accumulator clashes.
    _assert_equivalent([[1, 2], [-1, 1, 3]])
    _assert_equivalent([[-1, 2], [-1, 1, 3]])


def test_tautological_accumulator_double_clash():
    # The accumulator carries both phases of var 1 into a clause holding
    # both phases too: two clashes, exactly as the oracle counts them.
    _assert_equivalent([[1, -1, 2], [1, -1]])


def test_duplicate_literals_do_not_double_count_clashes():
    _assert_equivalent([[1, 2], [-1, -1, 3]])


def test_empty_chain_raises():
    kernel = ResolutionKernel(num_vars=4)
    with pytest.raises(ResolutionError):
        kernel.resolve_chain(7, (), lambda cid: [1])


def test_kernel_grows_past_initial_capacity():
    kernel = ResolutionKernel(num_vars=1)
    table = {1: kernel.freeze([100, 2]), 2: kernel.freeze([-100, 3])}
    result = kernel.resolve_chain(9, (1, 2), table.__getitem__)
    assert list(result) == [2, 3]


pairs = st.tuples(clauses, clauses)


@given(pairs)
@settings(max_examples=200)
def test_single_step_resolve_matches_oracle(pair):
    clause_a, clause_b = pair
    kernel = ResolutionKernel(num_vars=8)
    try:
        expected = ("ok", resolve(frozenset(clause_a), frozenset(clause_b)))
    except ResolutionError as exc:
        expected = ("err", exc.context.get("clashing_vars"))
    try:
        got = kernel.resolve(clause_a, clause_b, cid_a=1, cid_b=2)
        assert expected[0] == "ok"
        assert frozenset(got) == expected[1]
        assert list(got) == sorted(got)
    except ResolutionError as exc:
        assert expected[0] == "err"
        assert exc.context.get("clashing_vars") == expected[1]
        assert exc.context.get("cid_a") == 1 and exc.context.get("cid_b") == 2


# -- the clause type -----------------------------------------------------------


def test_interned_clause_carries_cached_mark_sets():
    clause = ResolutionKernel(num_vars=8).freeze([2, -5, 7, 2])
    assert isinstance(clause, FrozenClause)
    assert clause == frozenset({2, -5, 7})
    assert clause.negset == frozenset({-2, 5, -7})


def test_interned_clause_survives_pickling_without_mark_sets():
    # The negation set crosses a pickle with the clause, so the kernel
    # resolves an unpickled clause on its set path.
    kernel = ResolutionKernel(num_vars=4)
    clause = pickle.loads(pickle.dumps(kernel.freeze([1, 2])))
    assert isinstance(clause, FrozenClause)
    assert clause == frozenset({1, 2})
    assert clause.negset == frozenset({-1, -2})
    table = {1: clause, 2: kernel.freeze([-1, 3])}
    assert kernel.resolve_chain(5, (1, 2), table.__getitem__) == frozenset({2, 3})


# -- engines -----------------------------------------------------------------


def _tiny_formula():
    return CnfFormula(3, [[1, 2], [-1, 3]])


def test_make_engine_selects_kernel_or_reference():
    assert isinstance(make_engine(True, _tiny_formula()), KernelEngine)
    assert isinstance(make_engine(False, _tiny_formula()), ReferenceEngine)


def test_engines_agree_on_chain_and_materialization():
    formula = _tiny_formula()
    kernel, reference = KernelEngine(formula), ReferenceEngine(formula)
    for engine in (kernel, reference):
        assert frozenset(engine.original(1)) == frozenset({1, 2})
    chain_k = kernel.chain(9, (1, 2), kernel.original)
    chain_r = reference.chain(9, (1, 2), reference.original)
    assert frozenset(chain_k) == chain_r == frozenset({2, 3})


def test_engine_original_rejects_unknown_cid():
    from repro.checker.errors import CheckFailure

    engine = KernelEngine(_tiny_formula())
    with pytest.raises(CheckFailure):
        engine.original(17)
