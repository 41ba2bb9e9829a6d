"""The resolution kernel against the frozenset oracle, plus the clause store.

The kernel (:mod:`repro.checker.kernel`) must be *observationally identical*
to the paper's frozenset fold: same resolvents, same ``BAD_RESOLUTION``
failures, same error context — on valid chains, zero-clash and multi-clash
failures, duplicate literals and tautological inputs alike. Hypothesis
drives the equivalence over random chains; deterministic cases pin the
interesting corners.
"""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.kernel import (
    KernelEngine,
    ReferenceEngine,
    ResolutionKernel,
    make_engine,
)
from repro.checker.resolution import ResolutionError, resolve, resolve_chain
from repro.checker.store import ClauseStore, InternedClause
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


def _kernel_outcome(chain, learned_cid=99, raw_sources=False):
    kernel = ResolutionKernel(num_vars=8)
    if raw_sources:
        table = {cid: list(lits) for cid, lits in enumerate(chain, start=1)}
    else:
        table = {cid: kernel.intern(lits) for cid, lits in enumerate(chain, start=1)}
    sources = tuple(range(1, len(chain) + 1))
    try:
        result = kernel.resolve_chain(learned_cid, sources, table.__getitem__)
        return ("ok", result)
    except ResolutionError as exc:
        return ("err", exc.context)


def _assert_equivalent(chain, raw_sources=False):
    oracle_kind, oracle_value = _oracle_outcome(chain)
    kernel_kind, kernel_value = _kernel_outcome(chain, raw_sources=raw_sources)
    assert kernel_kind == oracle_kind, (chain, oracle_value, kernel_value)
    if oracle_kind == "ok":
        assert frozenset(kernel_value) == oracle_value
        out = list(kernel_value)
        assert out == sorted(out) and len(out) == len(set(out))
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
    # get_clause may hand the kernel plain lists (no cached mark sets);
    # the fallback path must keep the exact oracle semantics.
    _assert_equivalent(chain, raw_sources=True)


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
    table = {1: kernel.intern([100, 2]), 2: kernel.intern([-100, 3])}
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


# -- the interning store -----------------------------------------------------


def test_store_interns_duplicates_to_one_buffer():
    store = ClauseStore()
    a = store.intern([3, 1, -2])
    b = store.intern([-2, 1, 3, 1])
    assert a is b
    assert list(a) == [-2, 1, 3]
    assert store.hits == 1 and store.misses == 1
    assert len(store) == 1
    assert store.resident_references == 2


def test_store_release_evicts_at_zero_references():
    store = ClauseStore()
    clause = store.intern([1, 2])
    store.intern([1, 2])
    store.release(clause)
    assert len(store) == 1  # one reference still held
    store.release(clause)
    assert len(store) == 0
    assert clause not in store


def test_store_release_is_noop_for_foreign_clauses():
    store = ClauseStore()
    store.release(frozenset({1, 2}))  # reference-engine clause: ignored
    store.release(array("i", [1, 2]))  # never interned: ignored
    assert len(store) == 0


def test_store_reports_real_memory_and_stats():
    store = ClauseStore()
    store.intern([1, 2, 3])
    stats = store.stats()
    assert stats["unique_clauses"] == 1
    assert stats["resident_references"] == 1
    assert stats["misses"] == 1
    assert stats["memory_bytes"] > 0
    store.intern([4])
    assert store.memory_bytes() > stats["memory_bytes"]


def test_interned_clause_carries_cached_mark_sets():
    store = ClauseStore()
    clause = store.intern([2, -5, 7])
    assert isinstance(clause, InternedClause)
    assert clause.litset == frozenset({2, -5, 7})
    assert clause.negset == frozenset({-2, 5, -7})


def test_interned_clause_survives_pickling_without_mark_sets():
    # array subclasses pickle their buffer but drop slot attributes; the
    # kernel must still resolve with such a clause via the fallback path.
    store = ClauseStore()
    clause = pickle.loads(pickle.dumps(store.intern([1, 2])))
    assert isinstance(clause, InternedClause)
    assert list(clause) == [1, 2]
    kernel = ResolutionKernel(num_vars=4)
    table = {1: clause, 2: kernel.intern([-1, 3])}
    assert list(kernel.resolve_chain(5, (1, 2), table.__getitem__)) == [2, 3]


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
