"""The watched-literal propagator against the occurrence-scan reference.

Hypothesis builds random clause databases through interleaved adds,
removes and re-adds — units, empty and tautological clauses, duplicate
literals and variables beyond the declared range included — and asks both
engines to propagate random assumptions after every step. They must agree
on conflict, and every cone ``propagate_tracked`` returns must name only
live clauses that, loaded alone into a fresh reference engine under the
same assumptions, still conflict: backward DRAT marking is sound only if
the cone reproduces the conflict by itself. The cone, collected by one
backward walk of the trail, must also equal a depth-first search for the
reason closure over the same call's reasons.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.unitprop import UnitPropagator
from tests.checker.reference_unitprop import ReferencePropagator

MAX_VAR = 7

literals = st.integers(min_value=-MAX_VAR, max_value=MAX_VAR).filter(bool)
clause_lits = st.lists(literals, max_size=5)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), clause_lits),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("readd"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("propagate"), st.lists(literals, max_size=4)),
    ),
    max_size=40,
)


def _assert_cone_reproduces(engine, cone, assumptions):
    fresh = ReferencePropagator(MAX_VAR)
    for index in cone:
        clause = engine.clauses[index]
        assert clause is not None, f"cone names removed clause {index}"
        fresh.add_clause(clause)
    assert fresh.propagate(assumptions), (cone, assumptions)


def _check_agreement(engine, reference, assumptions):
    expected = reference.propagate(assumptions)
    assert engine.propagate(assumptions) == expected
    conflict, cone = engine.propagate_tracked(assumptions)
    assert conflict == expected
    if conflict:
        _assert_cone_reproduces(engine, cone, assumptions)
    else:
        assert cone == []


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=MAX_VAR), operations)
def test_watched_literals_match_the_reference(num_vars, ops):
    engine = UnitPropagator(num_vars)
    reference = ReferencePropagator(num_vars)
    removed: list[list[int]] = []
    for op, arg in ops:
        live = [i for i, clause in enumerate(reference.clauses) if clause is not None]
        if op == "add":
            assert engine.add_clause(arg) == reference.add_clause(arg)
        elif op == "remove" and live:
            index = live[arg % len(live)]
            removed.append(list(reference.clauses[index]))
            engine.remove_clause(index)
            reference.remove_clause(index)
            engine.remove_clause(index)  # a second removal is a no-op
        elif op == "readd" and removed:
            clause = removed.pop(arg % len(removed))
            assert engine.add_clause(clause) == reference.add_clause(clause)
        elif op == "propagate":
            _check_agreement(engine, reference, arg)
        for lit in (1, -1, MAX_VAR, -MAX_VAR):
            assert sorted(engine.occurrences(lit)) == sorted(reference.occurrences(lit))
    _check_agreement(engine, reference, [])
    assert engine.num_vars >= max(
        (abs(lit) for clause in reference.clauses for lit in clause or ()), default=0
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(literals, min_size=2, max_size=4), max_size=25),
    st.lists(st.lists(literals, max_size=4), min_size=1, max_size=8),
)
def test_repeated_calls_on_one_database(clauses, calls):
    # Watches moved by one call persist into the next; every call must
    # still see the same database the reference does.
    engine = UnitPropagator(MAX_VAR)
    reference = ReferencePropagator(MAX_VAR)
    for clause in clauses:
        engine.add_clause(clause)
        reference.add_clause(clause)
    for assumptions in calls:
        _check_agreement(engine, reference, assumptions)


def test_tautological_and_duplicate_clauses_never_propagate():
    engine = UnitPropagator(2)
    engine.add_clause([1, -1])
    engine.add_clause([2, 2, -2, 1])
    assert not engine.propagate([-1])
    assert not engine.propagate([1, -2])


def test_cone_of_unit_against_unit():
    engine = UnitPropagator(1)
    first = engine.add_clause([1])
    second = engine.add_clause([-1])
    assert engine.propagate_tracked([]) == (True, sorted([first, second]))


def test_cone_excludes_clauses_the_conflict_did_not_use():
    engine = UnitPropagator(4)
    engine.add_clause([-3, 4])  # propagates, but feeds nothing
    used = [engine.add_clause([-1, 2]), engine.add_clause([-2])]
    assert engine.propagate_tracked([1, 3]) == (True, used)


def test_assumptions_beyond_num_vars_grow_the_engine():
    engine = UnitPropagator(1)
    engine.add_clause([-1, 2])
    assert not engine.propagate([9, 1])
    assert engine.num_vars >= 9
    engine.add_clause([-9, -2])
    assert engine.propagate([9, 1])


def _dfs_cone(clauses, roots, reasons):
    """The reason closure as a depth-first search: the trail walk's oracle."""
    cone: set[int] = set()
    stack = list(roots)
    while stack:
        index = stack.pop()
        if index in cone:
            continue
        cone.add(index)
        for lit in clauses[index] or ():
            reason = reasons.get(-lit)
            if reason is not None and reason not in cone:
                stack.append(reason)
    return sorted(cone)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(literals, min_size=2, max_size=4), max_size=25),
    st.lists(literals, max_size=3),
    st.lists(st.permutations(range(1, MAX_VAR + 1)), min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=MAX_VAR, max_size=MAX_VAR),
    st.integers(min_value=0, max_value=MAX_VAR),
)
def test_trail_walk_cone_is_the_reason_closure(clauses, units, orders, signs, count):
    # Hypothesis draws the database's unit clauses and the order the
    # assumptions are given in; each call's cone must be the closure of
    # that call's roots over that call's reasons.
    engine = UnitPropagator(MAX_VAR)
    reference = ReferencePropagator(MAX_VAR)
    for clause in clauses + [[lit] for lit in units]:
        engine.add_clause(clause)
        reference.add_clause(clause)
    for order in orders:
        assumptions = [var if signs[var - 1] else -var for var in order[:count]]
        reasons: dict[int, int] = {}
        roots = engine._propagate(assumptions, reasons)
        assert (roots is not None) == reference.propagate(assumptions)
        if roots is None:
            continue
        cone = engine._conflict_cone(roots, reasons)
        assert cone == _dfs_cone(engine.clauses, roots, reasons)
        if cone:
            _assert_cone_reproduces(engine, cone, assumptions)


@settings(max_examples=200, deadline=None)
@given(operations, st.lists(clause_lits, max_size=6))
def test_the_occurrence_index_is_built_from_the_live_clauses(ops, later):
    # No occurrences() call until every op has run: the first call builds
    # the index, and adds and removes after it keep it exact.
    engine = UnitPropagator(MAX_VAR)
    for op, arg in ops:
        live = [i for i, clause in enumerate(engine.clauses) if clause is not None]
        if op in ("add", "propagate"):
            engine.add_clause(arg)
        elif live:
            engine.remove_clause(live[arg % len(live)])
    assert engine._occurrences is None
    for step in [None, *later]:
        if step is not None:
            engine.add_clause(step)
            live = [i for i, clause in enumerate(engine.clauses) if clause is not None]
            if len(live) > 1:
                engine.remove_clause(live[len(step) % len(live)])
        for lit in [lit for lit in range(-MAX_VAR, MAX_VAR + 1) if lit]:
            expected = [
                index
                for index, clause in enumerate(engine.clauses)
                if clause is not None and lit in clause
            ]
            assert list(engine.occurrences(lit)) == expected
