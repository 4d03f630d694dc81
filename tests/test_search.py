import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from sgpoidkit import (
    NC,
    UNSET,
    CompositionTable,
    ConfigurationError,
    Problem,
    associative_table_orbits,
    enumerate_associative_tables,
    find_morphisms,
    genrep,
    infer_types,
    minimal_representation,
    search,
    solve_all,
    solve_first,
)
from sgpoidkit.catalog import two_type_six_arrow


def test_empty_problem_has_one_empty_solution():
    assert list(solve_all(Problem())) == [()]


def test_all_different_two_binary_variables():
    problem = Problem()
    problem.add_variable(0, [0, 1])
    problem.add_variable(1, [0, 1])
    problem.add_all_different([0, 1])
    assert list(solve_all(problem)) == [(0, 1), (1, 0)]


def test_domain_filtering():
    problem = Problem()
    problem.add_variable(0, [0, 1, 2])
    problem.add_relation([0], lambda v: v != 1)
    assert [s[0] for s in solve_all(problem)] == [0, 2]


def test_empty_domain_is_unsatisfiable():
    problem = Problem()
    problem.add_variable(0, [])
    assert solve_first(problem) is None


def test_solve_first_returns_lexicographic_first():
    problem = Problem()
    problem.add_variable(0, [0, 1])
    problem.add_variable(1, [0, 1])
    problem.add_all_different([0, 1])
    assert solve_first(problem) == (0, 1)


def test_unknown_watched_variable_rejected():
    for ghost in [1, -1, "ghost", True, None]:
        problem = Problem()
        problem.add_variable(0, [0])
        problem.add_constraint([ghost], lambda bound: True)
        with pytest.raises(ConfigurationError, match="unknown variable"):
            list(solve_all(problem))


def test_duplicate_variable_rejected():
    problem = Problem()
    problem.add_variable(0, [0])
    with pytest.raises(ConfigurationError):
        problem.add_variable(0, [1])


@pytest.mark.parametrize(
    "declared, var",
    [([], 1), ([], "a"), ([], True), ([], False), ([0], 2), ([0, 1], 1)],
    ids=["skips-0", "string", "true", "false", "skips-1", "duplicate"],
)
def test_variables_must_be_the_next_int(declared, var):
    problem = Problem()
    for v in declared:
        problem.add_variable(v, [0])
    with pytest.raises(ConfigurationError, match=re.escape(f"variable {var!r} is not")):
        problem.add_variable(var, [1])
    assert problem.domains == [[0]] * len(declared)


def test_none_is_not_a_domain_value():
    # None marks an unbound variable in the assignment.
    problem = Problem()
    with pytest.raises(ConfigurationError, match="None"):
        problem.add_variable(0, [0, None])


def test_early_termination_is_supported():
    problem = Problem()
    for i in range(8):
        problem.add_variable(i, [0, 1])
    stream = solve_all(problem)
    assert next(stream) == (0,) * 8
    stream.close()


def test_determinism_across_runs():
    problem = Problem()
    problem.add_variable(0, [2, 0, 1])
    problem.add_variable(1, [1, 0])
    problem.add_relation([0, 1], lambda x, y: x != y)
    first = list(solve_all(problem))
    second = list(solve_all(problem))
    assert first == second
    # Value order follows domain order, not numeric order.
    assert first[0] == (2, 1)


def _random_problem(domain_sizes, relations):
    problem = Problem()
    for i, size in enumerate(domain_sizes):
        problem.add_variable(i, range(size))
    for (i, j), allowed in relations:
        problem.add_relation([i, j], lambda x, y, allowed=allowed: (x, y) in allowed)
    return problem


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_cartesian_filter(data):
    k = data.draw(st.integers(min_value=1, max_value=3, ))
    domain_sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k)
    )
    pair_count = data.draw(st.integers(min_value=0, max_value=3))
    relations = []
    for _ in range(pair_count):
        i = data.draw(st.integers(min_value=0, max_value=k - 1))
        j = data.draw(st.integers(min_value=0, max_value=k - 1))
        if i == j:
            continue
        pairs = list(itertools.product(range(domain_sizes[i]), range(domain_sizes[j])))
        allowed = frozenset(
            p for p in pairs if data.draw(st.booleans())
        )
        relations.append(((i, j), allowed))

    expected = []
    for values in itertools.product(*(range(s) for s in domain_sizes)):
        if all(
            (values[i], values[j]) in allowed for (i, j), allowed in relations
        ):
            expected.append(values)

    assert list(solve_all(_random_problem(domain_sizes, relations))) == expected


def _waiting_test(watches, func):
    # Waits on each unbound variable of ``watches`` in turn.
    def test(bound):
        for w in watches:
            if bound[w] is None:
                return w
        return func(*(bound[w] for w in watches))

    return test


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_waiting_constraints_match_static_watches(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    domain_sizes = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k)
    )
    constraints = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        watches = data.draw(
            st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True)
        )
        tuples = list(itertools.product(*(range(domain_sizes[w]) for w in watches)))
        allowed = frozenset(t for t in tuples if data.draw(st.booleans()))
        # How the waiting form is posted: no watch, or its first variable.
        posted = data.draw(st.sampled_from(["none", "first"]))
        constraints.append((watches, allowed, posted))

    def build(waiting):
        problem = Problem()
        for i, size in enumerate(domain_sizes):
            problem.add_variable(i, range(size))
        for watches, allowed, posted in constraints:
            def func(*values, allowed=allowed):
                return values in allowed

            if waiting:
                test = _waiting_test(watches, func)
                problem.add_constraint([] if posted == "none" else watches[:1], test)
            else:
                problem.add_relation(watches, func)
        return problem

    expected = [
        values
        for values in itertools.product(*(range(s) for s in domain_sizes))
        if all(
            tuple(values[w] for w in watches) in allowed
            for watches, allowed, _ in constraints
        )
    ]
    for waiting in (False, True):
        assert list(solve_all(build(waiting))) == expected


def _rejects_answer(answer, watches):
    # The test gives its answer once, then True: a solver that took the
    # answer as a wait would end without an error.
    answers = iter([answer])
    problem = Problem()
    problem.add_variable(0, [0, 1])
    problem.add_variable(1, [0, 1])
    problem.add_constraint(watches, lambda bound: next(answers, True))
    with pytest.raises(ConfigurationError, match=re.escape(f"returned {answer!r}, not True")):
        list(solve_all(problem))


def test_waiting_on_an_unknown_variable_is_rejected():
    # -1 would otherwise read the last variable.  An unwatched test is
    # first run before any variable is bound, a watched one after.
    for answer in ["ghost", 2, -1]:
        for watches in ([], [0]):
            _rejects_answer(answer, watches)


@pytest.mark.parametrize("watches", [[], [0]], ids=["unwatched", "watched"])
@pytest.mark.parametrize("answer", [[1], None, "1", 1.0, 0.5], ids=repr)
def test_answers_that_are_not_variables_are_rejected(answer, watches):
    # Only True, False and an unbound variable 0..N-1 are answers.
    _rejects_answer(answer, watches)


def test_waiting_on_a_bound_variable_is_rejected():
    problem = Problem()
    problem.add_variable(0, [0, 1])
    problem.add_variable(1, [0, 1])
    problem.add_constraint([1], lambda bound: 0)
    with pytest.raises(ConfigurationError, match="returned 0, not True"):
        list(solve_all(problem))


def test_waiting_on_int_variable_zero():
    # An unwatched test runs before any variable is bound.  Its answer 0
    # waits on variable 0 rather than failing, and its answer 1, once
    # variable 0 is bound, is variable 1, not True.
    problem = Problem()
    problem.add_variable(0, [0, 1, 2])
    problem.add_variable(1, [0, 1, 2])
    answers = []

    def test(bound):
        if bound[0] is None:
            answer = 0
        elif bound[1] is None:
            answer = 1
        else:
            answer = bound[0] + bound[1] == 2
        answers.append(answer)
        return answer

    problem.add_constraint([], test)
    assert list(solve_all(problem)) == [(0, 2), (1, 1), (2, 0)]
    assert answers[:2] == [0, 1]
    assert False in answers

    problem = Problem()
    problem.add_variable(0, [0, 1])
    problem.add_variable(1, [0, 1])
    problem.add_constraint([0], lambda bound: 1 if bound[1] is None else bound[1] != bound[0])
    assert list(solve_all(problem)) == [(0, 1), (1, 0)]


def test_relation_results_are_read_as_bools():
    # A relation's predicate may return any truthy or falsy value; it is
    # never read as a variable to wait on.
    problem = Problem()
    problem.add_variable(0, [0, 1, 2])
    problem.add_relation([0], lambda v: v % 2)
    assert list(solve_all(problem)) == [(1,)]


def test_moves_are_undone_on_backtrack():
    # The constraint is set off by x and then waits on y.  Undoing the move
    # before the next value of x keeps it on y's watch list once.  So per
    # value of x it is tested once when x is bound, once per value of y
    # when forward checking trims y's domain, and once per binding of y
    # below it: 3 * (1 + 2 + 2) tests.  Left undone, the move would add a
    # copy per value of x, and 3 * 5 + 2 + 4 tests.
    x, y = 0, 1
    problem = Problem()
    problem.add_variable(x, [0, 1, 2])
    problem.add_variable(y, [0, 1])
    calls = []

    def test(bound):
        calls.append(list(bound))
        return y if bound[y] is None else True

    problem.add_constraint([x], test)
    assert len(list(solve_all(problem))) == 6
    assert len(calls) == 3 * (1 + 2 + 2)


SIX = two_type_six_arrow()
EMPTY_3 = CompositionTable(((NC,) * 3,) * 3)
# The size-5 grid of the benchmark's tables workload: rows 0 and 1 are
# zero, the rest is left to the search.
ZERO_ROWS_5 = [[0] * 5] * 2 + [[UNSET] * 5] * 3


@pytest.fixture
def work(monkeypatch):
    """Constraint tests (counted through ``Problem.add_constraint``, as
    the benchmark's tracer counts them) and full targets built."""
    counts = {"tests": 0, "targets": 0}
    add_constraint = search.Problem.add_constraint
    build = genrep.full_transformation_sgpoid

    def counting_add_constraint(problem, watches, test):
        def counted(bound):
            counts["tests"] += 1
            return test(bound)

        add_constraint(problem, watches, counted)

    def counting_build(*args):
        counts["targets"] += 1
        return build(*args)

    monkeypatch.setattr(search.Problem, "add_constraint", counting_add_constraint)
    monkeypatch.setattr(genrep, "full_transformation_sgpoid", counting_build)
    return counts


# Recorded while forward checking could still be switched off and the
# representation search widened; removing both switches changed none.
# The two orbit searches, recorded later, are the counts that the
# benchmark's tables workload runs; their tests include the lex-leader
# tests.  Strict injective searches (the symmetry search of the orbit
# counts, the embeddings of represent) give each arrow only the images
# with its power profile.
@pytest.mark.parametrize(
    "run, result, tests, targets",
    [
        (lambda: len(list(enumerate_associative_tables(3))), 113, 4946, 0),
        (
            lambda: len(list(enumerate_associative_tables(3, allow_nc=True))),
            442, 14917, 0,
        ),
        (lambda: sum(k for _, k in associative_table_orbits(4)), 3492, 28129, 0),
        (
            lambda: sum(k for _, k in associative_table_orbits(5, partial=ZERO_ROWS_5)),
            3020, 60383, 0,
        ),
        (lambda: len(list(infer_types(SIX, 2))), 2, 8, 0),
        (lambda: len(list(find_morphisms(SIX, SIX, strict=True))), 6, 526, 0),
        (lambda: len(list(find_morphisms(SIX, SIX))), 9, 489, 0),
        (lambda: minimal_representation(SIX)[1], (2, 2), 631, 4),
        (lambda: minimal_representation(EMPTY_3)[1], (1, 3), 513, 1),
    ],
    ids=[
        "tables-3", "tables-3-nc", "orbits-4", "orbits-5-zero-rows",
        "infer-types", "strict-morphisms", "morphisms", "represent-six",
        "represent-empty-3",
    ],
)
def test_solver_work_and_targets_are_pinned(run, result, tests, targets, work):
    assert run() == result
    assert work == {"tests": tests, "targets": targets}
