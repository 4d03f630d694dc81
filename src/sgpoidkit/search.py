"""Minimal finite-domain backtracking search with forward checking.

Every combinatorial search in this package (table completion, type
inference, morphism and isomorphism enumeration) is phrased as a
:class:`Problem`: variables with finite ordered domains plus constraints
that watch a subset of the variables.  The variables are the ints
0..N-1, declared in that order, and no domain holds None.

A constraint's ``test`` receives the current partial assignment, a list
``bound`` indexed by variable in which ``bound[v]`` is None while v is
unbound, and returns one of three things:

* ``False``: violated.  A test must be *stable under extension*: once it
  returns False for a partial assignment it must do so for every
  extension.
* ``True``: not violated yet.  The test runs again whenever another
  variable it watches is bound.
* an unbound variable: the test *waits* on it.  Its answer cannot change
  before that variable is bound, and it runs again exactly then.

The solver tests a constraint only when a variable it watches, or the
variable it last waited on, is bound.  So a test may read any bound
variable, but must not return True while its answer still depends on an
unbound variable it does not watch: it waits on that variable instead.
Waiting lets a test read a few variables chosen by the values of others
(the watched-literal scheme of SAT solvers) instead of watching every
variable it might read.  Variables are told apart from bools by type, so
an int variable 0 or 1 is a wait, not a verdict.  Any other answer, a
bound variable, or one the problem does not have, raises
:class:`ConfigurationError`.

When a test set off by variable v waits on u, the solver moves the
constraint from v's watch list to u's: it appends the constraint to u's
list and leaves v's as it is, since v stays bound, and its list unread,
below v's search node.  Each node records its moves on a trail and undoes
them, newest first, before trying the next value.

The solver is deterministic: variables are tried in declaration order,
values in domain order, so solutions, each a tuple of values indexed by
variable, stream in lexicographic order with respect to those orders.
Forward checking is always on: after each binding that no constraint
rejects, it prunes the domain of the single unbound variable a constraint
watches, and the domain of the variable a constraint has just started
waiting on.  It never changes which solutions exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .errors import ConfigurationError

Assignment = list


@dataclass(frozen=True)
class Constraint:
    watches: tuple
    test: Callable[[Assignment], Any]


class Problem:
    """A finite-domain constraint problem.

    Declaration order of variables and the order of each domain are
    significant; they fix the order in which solutions are produced.
    A problem should not be mutated once solving has started.
    """

    def __init__(self) -> None:
        self.domains: list = []
        self.constraints: list[Constraint] = []

    def add_variable(self, var: int, domain) -> None:
        if type(var) is not int or var != len(self.domains):
            raise ConfigurationError(
                f"variable {var!r} is not the next variable {len(self.domains)}"
            )
        domain = list(domain)
        if None in domain:
            raise ConfigurationError(f"domain of variable {var} holds None")
        self.domains.append(domain)

    def add_constraint(self, watches, test: Callable[[Assignment], Any]) -> None:
        """Attach a predicate over partial assignments watching ``watches``.

        ``test`` returns False, True or a variable to wait on (see the
        module docstring)."""
        seen: list = []
        for w in watches:
            if w not in seen:
                seen.append(w)
        self.constraints.append(Constraint(tuple(seen), test))

    def add_relation(self, watches, func: Callable[..., bool]) -> None:
        """Constraint checked positionally once all watched variables are
        bound.  ``watches`` must not repeat a variable."""
        watches = tuple(watches)

        def test(bound: Assignment) -> bool:
            for w in watches:
                if bound[w] is None:
                    return True
            return True if func(*(bound[w] for w in watches)) else False

        self.add_constraint(watches, test)

    def add_all_different(self, watches) -> None:
        watches = tuple(watches)

        def test(bound: Assignment) -> bool:
            seen = set()
            for w in watches:
                v = bound[w]
                if v is not None:
                    if v in seen:
                        return False
                    seen.add(v)
            return True

        self.add_constraint(watches, test)


def _bad_answer(r: Any) -> ConfigurationError:
    return ConfigurationError(
        f"constraint returned {r!r}, not True, False or an unbound variable"
    )


def solve_all(problem: Problem) -> Iterator[tuple]:
    """Yield every solution exactly once, in deterministic order."""
    last = len(problem.domains)
    # watching[v]: constraints to test when v is bound, its static watchers
    # first, then those waiting on v.
    watching: list = [[] for _ in range(last)]
    unwatched = []
    for constraint in problem.constraints:
        if not constraint.watches:
            unwatched.append(constraint)
        for w in constraint.watches:
            if type(w) is not int or not 0 <= w < last:
                raise ConfigurationError(f"constraint watches unknown variable {w!r}")
            watching[w].append(constraint)
    bound: list = [None] * last
    for constraint in unwatched:
        r = constraint.test(bound)
        if r is False:
            return
        if r is not True:
            if type(r) is not int or not 0 <= r < last:
                raise _bad_answer(r)
            watching[r].append(constraint)
    domains = [list(domain) for domain in problem.domains]

    def trim(test, u: int, trimmed: list) -> bool:
        """Drop the values of ``u`` that ``test`` rejects, logging the old
        domain on ``trimmed``; False if that leaves none."""
        old = domains[u]
        if not old:
            return True
        new = []
        for x in old:
            bound[u] = x
            if test(bound) is not False:
                new.append(x)
        bound[u] = None
        if len(new) == len(old):
            return True
        trimmed.append((u, old))
        domains[u] = new
        return bool(new)

    def extend(var: int) -> Iterator[tuple]:
        if var == last:
            yield tuple(bound)
            return
        constraints = watching[var]
        for value in domains[var]:
            bound[var] = value
            ok = True
            waits: list = []  # the trail: (test, variable it moved to)
            for constraint in constraints:
                r = constraint.test(bound)
                if r is True:
                    continue
                if r is False:
                    ok = False
                    break
                if type(r) is not int or not 0 <= r < last or bound[r] is not None:
                    raise _bad_answer(r)
                watching[r].append(constraint)
                waits.append((constraint.test, r))
            trimmed: list = []
            if ok:
                for constraint in constraints:
                    watches = constraint.watches
                    if len(watches) < 2:  # none unbound, or a wait that moved in
                        continue
                    unbound = [w for w in watches if bound[w] is None]
                    if len(unbound) == 1 and not trim(constraint.test, unbound[0], trimmed):
                        ok = False
                        break
                if ok:
                    for test, u in waits:
                        if not trim(test, u, trimmed):
                            ok = False
                            break
            if ok:
                yield from extend(var + 1)
            for u, old in reversed(trimmed):
                domains[u] = old
            for _, u in reversed(waits):
                watching[u].pop()
        bound[var] = None

    yield from extend(0)


def solve_first(problem: Problem) -> Optional[tuple]:
    """First solution of :func:`solve_all`, or None."""
    return next(solve_all(problem), None)
