"""Minimal finite-domain backtracking search with forward checking.

Every combinatorial search in this package (table completion, type
inference, morphism and isomorphism enumeration) is phrased as a
:class:`Problem`: a list of variables with finite ordered domains plus
constraints that watch a subset of the variables.

A constraint's ``test`` receives the current partial assignment (a mapping
from variable to value containing only the bound variables) and returns
one of three things:

* ``False``: violated.  A test must be *stable under extension*: once it
  returns False for a partial assignment it must do so for every
  extension.
* ``True``: not violated yet.  The test runs again whenever another
  variable it watches is bound.
* a single unbound variable of the problem: the test *waits* on it.  Its
  answer cannot change before that variable is bound, and it runs again
  exactly then.

The solver tests a constraint only when a variable it watches, or the
variable it last waited on, is bound.  So a test may read any bound
variable, but must not return True while its answer still depends on an
unbound variable it does not watch: it waits on that variable instead.
Waiting lets a test read a few variables chosen by the values of others
(the watched-literal scheme of SAT solvers) instead of watching every
variable it might read.  Variables are told apart from bools by type, so
an int variable 0 or 1 is a wait, not a verdict.  Waiting on a variable
the problem does not have, or on one already bound, raises
:class:`ConfigurationError`.

When a test set off by variable v waits on u, the solver moves the
constraint from v's watch list to u's: it appends the constraint to u's
list and leaves v's as it is, since v stays bound, and its list unread,
below v's search node.  Each node records its moves on a trail and undoes
them, newest first, before trying the next value.

The solver is deterministic: variables are tried in declaration order,
values in domain order, so solutions stream in lexicographic order with
respect to those orders.  Forward checking is always on: after each
binding that no constraint rejects, it prunes the domain of the single
unbound variable a constraint watches, and the domain of the variable a
constraint has just started waiting on.  It never changes which solutions
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Mapping, Optional

from .errors import ConfigurationError

Variable = Hashable
Assignment = dict


@dataclass(frozen=True)
class Constraint:
    watches: tuple
    test: Callable[[Mapping], Any]


class Problem:
    """A finite-domain constraint problem.

    Declaration order of variables and the order of each domain are
    significant; they fix the order in which solutions are produced.
    A problem should not be mutated once solving has started.
    """

    def __init__(self) -> None:
        self.variables: list = []
        self.domains: dict = {}
        self.constraints: list[Constraint] = []

    def add_variable(self, var: Variable, domain) -> None:
        if var in self.domains:
            raise ConfigurationError(f"duplicate variable {var!r}")
        self.variables.append(var)
        self.domains[var] = list(domain)

    def add_constraint(self, watches, test: Callable[[Mapping], Any]) -> None:
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

        def test(bound: Mapping) -> bool:
            for w in watches:
                if w not in bound:
                    return True
            return True if func(*(bound[w] for w in watches)) else False

        self.add_constraint(watches, test)

    def add_all_different(self, watches) -> None:
        watches = tuple(watches)

        def test(bound: Mapping) -> bool:
            seen = set()
            for w in watches:
                if w in bound:
                    v = bound[w]
                    if v in seen:
                        return False
                    seen.add(v)
            return True

        self.add_constraint(watches, test)


def _validate(problem: Problem) -> None:
    for constraint in problem.constraints:
        for w in constraint.watches:
            if w not in problem.domains:
                raise ConfigurationError(
                    f"constraint watches unknown variable {w!r}"
                )


def _bad_wait(var: Any, bound: Mapping) -> ConfigurationError:
    if var in bound:
        return ConfigurationError(f"constraint waits on bound variable {var!r}")
    return ConfigurationError(f"constraint waits on unknown variable {var!r}")


def solve_all(problem: Problem) -> Iterator[Assignment]:
    """Yield every solution exactly once, in deterministic order."""
    _validate(problem)
    order = list(problem.variables)
    # watching[v]: constraints to test when v is bound, its static watchers
    # first, then those waiting on v.
    watching: dict = {v: [] for v in order}
    unwatched = []
    for constraint in problem.constraints:
        if not constraint.watches:
            unwatched.append(constraint)
        for w in constraint.watches:
            watching[w].append(constraint)
    for constraint in unwatched:
        r = constraint.test({})
        if r is False:
            return
        if r is not True:
            if r not in watching:
                raise _bad_wait(r, {})
            watching[r].append(constraint)
    domains = {v: list(problem.domains[v]) for v in order}
    bound: dict = {}
    last = len(order)

    def trim(test, u: Variable, trimmed: list) -> bool:
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
        del bound[u]
        if len(new) == len(old):
            return True
        trimmed.append((u, old))
        domains[u] = new
        return bool(new)

    def extend(i: int) -> Iterator[Assignment]:
        if i == last:
            yield dict(bound)
            return
        var = order[i]
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
                target = watching.get(r)
                if target is None or r in bound:
                    raise _bad_wait(r, bound)
                target.append(constraint)
                waits.append((constraint.test, r))
            trimmed: list = []
            if ok:
                for constraint in constraints:
                    watches = constraint.watches
                    if len(watches) < 2:  # none unbound, or a wait that moved in
                        continue
                    unbound = [w for w in watches if w not in bound]
                    if len(unbound) == 1 and not trim(constraint.test, unbound[0], trimmed):
                        ok = False
                        break
                if ok:
                    for test, u in waits:
                        if not trim(test, u, trimmed):
                            ok = False
                            break
            if ok:
                yield from extend(i + 1)
            for u, old in reversed(trimmed):
                domains[u] = old
            for _, u in reversed(waits):
                watching[u].pop()
        bound.pop(var, None)

    yield from extend(0)


def solve_first(problem: Problem) -> Optional[Assignment]:
    """First solution of :func:`solve_all`, or None."""
    return next(solve_all(problem), None)
