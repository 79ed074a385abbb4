"""Expected answers of a workload's queries, computed without the engine.

``prepare`` runs in a child process before any query is timed, so neither
the oracle's caches nor the well-formedness check leave state behind in
the process that forks the query children.
"""

from __future__ import annotations

import dataclasses
import pathlib

from .workloads import RELABEL, Ref, Workload

# agent counts up to which an oracle row is followed; criterion 10 of the
# acceptance suite uses the same bound and requires a stable tail
ROW_BOUND = 16


class ReferenceError(Exception):
    pass


def _with_relabel(model):
    labels = {s: frozenset(model.labels[s]
                           | {p for p, states in RELABEL.items() if s in states})
              for s in model.states}
    return dataclasses.replace(model, props=model.props + tuple(RELABEL),
                               labels=labels)


class Resolver:
    """Evaluates ``Ref`` values on one model with the enumeration oracle."""

    def __init__(self, model):
        from hdmas.oracle import Oracle

        self.model = _with_relabel(model)
        self.oracle = Oracle(self.model)

    def _oracle(self, text: str) -> int:
        from hdmas.parsing import parse_formula

        return self.oracle.global_mc(parse_formula(text), {})

    def _row(self, ref: Ref) -> list[int]:
        row = [self._oracle(ref.formula.format(c=i, n=i))
               for i in range(ROW_BOUND + 1)]
        if not row[-1] == row[-2] == row[-3]:
            raise ReferenceError(f"row {ref.formula} is not stable by "
                                 f"{ROW_BOUND} agents")
        return row

    def extension(self, ref: Ref) -> set[str]:
        """Expected extension of an oracle-backed reference."""
        if ref.kind == "oracle":
            mask = self._oracle(ref.formula)
        elif ref.kind == "union":
            mask = 0
            for value in self._row(ref):
                mask |= value
        elif ref.kind == "inter":
            mask = self.model.all_states()
            for value in self._row(ref):
                mask &= value
        else:
            raise ValueError(ref.kind)
        return set(self.model.names_of(mask))


def prepare(workload: Workload, paths: dict[str, pathlib.Path]) -> dict:
    """Check every generated well-formed model and resolve every reference.

    Returns ``{"expected": [...]}`` with one entry per query: a sorted list
    of state names, or None.
    """
    from hdmas.model import check_wellformed
    from hdmas.parsing import parse_model

    models = {name: parse_model(paths[name].read_text(encoding="utf-8")).model
              for name in workload.models}
    for name, model in models.items():
        if name not in workload.ill and not check_wellformed(model).ok:
            raise ReferenceError(f"generated model {name} is not well-formed")
    resolvers: dict[str, Resolver] = {}
    expected = []
    for query in workload.queries:
        ref = query.ref
        if ref is None or ref.kind == "member":
            expected.append(None)
        elif ref.kind == "states":
            expected.append(sorted(ref.states))
        else:
            resolver = resolvers.get(query.instance)
            if resolver is None:
                resolver = resolvers[query.instance] = Resolver(
                    models[query.instance])
            expected.append(sorted(resolver.extension(ref)))
    return {"expected": expected}
