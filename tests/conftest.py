from __future__ import annotations

import time

import pytest

from stabledistrict import Instance, equal_quotas

from helpers import N_EQUIVALENCE_CASES, acceptance_grid_instance, all_solver_outputs, path_graph


@pytest.fixture
def p6():
    """Unit path on 6 nodes with centers at the ends, quotas 3/3."""
    g = path_graph(6)
    return Instance(g, [0, 5], equal_quotas(6, 2))


@pytest.fixture
def p5():
    """Unit path on 5 nodes, centers at the ends, quotas 3/2: node 2 is tied."""
    g = path_graph(5)
    return Instance(g, [0, 4], [3, 2])


@pytest.fixture
def p4():
    """Unit path on 4 nodes with adjacent centers at nodes 0 and 1."""
    g = path_graph(4)
    return Instance(g, [0, 1], [2, 2])


@pytest.fixture(scope="session")
def equivalence_suite():
    """All five solvers on the 200 seeded acceptance instances, and the
    seconds they took."""
    started = time.perf_counter()
    results = []
    for i in range(N_EQUIVALENCE_CASES):
        inst = acceptance_grid_instance(i)
        results.append((i, inst, all_solver_outputs(inst)))
    return results, time.perf_counter() - started
