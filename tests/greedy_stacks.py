"""The stacked greedy checked row by row against ``heuristic.solve``."""

import numpy as np

from splitplan import exact, heuristic


def stack_arrays(models, chains):
    """The stacked solvers' arrays for instances of one shape."""
    return (
        np.array([model.prefix_cpu for model in models]),
        np.array([model.prefix_mem for model in models]),
        np.array([model.cut_table for model in models]),
        *exact._chain_arrays(chains),
    )


def assert_stack_matches_solve(models, chains):
    """Each row's kappa, points and cost equal ``solve``'s, cost bit for bit.

    Returns one outcome per row: ``("solution", kappa)``, or
    ``("no-solution", device)`` with the device the greedy failed at.
    """
    points, kappa, cost = heuristic.solve_stack(*stack_arrays(models, chains))
    outcomes = []
    for row, (model, chain) in enumerate(zip(models, chains)):
        expected = heuristic.solve(model, chain)
        if expected.solution is None:
            assert (kappa[row], cost[row]) == (0, np.inf)
            limit = min(model.num_layers, chain.num_devices)
            outcomes.append(("no-solution", len(heuristic._scan(model, chain, limit)[2])))
            continue
        assert kappa[row] == expected.solution.kappa
        assert tuple(points[row, : kappa[row]].tolist()) == expected.solution.points
        assert cost[row] == expected.cost.total  # bit for bit, no tolerance
        outcomes.append(("solution", expected.solution.kappa))
    return outcomes
