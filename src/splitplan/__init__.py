"""Transfer-minimal partitioning of layered models over device chains.

The package splits a feed-forward model's layer chain into contiguous
blocks, one per device along an ordered chain, keeping every block within
its device's cpu and memory limits while minimizing the total time spent
moving activations across the links.  ``heuristic`` holds the greedy
planner, ``exact`` the dynamic-programming optimum, ``scenarios`` the
randomized benchmark harness, ``profiles`` the file formats, and ``cli``
the command-line surface.  ``cli`` is not imported here, so that
``python -m splitplan.cli`` runs it as a fresh ``__main__`` module; import
it as ``splitplan.cli``.
"""

from __future__ import annotations

from . import cost, exact, heuristic, model, profiles, scenarios, svgplot

__version__ = "0.1.0"
