"""Experimental design from the geometry of sampled Jacobians.

The package scores candidate observation maps (e.g. sensor placements) by
how well their Jacobians invert output sets: the expected scaling effect
rewards designs whose measurements pin parameters down sharply, and the
expected skewness rewards designs whose components carry complementary
information.  Both are Monte Carlo averages of singular-value quantities,
so a single batch of sampled field Jacobians prices every candidate design
without further model solves.  A small data-consistent inversion toolkit is
included to show what a chosen design does to the inverse problem.
"""

__version__ = "0.1.0"

# ``cli`` is left out so that ``python -m svoed.cli`` imports it only once.
from . import criteria, dci, design, geometry, models, sampling  # noqa: F401
