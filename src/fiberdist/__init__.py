"""Exact extended distances over coupling fibers.

One minimization scheme, four instances: Hausdorff distance on nonempty
subsets, max and p-power distances on tuples, the Kantorovich distance on
finitely supported probability measures, and the Graev and Swierczkowski
distances on free (and free-abelian) group words.  Each instance pairs a
specialized exact algorithm with a generic exhaustive fiber minimum so the
coincidences between them are executable checks.
"""

__version__ = "0.1.0"
