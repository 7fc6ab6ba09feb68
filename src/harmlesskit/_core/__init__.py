"""The search kernels (``_pykernels``), written in pure Python.

They take the solvers' own lists: adjacency rows, thresholds, and one row of
cover positions per neighbourhood class.  ``DEFAULT_BACKEND`` names that
implementation for tools that record it.
"""

DEFAULT_BACKEND = "pure"
