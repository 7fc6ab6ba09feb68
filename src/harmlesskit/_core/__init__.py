"""The search kernels (``_pykernels``), written in pure Python.

``DEFAULT_BACKEND`` names that implementation for tools that record it.
"""

DEFAULT_BACKEND = "pure"
