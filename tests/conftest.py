"""Shared pytest setup.

`pashtext` is imported here, before any test module imports numpy: the
package sets OPENBLAS_NUM_THREADS=1 on import, which only takes effect
before numpy loads OpenBLAS.  The tests then run with the one BLAS thread
that the `pashtext` command runs with.
"""

import pashtext  # noqa: F401
