"""Run the suite under the engine's BLAS spin timeout.

pytest has not imported numpy when it loads this file, so setting the
variable here reaches numpy's OpenBLAS as well as scipy's, as importing
``gclstream`` first would.  Tests of the engine's own default strip it in
their fresh interpreters.
"""

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")
