"""Adversarial keystroke-dynamics synthesis and verification toolkit."""

import os

# Matmul bits depend on the BLAS thread count, so run-all artifacts are only
# byte-reproducible at a fixed count. Pin it to one thread unless the caller
# chose a count. This acts only if numpy has not been imported yet: the BLAS
# library reads these variables when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
