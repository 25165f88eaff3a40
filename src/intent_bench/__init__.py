"""Two-step motion-intention prediction benchmark.

Gaze rows classify the traversal segment; time-domain resistance features
plus the segment probabilities feed an LSTM that classifies the movement
direction. Everything trains from scratch and is deterministic per seed.
"""

__version__ = "0.1.0"

import os

# One BLAS thread per process unless the environment sets a count, read when numpy
# loads its BLAS: `run` trains the two shapes in two processes, whose BLAS threads
# would otherwise contend for the cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
