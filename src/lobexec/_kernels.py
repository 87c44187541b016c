"""Nothing is jit-compiled: the numpy kernels live in ``dqn`` (MLP) and
``fundamental`` (OU step). perfbench/run.py still records this flag."""

USE_NUMBA = False
