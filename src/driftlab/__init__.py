"""driftlab: simulation and drift-certificate toolkit for adaptive MCMC.

Controlled Markov chains (Metropolis kernels whose tuning parameter is
updated from the trajectory) are simulated on reproducible substreams, and
the stability inequalities that justify them (state drift, parameter-weight
drift, their compound contraction, acceptance-rate bounds) are certified
numerically on finite grids with explicit error control.

Each name is imported from the module that defines it, for example
``from driftlab.simulator import run_replicas``; the package itself binds
only ``__version__``.
"""

__version__ = "0.1.0"
