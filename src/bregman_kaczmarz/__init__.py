"""Sparse solutions of nonlinear systems via block Bregman-Kaczmarz
iterations with averaging, plus the quadratic recovery experiment harness."""

from .priors import SparsePrior, soft_shrink
from .systems import DCTQuadraticSystem, NonlinearSystem, QuadraticSystem
from .selection import (Adaptive, Constant, GreedyBlock, MaxResidual,
                        ResidualProbability, UniformRandom)
from .solver import RunRecord, SolverConfig, run, solution_error
from .generators import (GeneratorSpec, ProblemInstance, generate,
                         generate_sparse_signal, load_instance, save_instance)

__all__ = [
    "SparsePrior", "soft_shrink",
    "NonlinearSystem", "QuadraticSystem", "DCTQuadraticSystem",
    "UniformRandom", "ResidualProbability", "MaxResidual", "GreedyBlock",
    "Constant", "Adaptive",
    "SolverConfig", "RunRecord", "run", "solution_error",
    "GeneratorSpec", "ProblemInstance", "generate", "generate_sparse_signal",
    "save_instance", "load_instance",
]
