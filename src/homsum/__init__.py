"""homsum: discrete kernel calculus for homogeneous multilinear sums,
explicit normal/chi-square approximation bounds, and a seeded Monte Carlo
harness for verifying the convergence and universality criteria at desk
scale."""

__version__ = "0.1.0"
