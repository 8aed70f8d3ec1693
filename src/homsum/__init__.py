"""homsum: discrete kernel calculus for homogeneous multilinear sums,
explicit normal/chi-square approximation bounds, and a seeded Monte Carlo
harness for verifying the convergence and universality criteria at desk
scale."""

__version__ = "0.1.0"

from . import bounds, contractions, diagnose, errors, kernels, moments, reportio, simulate
from .bounds import BoundReport, MomentProfile, TestFunctionBudget
from .contractions import ChaosNorms, ContractionTensor, InfluenceProfile
from .kernels import KernelFamilySpec, SymmetricKernel, make_kernel
from .moments import ExactDistribution
from .simulate import DistributionSpec, SampleConfig, SampleSummary

__all__ = [
    "__version__",
    "BoundReport",
    "ChaosNorms",
    "ContractionTensor",
    "DistributionSpec",
    "ExactDistribution",
    "InfluenceProfile",
    "KernelFamilySpec",
    "MomentProfile",
    "SampleConfig",
    "SampleSummary",
    "SymmetricKernel",
    "TestFunctionBudget",
    "bounds",
    "contractions",
    "diagnose",
    "errors",
    "kernels",
    "make_kernel",
    "moments",
    "reportio",
    "simulate",
]
