"""Spectral performance measures of noisy consensus networks, and solvers
for growing a network by new weighted links to minimize a chosen measure."""

from .errors import (AxiomViolation, CombinatorialBlowup, GraphFormatError,
                     IllConditioned, InvalidParameter, MeasureSpecError,
                     NodeCountMismatch, NonDifferentiableMeasure, NotConnected,
                     SelfLoopEdge, SpecgrowError, UnstableStepSize,
                     UnsupportedMeasure)
from .graphs import WeightedGraph, canonical_edge, load_graph, meet, parse_graph, union
from .laplacian import LaplacianState, build_laplacian
from .limits import (enhancement_table, limit_value, lower_bound, max_single_link_gain,
                     min_links_for_target, star_tree_sweep, upper_bound_complete)
from .measures import (MeasureSpec, check_axioms, companion_value,
                       directional_derivative, evaluate, gradient,
                       hardy_schatten_alpha0, parse_measure, phi_prime,
                       spectral_value, supermodularity_check)
from .montecarlo import (SimConfig, ValidationReport, simulate_output_covariance,
                         stationary_time, validate_measure)
from .synthesis import (CandidateSet, SynthesisResult, brute_force,
                        closed_form_delta, greedy, linearized)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "CandidateSet", "CombinatorialBlowup",
    "GraphFormatError", "IllConditioned", "InvalidParameter", "LaplacianState", "MeasureSpec",
    "MeasureSpecError", "NodeCountMismatch", "NonDifferentiableMeasure",
    "NotConnected", "SelfLoopEdge", "SimConfig", "SpecgrowError",
    "SynthesisResult", "UnstableStepSize", "UnsupportedMeasure",
    "ValidationReport", "WeightedGraph", "brute_force",
    "build_laplacian", "canonical_edge", "check_axioms", "closed_form_delta",
    "companion_value", "directional_derivative", "enhancement_table",
    "evaluate", "gradient", "greedy", "hardy_schatten_alpha0", "limit_value",
    "linearized", "load_graph", "lower_bound", "max_single_link_gain", "meet",
    "min_links_for_target", "parse_graph", "parse_measure", "phi_prime",
    "simulate_output_covariance", "spectral_value", "star_tree_sweep",
    "stationary_time", "supermodularity_check", "union",
    "upper_bound_complete", "validate_measure",
]
