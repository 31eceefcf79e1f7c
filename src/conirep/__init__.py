"""conirep: exact evaluation of nonnegative-readout representation error.

Given a nonnegative activity matrix C (m states x n neurons), the package
computes the mean squared error a nonnegative-weighted linear readout makes
across every desired output in the unit hypercube. The analytical route
decomposes the hypercube by the boundary elements of the conical hull of
C's columns and integrates the squared distance polynomial exactly over
each region; an independent midpoint-quadrature oracle based on NNLS
cross-checks it.
"""
from .encode import SlotConfig, SpikeTrain, bin_spikes, read_spike_file
from .errors import (AllZeroMatrixError, BudgetExceededError, ConirepError,
                     DegenerateConeError, InputFormatError, IterationLimitError)
from .evaluator import (EvaluationResult, RegionRecord, evaluate, output_volume,
                        region_report)
from .integrate import simplex_integral
from .oracle import QuadratureResult, convergence_study, ir_num

__version__ = "0.1.0"

__all__ = [
    "AllZeroMatrixError", "BudgetExceededError", "ConirepError", "DegenerateConeError",
    "EvaluationResult", "InputFormatError", "IterationLimitError", "QuadratureResult",
    "RegionRecord", "SlotConfig", "SpikeTrain", "bin_spikes", "convergence_study",
    "evaluate", "ir_num", "output_volume", "read_spike_file", "region_report",
    "simplex_integral",
]
