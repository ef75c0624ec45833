"""Entanglement-entropy growth bounds for a quenched harmonic oscillator chain.

The chain starts in a Gaussian state and evolves under a translationally
invariant quadratic Hamiltonian; everything about the dynamics reduces to a
scalar closed form per Fourier mode. The library computes the exact
half-chain entropy together with a chain of cheaper lower bounds (purity,
determinant, Fourier-coefficient sums), verifies their ordering, and measures
the linear growth and light-cone structure that make the bounds useful.
"""

from .errors import (ConsistencyError, CriticalSymbolError, DivergenceError,
                     IllConditionedError, QuadratureError, QuenchEntropyError,
                     SpectralSpecError, TailCriterionError)
from .evolution import (EvolutionSetup, GaussianPureState, evolve, lambda_of_t,
                        mode_symbol, riccati_oracle, short_time_lambda)
from .pipeline import (BoundRow, BoundSeries, ScenarioConfig, run_figure1,
                       run_series, run_sweep)
from .reduction import (BlockPartition, EntropyRecord, ReducedGaussianState,
                        SymbolRecord, densify, det_bound, entropy_record,
                        exact_entropy, partition, purity, reduce, symbol_record)
from .spectral import (CirculantMatrix, SpectralExtrema, TrigPolynomial,
                       build_circulant, evaluate, extrema, gap_family,
                       group_velocity_bound, is_critical, parse_spectral_spec)
from .szego import (FourierSeries, GrowthFit, LightConeProfile, ShortTimeFit,
                    bk_bound, bk_coeffs, compute_fourier_series, fit_linear,
                    fit_quadratic_short_time, light_cone_profile,
                    log_symbol_coeffs, mu_sigma, parseval_check, szego_sum,
                    szego_sum_for)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "BlockPartition", "BoundRow", "BoundSeries", "CirculantMatrix",
    "ConsistencyError", "CriticalSymbolError", "DivergenceError",
    "EntropyRecord", "EvolutionSetup", "FourierSeries", "GaussianPureState",
    "GrowthFit", "IllConditionedError", "LightConeProfile",
    "QuadratureError", "QuenchEntropyError", "ReducedGaussianState",
    "ScenarioConfig", "ShortTimeFit", "SpectralExtrema", "SpectralSpecError",
    "SymbolRecord", "TailCriterionError", "TrigPolynomial", "bk_bound", "bk_coeffs",
    "build_circulant", "compute_fourier_series", "densify", "det_bound",
    "entropy_record", "evaluate", "evolve", "exact_entropy", "extrema",
    "fit_linear", "fit_quadratic_short_time", "gap_family",
    "group_velocity_bound", "is_critical", "lambda_of_t",
    "light_cone_profile", "log_symbol_coeffs", "mode_symbol", "mu_sigma",
    "parse_spectral_spec", "parseval_check", "partition", "purity", "reduce",
    "riccati_oracle", "run_figure1", "run_series", "run_sweep",
    "run_verification", "short_time_lambda", "symbol_record", "szego_sum", "szego_sum_for",
]
