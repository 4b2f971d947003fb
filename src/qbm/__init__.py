"""Quantum Brownian motion as classical non-Markovian stochastic trajectories.

The package simulates the reduced dynamics of a particle coupled to an ohmic
oscillator bath by integrating a generalized Langevin equation per trajectory,
with colored Gaussian noise whose statistics carry the quantum
fluctuation-dissipation relation.  Quantum state preparations enter as
phase-space sampling plus signed trajectory weights.
"""

__version__ = "0.1.0"

from .bath import (
    BathSpec,
    classical_correlation,
    memory_kernel,
    noise_psd,
    quantum_correlation,
    spectral_density,
    thermal_spectrum,
)
from .noise import (
    FrequencyGrid,
    NoisePath,
    empirical_autocorrelation,
    synthesize,
)
from .dynamics import (
    Intervention,
    Potential,
    Schedule,
    Trajectory,
    TrajectoryEnsemble,
    integrate,
    run_ensemble,
)
from .preparation import (
    CatProject,
    GaussianLocalize,
    MomentumReset,
    cat_wigner,
    gaussian_value,
)
from .observables import (
    ObservableSeries,
    WeylObservable,
    cat_initial_value,
    estimate,
    msd,
)
from .reference import (
    ResponseFunction,
    coherence_length,
    p2_quadrature,
    response,
    sigma_analytical,
    small_parameter,
)
