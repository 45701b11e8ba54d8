"""Fully Fourier-space rotation-equivariant spherical networks.

The only nonlinearity is the Clebsch-Gordan tensor-product decomposition,
so every activation transforms under input rotation by block-diagonal
Wigner D-matrices and the l=0 head is rotation invariant to machine
precision.
"""

from .network import (
    ActivationType,
    CovariantActivation,
    NetworkSpec,
    NormState,
    backward_cg,
    cg_nonlinearity,
    covariant_linear,
    invariant_features,
    network_forward,
    tau_schedule,
)
from .gradients import (
    NetworkWeights,
    NumericError,
    init_weights,
    loss_and_grad,
)
from .sht import (
    HarmonicCoefficients,
    SphericalSignal,
    forward_sht,
    inverse_sht,
    rotate_coefficients,
)
from .so3 import (
    CapacityError,
    CGBlock,
    EulerAngles,
    WignerD,
    cg_block,
    random_rotation,
    spherical_harmonic,
    wigner_D,
    wigner_d_small,
)
from .training import AdamState, adam_step, train_loop

__all__ = [
    "ActivationType", "AdamState", "CGBlock", "CapacityError",
    "CovariantActivation", "EulerAngles", "HarmonicCoefficients",
    "NetworkSpec", "NetworkWeights", "NormState", "NumericError",
    "SphericalSignal", "WignerD", "adam_step", "backward_cg",
    "cg_block", "cg_nonlinearity", "covariant_linear", "forward_sht",
    "init_weights", "invariant_features", "inverse_sht", "loss_and_grad", "network_forward", "random_rotation",
    "rotate_coefficients", "spherical_harmonic", "tau_schedule",
    "train_loop", "wigner_D", "wigner_d_small",
]

__version__ = "0.1.0"
