"""Pumped-up SU(1,1) interferometry with general two-mode Gaussian channels.

A covariance-matrix toolkit for active interferometers whose probed channel is
a squeezing, mode-mixing or phase channel on the side modes: Gaussian states
and symplectic elements, quantum and classical Fisher information (numeric and
closed form), a truncated-Fock brute-force referee, and the phonon-based
gravitational-wave detector comparison built on top.
"""

from .channels import (ChannelSpec, embed_on_side_modes, gw_mode_mixing_channel,
                       gw_squeezing_channel, mode_mixing_channel, phase_channel,
                       pumped_two_mode_squeezer, squeezing_channel, tritter,
                       tritter_from_generator)
from .gw import (GwDetectorParams, SchemeComparison, channel_strength,
                 compare_schemes, coupling_constant, original_scheme_qfi,
                 phonon_xi, pumped_scheme_qfi, qcrb_sensitivity)
from .metrology import (RegimeError, f0_closed_form, fisher_from_moments,
                        heterodyne_moments, number_sum_moments, number_sum_quadratic_response,
                        optimal_phases, optimal_tritter_angle, qfi_closed_form,
                        qfi_numeric, sensitivity_number_sum)
from .pipeline import (InterferometerConfig, PumpDepletedError, max_tritter_angle,
                       particle_numbers_after_tritter, pre_measurement_state,
                       pump_depletion, run_interferometer)
from .states import (GaussianState, SymplecticOp, apply_symplectic, check_symplectic,
                     number_mean, purity, pumped_input_state, reduce_to_modes,
                     symplectic_form, vacuum_state)
from .sweep import ConfigError, SweepSpec, SweepTable, emit, parse_config, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec", "ConfigError", "GaussianState", "GwDetectorParams",
    "InterferometerConfig", "PumpDepletedError", "RegimeError",
    "SchemeComparison", "SweepSpec", "SweepTable", "SymplecticOp", "apply_symplectic",
    "channel_strength", "check_symplectic", "compare_schemes", "coupling_constant",
    "embed_on_side_modes", "emit",
    "f0_closed_form", "fisher_from_moments", "gw_mode_mixing_channel",
    "gw_squeezing_channel", "heterodyne_moments", "max_tritter_angle",
    "mode_mixing_channel", "number_mean", "number_sum_moments",
    "number_sum_quadratic_response", "optimal_phases", "optimal_tritter_angle",
    "original_scheme_qfi", "parse_config", "particle_numbers_after_tritter",
    "phase_channel", "phonon_xi", "pre_measurement_state", "pump_depletion",
    "pumped_input_state", "pumped_scheme_qfi", "pumped_two_mode_squeezer",
    "purity", "qcrb_sensitivity", "qfi_closed_form", "qfi_numeric",
    "reduce_to_modes", "run_interferometer", "run_sweep", "sensitivity_number_sum",
    "squeezing_channel", "symplectic_form", "tritter", "tritter_from_generator",
    "vacuum_state",
]
