"""Analytical scattering and reflection models for reconfigurable surfaces."""

__version__ = "0.1.0"

from .core import (Direction, ObservationPoint, PlaneWave, SphericalField,
                   WaveContext, direction_vector, sampling_sa,
                   sampling_sa_linear, sinc_normalized)
from .patch import (Patch, patch_bistatic_rcs, patch_scattered_field,
                    patch_scattered_field_multi, po_far_field,
                    po_radiation_integrals)
from .surface import (RisGeometry, UnitCell, path_length_phase,
                      ris_bistatic_rcs, ris_scattered_field,
                      ris_scattered_field_multi)
from .linear import (LinearRis, MimoSystem, apply_mimo, assemble_mimo,
                     dft_scatter_grid, linear_field, linear_field_multi,
                     linear_rcs, steering_function)
from .config import (ReshapeConditioningError, ReshapeSolution,
                     anomalous_pairs, beam_reshape, compensated_rcs,
                     compensated_steering, compensation_delta, grating_lobes,
                     monte_carlo_power, monte_carlo_power_grid,
                     phase_compensation, random_phase_draw,
                     random_phase_expected_power, random_phase_expected_rcs,
                     random_phase_miso_expected_power)

__all__ = [name for name in dir() if not name.startswith("_")]
