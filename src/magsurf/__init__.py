"""Numerical laboratory for magnetic flows on closed oriented surfaces."""

from .errors import (ConfigError, DegenerateInputError, DomainError,
                     InvalidCandidateError, MagsurfError, NoBracketError,
                     NoConvergenceError, NoGlobalPrimitiveError,
                     NoReturnError, UnsupportedError)
from .fields import (CallableField, ConstantField, MagneticField,
                     MagneticSystem, TorusField, energy_of_s, flux_total,
                     local_primitive, s_of_energy)
from .flow import (Section, TangentState, Trajectory, energy_of, integrate,
                   poincare_return, state_at_energy, trajectory_curvature,
                   trajectory_energies, trajectory_speeds)
from .orbits import (DescentParams, DiscreteLoop, Orbit, circle_loop,
                     descend_to_critical, discrete_action,
                     discrete_action_gradient, homogeneous_oracle,
                     loop_l2_energy, loop_mean_energy,
                     orbit_curvature_residual, orbit_radius, shoot_periodic)
from .surfaces import ConformalTorus, FlatTorus, HyperbolicPlane, RoundSphere

__all__ = [name for name in dir() if not name.startswith("_")]
