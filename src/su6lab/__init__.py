"""Numerical laboratory for the su(6) geometry of paraxial light beams
that carry both spin (polarization) and orbital angular momentum.

The package splits into five parts:

* :mod:`su6lab.algebra` builds the su(2), su(3) and su(6) generator
  bases, their structure constants, adjoint matrices and exponentials.
* :mod:`su6lab.state` holds six-mode coherent states and maps them to
  points on the named observable spheres and the skyrmion torus.
* :mod:`su6lab.optics` simulates a two-arm polarization/vortex bench
  described by a small text format, including parameter sweeps.
* :mod:`su6lab.field` synthesizes transverse Stokes fields, maps them
  onto a sphere, and evaluates the winding (skyrmion) number.
* :mod:`su6lab.cli` exposes all of the above as a command line tool.
"""

from .algebra import (
    adjoint_matrices,
    antiskyrmion_generators,
    exp_adjoint,
    exp_generator,
    gell_mann_matrices,
    pauli_matrices,
    skyrmion_generators,
    structure_constants,
    su6_basis,
)
from .field import (
    TopologicalCharge,
    TransverseGrid,
    classify_texture,
    lg_mode,
    skyrmion_number,
    skyrmion_number_solid_angle,
    soup_bubble,
    stokes_fields,
    synthesize,
    topological_charge,
)
from .optics import (
    BenchParseError,
    parse_bench,
    run_bench,
    run_sweep,
    serialize_bench,
    shipped_bench_path,
)
from .state import CoherentState, named_state

__all__ = [
    "BenchParseError",
    "CoherentState",
    "TopologicalCharge",
    "TransverseGrid",
    "adjoint_matrices",
    "antiskyrmion_generators",
    "classify_texture",
    "exp_adjoint",
    "exp_generator",
    "gell_mann_matrices",
    "lg_mode",
    "named_state",
    "parse_bench",
    "pauli_matrices",
    "run_bench",
    "run_sweep",
    "serialize_bench",
    "shipped_bench_path",
    "skyrmion_generators",
    "skyrmion_number",
    "skyrmion_number_solid_angle",
    "soup_bubble",
    "stokes_fields",
    "structure_constants",
    "su6_basis",
    "synthesize",
    "topological_charge",
]

__version__ = "0.1.0"
