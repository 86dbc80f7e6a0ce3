"""Numerical laboratory for the su(6) geometry of paraxial light beams
that carry both spin (polarization) and orbital angular momentum.

The package splits into five parts:

* :mod:`su6lab.algebra` builds the su(2), su(3) and su(6) generator
  bases, their structure constants, adjoint matrices and exponentials.
* :mod:`su6lab.state` holds six-mode coherent states, maps them to
  points on the named observable spheres and the skyrmion torus, and
  names their texture family.
* :mod:`su6lab.optics` simulates a two-arm polarization/vortex bench
  described by a small text format, including parameter sweeps.
* :mod:`su6lab.field` synthesizes transverse Stokes fields, maps them
  onto a sphere, and evaluates the winding (skyrmion) number.
* :mod:`su6lab.cli` exposes all of the above as a command line tool.
"""

from importlib import import_module

# The public names by defining module.  They resolve on first use (PEP
# 562), so a command imports only the modules it runs: ``algebra export``
# and ``state eval`` load neither ``field`` nor ``optics``.
_EXPORTS = {
    "algebra": ("adjoint_matrices", "antiskyrmion_generators", "exp_adjoint",
                "exp_generator", "gell_mann_matrices", "pauli_matrices",
                "skyrmion_generators", "structure_constants", "su6_basis"),
    "field": ("TopologicalCharge", "TransverseGrid", "lg_mode",
              "skyrmion_number", "skyrmion_number_solid_angle", "soup_bubble",
              "stokes_fields", "synthesize", "topological_charge"),
    "optics": ("BenchParseError", "parse_bench", "run_bench", "run_sweep",
               "serialize_bench", "shipped_bench_path"),
    "state": ("CoherentState", "classify_texture", "named_state"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
