"""Tools for verifying and constructing Engel and even contact structures.

The package is organized bottom-up:

- ``interval``: closed intervals with outward rounding, the proven
  arithmetic behind ``Expr.bound`` and the proof of the disk's zero count.
- ``trigpoly``: exact trigonometric polynomial arithmetic over named chart
  coordinates, the scalar layer everything else is built on.
- ``charts``: charts, vector fields, differential forms, brackets, exterior
  calculus, and dense sampling; every component is an exact ``Expr``.
- ``verify``: pointwise certificates (contact, even contact, Engel, isotropic
  line, transversality, adaptedness) with explicit margins.
- ``foliation``: surface pullbacks, characteristic foliations, singularity
  classification, leaf tracing, and the disk contact-form constructor.
- ``invariants``: twisting and rotation numbers, and the boundary
  homomorphism delta.
- ``models``: the catalog of local models and the collar/binding assembly
  pipeline with its gluing checks.
- ``cli`` / ``reports``: command line front end and reproducible reports.

Import rule: at module level ``interval`` imports only numpy,
``foliation`` only numpy, the standard library, ``interval`` and this
package's constants, and ``reports`` only those and ``foliation``.  ``cli``
imports each subcommand's modules when it runs, so ``engelbook foliation``
loads only ``cli``, ``foliation``, ``interval`` and ``reports``; the
default tolerances and grid size live here so that the CLI reads them
without importing another module.
"""

__version__ = "0.1.0"

RANK_TOL = 1e-9  # rank and residual tolerance of pointwise certificates
SYMBOL_TOL = 1e-12  # coefficient tolerance of symbolic equality
SLOPE_TOL = 1e-9  # tolerance of torus slope comparisons
RESIDUAL_TOL = 0.25  # largest winding residual of a turn count
# fewest path samples a turn count takes: fewer alias the fields' turns
MIN_TURN_SAMPLES = 16
TOLERANCE_DEFAULTS = {"rank": RANK_TOL, "zero": SYMBOL_TOL, "slope": SLOPE_TOL, "residual": RESIDUAL_TOL}
DEFAULT_MIN_POINTS = 1000  # fewest grid points of a sampled check, unless asked otherwise
