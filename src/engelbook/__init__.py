"""Tools for verifying and constructing Engel and even contact structures.

The package is organized bottom-up:

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
"""

__version__ = "0.1.0"
