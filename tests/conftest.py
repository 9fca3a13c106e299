"""Hypothesis settings profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: a failing property
test prints the blob that reproduces it (``@reproduce_failure``), and no
example database is read or written, so every run starts from the same
state.  Without the variable, hypothesis keeps its default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
