"""Test-wide hypothesis profile.

Property tests run numerical kernels whose first calls are slow, so no
example has a deadline; a failing example prints its reproduction blob.
"""

from hypothesis import settings

settings.register_profile("earring", deadline=None, print_blob=True)
settings.load_profile("earring")
