"""Suite-wide settings."""

from hypothesis import settings

# Each property test draws the same examples on every run of a tree
# (derandomize also turns off the example database), and a slow first
# call never fails a property by its deadline.
settings.register_profile("scenekit", derandomize=True, deadline=None)
settings.load_profile("scenekit")
