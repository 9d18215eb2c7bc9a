"""Every ``hypothesis`` property draws the same examples on every run: the
profile loaded here derandomizes example generation, keeps no example
database and sets no deadline.  A test's own ``@settings`` (its
``max_examples``) still applies on top of it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
