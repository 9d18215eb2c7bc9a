"""Every ``hypothesis`` property draws the same examples on every run: the
profile loaded here derandomizes example generation, keeps no example
database and sets no deadline.  It also skips the shrink phase: a failing
property reports the first failing example it drew, at once, instead of
spending minutes re-running the pipeline to minimize it.  A passing property
draws the same examples either way.  A test's own ``@settings`` (its
``max_examples``) still applies on top of it."""

from hypothesis import Phase, settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("deterministic")
