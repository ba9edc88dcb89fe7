"""Suite-wide settings: one hypothesis profile for every property test.

Property tests here run numerical fits and file I/O whose run time varies
with the machine, so no example has a deadline; each test sets its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("riskchoice", deadline=None)
settings.load_profile("riskchoice")
