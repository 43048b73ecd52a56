"""Suite-wide hypothesis settings: no per-example deadline, so properties
that run exact searches cannot fail on a slow machine.  Tests that set
their own `@settings` keep their `max_examples`."""

from hypothesis import settings

settings.register_profile("polyplane", deadline=None)
settings.load_profile("polyplane")
