"""Hypothesis runs every example but does not shrink a failure.

The property tests draw towers of modules, and shrinking a failing one can
take minutes, while the first failing example already names the fault.  So
the default profile keeps the explicit, reuse and generate phases only:
every example still runs and every failure still fails, on its first
falsifying example.  Test-level `@settings` inherit this profile.
"""
from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("no-shrink")
