"""Shared test settings.

Property tests run derandomized with a bounded number of examples, so
every run of the suite draws the same inputs and takes the same time.
"""

from hypothesis import settings

settings.register_profile("liftbank", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("liftbank")
