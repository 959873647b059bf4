"""RL106 fixture: scattered os.environ reads and shadow registrations."""

import os

TOGGLE = "REPRO_FIXTURE_TOGGLE"


def tester():
    if os.getenv("REPRO_CI_TESTER"):
        return os.environ["REPRO_CI_TESTER"]
    return "rcit"
