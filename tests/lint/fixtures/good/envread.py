"""RL106 fixture: env reads routed through the central registry."""

from repro import env


def tester():
    return env.CI_TESTER.read()
