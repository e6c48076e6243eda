"""Reference implementations kept as test oracles.

Each module here holds a slow, direct algorithm that production code has
replaced with a faster engine.  Tests assert the engine equals its oracle.
"""
