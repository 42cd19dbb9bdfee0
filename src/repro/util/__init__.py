"""Shared utilities: seeded RNG streams, statistics, validation.

These helpers are deliberately dependency-light (NumPy only) and are used
by every other subpackage.  Nothing here knows about data centres or
gossip protocols.
"""
