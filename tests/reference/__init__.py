"""Executable reference models: slow, obviously-correct oracles for differential tests.

Test-only.  Nothing under ``src/`` imports from here; a module lands here
when its per-item implementation is replaced in ``src/`` by a columnar one
and the old body is kept as the oracle the new one must equal.
"""
