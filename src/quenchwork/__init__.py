"""Diagonal-ensemble thermodynamics of sudden quenches in closed systems.

Two solvable models (a shifted harmonic oscillator and a hard-core-boson
chain) feed a common pipeline: build the diagonal ensemble of a quench,
extract a characteristic temperature from entropy/energy finite differences,
and estimate free-energy profiles from exponential work averages over
multi-quench protocols.
"""
