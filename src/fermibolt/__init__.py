"""Deterministic kinetic solver for Pauli-blocked electron transport.

Import what you need from the submodules (`fermibolt.experiment`,
`fermibolt.evolution`, ...). The package itself loads nothing else, so
the command-line entry point can pin the threading environment variables
before numpy is imported.
"""

__version__ = "0.1.0"
