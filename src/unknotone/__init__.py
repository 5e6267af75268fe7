"""Exact-arithmetic obstructions to unknotting number one from Goeritz forms.

Each public name is imported from its home submodule, for example
``from unknotone.corrections import correction_vector``.  ``import
unknotone`` loads no submodule, so a command-line run compiles only the
modules its subcommand uses.
"""

__version__ = "0.1.0"
