"""The three failure bases, one per failing exit code of the CLI.

Every exception class of the package derives from exactly one of them and
keeps its builtin base (``ValueError`` or ``RuntimeError``) beside it, so
the base states the exit code once and ``cli.main`` catches three bases:

* ``InputError`` (exit 2): an input file, a built system or builder
  parameters are malformed or invalid;
* ``DegeneracyError`` (exit 3): a computation hit a numerical degeneracy
  and stopped rather than fabricate a result;
* ``UsageError`` (exit 4): the command line or a library argument is
  wrong, or the input exceeds a stated size limit.
"""

from __future__ import annotations

__all__ = ["InputError", "DegeneracyError", "UsageError"]


class InputError(Exception):
    """Malformed or invalid input: exit 2."""


class DegeneracyError(Exception):
    """A numerical degeneracy aborted the computation: exit 3."""


class UsageError(Exception):
    """A wrong command line, argument or size: exit 4."""
