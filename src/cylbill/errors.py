"""The three failure bases, one per failing exit code of the CLI.

Every exception class of the package derives from exactly one of them and
keeps its builtin base (``ValueError`` or ``RuntimeError``) beside it, so
the base states the exit code once and ``cli.main`` catches three bases:

* ``InputError`` (exit 2): an input file, a built system or builder
  parameters are malformed or invalid;
* ``DegeneracyError`` (exit 3): a computation hit a numerical degeneracy
  and stopped rather than fabricate a result;
* ``UsageError`` (exit 4): the command line or a library argument is
  wrong, or the input exceeds a stated size limit (``LimitError``).
"""

from __future__ import annotations

__all__ = ["InputError", "DegeneracyError", "UsageError", "LimitError"]


class InputError(Exception):
    """Malformed or invalid input: exit 2."""


class DegeneracyError(Exception):
    """A numerical degeneracy aborted the computation: exit 3."""


class UsageError(Exception):
    """A wrong command line, argument or size: exit 4."""


class LimitError(UsageError, ValueError):
    """The input exceeds a stated size limit, which ``limit`` names: one of
    ``MAX_FLOW_EVENTS``, ``MAX_LYAPUNOV_WINDOWS``, ``MAX_DELTA_SAMPLES``,
    ``MAX_BALL_CANDIDATES``, ``MAX_LLL_STEPS``,
    ``MAX_TRANSVERSE_CYLINDERS``, ``MAX_HARD_BALL_ENTRIES``, or ``int64``
    for a factor generator coefficient past the int64 range."""

    def __init__(self, limit: str, message: str):
        super().__init__(message)
        self.limit = limit
