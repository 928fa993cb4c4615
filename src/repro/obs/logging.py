"""Library logging for ``repro``: one namespaced logger, CLI-configured.

Library code under ``src/repro/`` must not ``print()`` (enforced by the
``no-print`` rule of ``colt-analyze``); diagnostics flow through
loggers obtained here instead::

    from repro.obs.logging import get_logger
    log = get_logger(__name__)
    log.warning("dropping torn cache entry %s", path)

Everything hangs off the ``colt`` root logger, so one
:func:`configure_logging` call in a CLI entry point controls the whole
package: ``--quiet`` shows errors only, the default shows warnings,
``-v`` adds info, ``-vv`` adds debug. Until a CLI configures it, the
``colt`` logger stays un-handled (stdlib "last resort" prints warnings+
to stderr), so importing the library never hijacks an application's
logging setup.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

#: Root of the package's logger namespace.
ROOT_LOGGER = "colt"

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``colt`` namespace.

    ``name`` is usually ``__name__``; a ``repro.`` prefix is rewritten
    so ``repro.sim.store`` logs as ``colt.sim.store``.
    """
    if name.startswith("repro."):
        name = name[len("repro."):]
    if not name or name == "repro":
        return logging.getLogger(ROOT_LOGGER)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure_logging(
    verbosity: int = 0, stream: Optional[object] = None
) -> logging.Logger:
    """Attach a stderr handler to the ``colt`` logger at a verbosity.

    Args:
        verbosity: ``-1`` = errors only (``--quiet``), ``0`` = warnings
            (default), ``1`` = info (``-v``), ``>=2`` = debug (``-vv``).
        stream: alternative output stream (tests).

    Idempotent: reconfiguring replaces the previously-installed handler
    rather than stacking a second one.
    """
    if verbosity <= -1:
        level = logging.ERROR
    elif verbosity == 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG

    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root
