"""The ``repro.obs`` logging hierarchy.

Every module that wants a logger asks :func:`get_logger` for a named child of
the ``repro.obs`` root (``repro.obs.session``, ``repro.obs.engine``,
``repro.obs.pool``, ...).  Nothing is emitted until
:func:`configure_logging` attaches a handler — the library stays silent by
default, exactly like the rest of the standard library's logging etiquette.

The CLI's ``--verbose`` flag calls ``configure_logging(verbose=True)`` to
stream DEBUG-level progress (plans computed, worlds shipped, workers
respawned, quiescence certified) to stderr; without it only WARNING and above
surface.
"""

from __future__ import annotations

import logging
import sys

#: Root of the observability logging hierarchy.
ROOT_LOGGER_NAME = "repro.obs"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def get_logger(area: str) -> logging.Logger:
    """A logger named ``repro.obs.<area>`` (e.g. ``get_logger("pool")``)."""
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{area}")


def configure_logging(
    *,
    verbose: bool = False,
    stream: object | None = None,
) -> logging.Logger:
    """Attach one stream handler to the ``repro.obs`` root and set its level.

    Idempotent: re-configuring replaces the previously attached handler
    rather than stacking duplicates, so tests and repeated CLI invocations
    in one process never double-log.  Returns the configured root logger.
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in [h for h in root.handlers if getattr(h, "_repro_obs", False)]:
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler._repro_obs = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(logging.DEBUG if verbose else logging.WARNING)
    root.propagate = False
    return root
