"""Structured logging for the reproduction's long-running components.

Every component logs through a child of the single ``repro`` logger::

    from repro.utils.log import get_logger
    log = get_logger("campaign.scheduler")
    log.info("job %s done (best EDP %.4e)", job_id, edp)

Nothing is printed unless :func:`configure_logging` (or the ``--log-level``
flag on ``repro.cli``) installs a handler, so library users keep full control
of log routing: the ``repro`` logger propagates to the root logger by
default and carries a ``NullHandler`` to silence the "no handler" warning.

The line format is deliberately grep-friendly (one event per line, fixed
field order)::

    2026-08-07 12:00:00,123 INFO  repro.service.daemon: job j-1a2b3c queued

Batch experiment harnesses stay print-based; the loggers exist for the parts
of the system that run unattended — searchers, the campaign scheduler, and
the search service daemon.
"""

from __future__ import annotations

import logging
import sys

#: The names accepted by ``--log-level`` (lower-case, argparse-friendly).
LOG_LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error", "critical")

_FORMAT = "%(asctime)s %(levelname)-5s %(name)s: %(message)s"

_ROOT_NAME = "repro"

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


def get_logger(component: str) -> logging.Logger:
    """The per-component logger ``repro.<component>``."""
    return logging.getLogger(f"{_ROOT_NAME}.{component}")


def configure_logging(level: str | int = "warning") -> logging.Logger:
    """Install one stderr handler on the ``repro`` logger at ``level``.

    Idempotent: calling again replaces the previously-installed handler (and
    its level) instead of stacking duplicates, so the CLI and tests can
    reconfigure freely.  Log lines go to ``sys.stderr``, so they never
    interleave with machine-readable stdout (reports, JSON).
    """
    if isinstance(level, str):
        if level.lower() not in LOG_LEVELS:
            raise ValueError(f"unknown log level {level!r}; "
                             f"options: {', '.join(LOG_LEVELS)}")
        level = getattr(logging, level.upper())
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        if isinstance(handler, logging.StreamHandler) \
                and not isinstance(handler, logging.NullHandler) \
                and getattr(handler, "_repro_configured", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler._repro_configured = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root
