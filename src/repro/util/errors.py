"""Bounded, structured records of exceptions.

Failures that are handled rather than raised (a poisoned campaign cell,
a failed background tune) are kept as small records so they can be
inspected later without the process's stdout.  Bounded so one
pathological repr cannot bloat a store row or a server's memory.
"""

from __future__ import annotations

import json
import traceback

__all__ = ["MESSAGE_LIMIT", "TRACEBACK_LIMIT", "error_record", "format_worker_error"]

#: Cap on a recorded exception message, in characters.
MESSAGE_LIMIT = 500

#: Cap on the persisted traceback, in characters.  The tail is kept —
#: the innermost frames are the ones that identify the failure.
TRACEBACK_LIMIT = 4000


def error_record(exc: BaseException) -> dict[str, str]:
    """The exception's type name and its message, cut to
    :data:`MESSAGE_LIMIT` characters."""
    message = str(exc)
    if len(message) > MESSAGE_LIMIT:
        message = message[:MESSAGE_LIMIT] + "..."
    return {"type": type(exc).__name__, "message": message}


def format_worker_error(exc: BaseException, limit: int = TRACEBACK_LIMIT) -> str:
    """A structured, bounded ``last_error`` payload for a failed cell.

    JSON with the exception type, its message, and the traceback tail —
    enough to diagnose a poisoned cell from the store alone, without the
    worker's stdout.  Stored as text in ``campaign_cells.last_error``;
    readers that expect the old ``"Type: message"`` form still get a
    readable string, and ``json.loads`` recovers the structure.
    """
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    if len(tb) > limit:
        tb = "...(truncated)...\n" + tb[-limit:]
    return json.dumps({**error_record(exc), "traceback": tb})
