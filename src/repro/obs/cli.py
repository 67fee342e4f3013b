"""What the package's command-line mains share: a reader that stops early.

``python -m repro.obs report spans.jsonl --tree | head`` closes the pipe
after ten lines, and the command's next write raises ``BrokenPipeError``.
That is the reader's choice, not a failure of the command, so it ends with
no traceback: the ``signal`` module documentation's recipe for SIGPIPE.
Only stdout's reader is let go quietly: a ``BrokenPipeError`` from
anything else (``repro.serve ping`` writing to a server that has gone) is
a failure and keeps its traceback.
"""

from __future__ import annotations

import os
import select
import sys
from typing import Callable


def run_main(main: Callable[[], int]) -> int:
    """``main()``'s exit status, or 1 without a traceback when its stdout's
    reader has gone (``raise SystemExit(run_main(main))``)."""
    try:
        status = main()
        # Flush inside the try: a closed pipe must fail here, not in the
        # interpreter's flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise
        # Python flushes stdout again at exit; point it at devnull so that
        # flush has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe or socket whose reader has closed it: a
    write end with no reader polls as an error."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # no file, or a closed one
        return False
    if not hasattr(select, "poll"):  # Windows: no way to ask; trust the error
        return True
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(event & (select.POLLERR | select.POLLHUP) for _, event in poller.poll(0))


__all__ = ["run_main"]
