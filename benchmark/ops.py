"""One benchmark operation: a CLI argv run in-process under a latency limit.

The limit is enforced with ``signal.setitimer`` in the main thread, so no
thread or process is started.  An operation over the limit is abandoned at
the next Python bytecode boundary, counts as failed and contributes exactly
the limit to the timings.
"""

from __future__ import annotations

import hashlib
import io
import os
import signal
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from checks import Mismatch

COMPLETE = "complete"
TRUNCATED = "truncated"
FAILED = "failed"


@dataclass
class Op:
    """A CLI call, the file its main result goes to, and how to check it."""

    id: str
    argv: list
    n: int
    output: str
    expect: object  # has check(exit_code, output_path) -> bool (complete?)


@dataclass
class Outcome:
    """What one run of an operation did."""

    status: str  # COMPLETE, TRUNCATED or FAILED
    seconds: float  # wall time, or the limit when abandoned
    reason: str = ""  # why it failed
    mismatch: bool = False  # the output was wrong, not merely missing
    crashed: bool = False  # an exception escaped the CLI


class OverLimit(BaseException):
    """Raised from the timer signal; a BaseException so the CLI cannot catch it."""


def _raise_over_limit(signum, frame):
    raise OverLimit()


def _digest(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_op(main, op: Op, limit_s: float, verified: dict | None = None) -> Outcome:
    """Run ``main(op.argv)`` once, then check its output outside the timing.

    ``verified`` maps op ids to (output digest, complete) of outputs that
    passed their check; a byte-identical output is not checked again.
    """
    if os.path.exists(op.output):
        os.remove(op.output)  # a stale output from an earlier pass must not pass
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_over_limit)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                code = main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except OverLimit:
        return Outcome(FAILED, limit_s, f"over the limit ({limit_s:g} s)")
    except SystemExit as exc:
        return Outcome(FAILED, time.perf_counter() - start, f"SystemExit {exc.code}", crashed=True)
    except Exception as exc:  # the op is reported by name; the run goes on
        seconds = time.perf_counter() - start
        return Outcome(FAILED, seconds, f"{type(exc).__name__}: {exc}", crashed=True)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if code == 1:
        first = (err.getvalue().strip().splitlines() or [""])[0]
        return Outcome(FAILED, seconds, f"exit 1: {first}")
    if op.argv[0] == "verify" and code == 2:
        return Outcome(FAILED, seconds, "verify exit 2")
    digest = _digest(op.output)
    if verified is not None and op.id in verified and verified[op.id][0] == digest:
        return Outcome(COMPLETE if verified[op.id][1] else TRUNCATED, seconds)
    try:
        complete = op.expect.check(code, op.output)
    except Mismatch as exc:
        return Outcome(FAILED, seconds, f"check mismatch: {exc}", mismatch=True)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output
        reason = f"check mismatch: {type(exc).__name__}: {exc}"
        return Outcome(FAILED, seconds, reason, mismatch=True)
    if verified is not None and digest is not None:
        verified[op.id] = (digest, complete)
    return Outcome(COMPLETE if complete else TRUNCATED, seconds)
