"""Retry/backoff machinery around one mining attempt.

LLM backends fail transiently — timeouts, 429s, connection resets,
modelled by :class:`repro.llm.faults.TransientLLMError` — and a grid
run must degrade to a delayed cell, not a dead process.  Each attempt gets
exponentially more breathing room, and a cooperative per-job timeout
bounds how long a cell may churn before it is declared FAILED.

Both the clock and the sleep function are injectable so tests drive
backoff schedules deterministically in zero wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.llm.faults import TransientLLMError


class RetriesExhaustedError(RuntimeError):
    """Every allowed attempt failed transiently."""

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"all {attempts} attempts failed transiently; "
            f"last error: {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


class JobTimeoutError(RuntimeError):
    """The job's cooperative deadline passed between attempts."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**n``, capped."""

    max_retries: int = 3             # retries *beyond* the first attempt
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    timeout_seconds: Optional[float] = None   # cooperative per-job budget

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        return min(
            self.max_delay, self.base_delay * self.multiplier ** retry_index
        )


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientLLMError,),
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
) -> object:
    """Call ``fn`` with exponential-backoff retries on transient errors.

    Non-retryable exceptions propagate immediately.  The cooperative
    timeout is checked between attempts (the simulated pipelines are
    synchronous, so mid-call preemption is neither possible nor needed):
    when the next backoff would land past the deadline, the job fails
    with :class:`JobTimeoutError` rather than sleeping uselessly.
    """
    deadline = (
        clock() + policy.timeout_seconds
        if policy.timeout_seconds is not None else None
    )
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn()
        except retryable as error:
            retry_index = attempts - 1
            if retry_index >= policy.max_retries:
                raise RetriesExhaustedError(attempts, error) from error
            pause = policy.delay(retry_index)
            if deadline is not None and clock() + pause > deadline:
                raise JobTimeoutError(
                    f"deadline of {policy.timeout_seconds}s would pass "
                    f"during backoff after {attempts} attempts"
                ) from error
            if on_retry is not None:
                on_retry(attempts, pause, error)
            sleep(pause)
