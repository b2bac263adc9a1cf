"""Client retry policy: attempts, per-op timeout, exponential backoff.

Backoff jitter draws from the retried
:class:`~repro.hardware.client.StoreClient`'s own ``<client>.retry``
:class:`~repro.sim.randomness.RngStreams` stream, so retry timing is
deterministic per seed and independent across clients — the same
de-correlation real jittered backoff buys, without wall-clock
randomness.

The retry machinery owns three op-ledger component names (see
:mod:`repro.obs.ledger`): clients charge every backoff sleep to
:data:`BACKOFF_COMPONENT` — so a retried op's backoff component equals
the sum of its seeded :meth:`RetryPolicy.delay` draws exactly — the
remainder of an attempt window lost to the op-timeout race to
:data:`TIMEOUT_COMPONENT`, and the tail of a failed attempt to
:data:`FAILED_COMPONENT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, TypeVar

import numpy as np

from repro.errors import ConfigError, UnavailableError

if TYPE_CHECKING:
    from repro.hardware.client import StoreClient

__all__ = [
    "BACKOFF_COMPONENT",
    "FAILED_COMPONENT",
    "RetryPolicy",
    "TIMEOUT_COMPONENT",
    "run_with_retry",
]

#: ledger component: seeded exponential-backoff sleeps between attempts
BACKOFF_COMPONENT = "backoff"
#: ledger component: attempt time lost to the op-timeout race
TIMEOUT_COMPONENT = "timeout"
#: ledger component: tail of a failed (non-timeout) attempt
FAILED_COMPONENT = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """How a client responds to :class:`~repro.errors.UnavailableError`.

    ``max_attempts`` counts the first try: 3 means up to two retries.
    ``op_timeout`` (simulated seconds) aborts an in-flight operation and
    counts it as one failed attempt; ``None`` disables the timeout.
    Retry *n* (1-based) waits ``backoff_base * backoff_factor**(n-1)``
    seconds, scaled by a lognormal jitter factor of sigma ``jitter``.

    The default policy never injects events on the happy path: timing
    of fault-free runs is unchanged.
    """

    max_attempts: int = 3
    op_timeout: Optional[float] = None
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ConfigError(f"op_timeout must be > 0, got {self.op_timeout}")
        if self.backoff_base <= 0:
            raise ConfigError(f"backoff_base must be > 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0 and rng is not None:
            base *= float(np.exp(rng.normal(0.0, self.jitter)))
        return base


_T = TypeVar("_T")


def run_with_retry(
    client: StoreClient,
    make_op: Callable[[Any], Generator[Any, Any, _T]],
    op_name: str,
    ledger_name: str,
    hist: Optional[Any] = None,
) -> Generator[Any, Any, _T]:
    """Run ``make_op(op_ctx)`` (a coroutine factory) under the client's
    :class:`RetryPolicy`.

    ``UnavailableError`` — a down target, a write below quorum, or a
    per-op timeout — is retried with exponential backoff up to
    ``max_attempts``; each retry re-runs the functional op against the
    *current* cluster state, so reads fail over to surviving replicas.
    Anything else (notably :class:`~repro.errors.DataLossError` and
    :class:`~repro.errors.DegradedError`) propagates immediately.  With
    ``op_timeout`` unset the op runs inline: fault-free runs see the
    exact same event sequence as without the retry layer — no extra
    events, no extra RNG draws.

    The whole retry loop runs inside one op-ledger context, so a
    retried op's decomposition carries its ``backoff``/``timeout``/
    ``failed`` overhead next to the transfer components of the winning
    attempt; the context closes at the same instant the latency
    histogram observes, making the component sum equal the recorded
    latency exactly.  An op that calls ``op_ctx.discard()`` (e.g. a
    zero-byte read) skips the histogram too, keeping ledger and
    registry counts equal.
    """
    policy = client.retry
    sim = client.sim
    with client._ledger.op(ledger_name, sim) as opx:
        start = sim.now
        attempt = 1
        while True:
            try:
                if policy.op_timeout is None:
                    value = yield from make_op(opx)
                else:
                    proc = sim.process(
                        make_op(opx), name=f"{client.name}.{op_name}"
                    )
                    index, got = yield sim.any_of(
                        [proc, sim.timeout(policy.op_timeout)]
                    )
                    if index != 0:
                        proc.interrupt("op-timeout")
                        # whatever the attempt was doing since its
                        # last note is time lost to the timeout race
                        opx.note(TIMEOUT_COMPONENT)
                        raise UnavailableError(
                            f"{client.name}: {op_name} timed out after "
                            f"{policy.op_timeout} s"
                        )
                    value = got
                if hist is not None and not getattr(opx, "_discarded", False):
                    hist.observe(sim.now - start)
                return value
            except UnavailableError:
                opx.note(FAILED_COMPONENT)
                if attempt >= policy.max_attempts:
                    raise
                client.retries += 1
                opx.flag("retried")
                if client._obs is not None:
                    client._m_retried.inc()
                yield sim.timeout(policy.delay(attempt, client._backoff_rng()))
                opx.note(BACKOFF_COMPONENT)
                attempt += 1
