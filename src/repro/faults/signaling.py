"""Resilient signaling semantics: acknowledgements, retries, backoff.

The paper's update message is fire-and-forget; a real signaling plane
acknowledges it.  :class:`SignalingPolicy` describes what the terminal
and network do when the acknowledgement does not come:

* an update that is not acked within ``ack_timeout_slots`` is
  retransmitted, up to ``max_update_retries`` times, with exponential
  backoff (``ack_timeout_slots * backoff_factor**k`` before retry
  ``k``).  Every retransmission is a full update transaction and is
  charged ``U`` -- resilience is not free, and the meter shows it;
* a call whose planned paging completes without an answer is re-paged
  (the full plan again) up to ``max_repage_attempts`` times before the
  network escalates to expanding-ring recovery paging.

The engine resolves retries within the slot that triggered them -- the
mobility chain's slot is far coarser than signaling round-trips -- and
accounts the backoff waiting time separately (see
:attr:`~repro.faults.ResilientEngine.update_latency_slots`) instead of
stalling the walk.

``on_exhaustion`` selects between the two defensible behaviors when
every retry is lost: ``"abandon"`` (default) lets the views diverge and
trusts recovery paging, preserving the graceful-degradation story even
at 100% loss; ``"raise"`` raises
:class:`~repro.exceptions.RecoveryExhaustedError` for deployments where
a silently failed update is unacceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ParameterError

__all__ = ["SignalingPolicy"]

_EXHAUSTION_MODES = ("abandon", "raise")


@dataclass(frozen=True)
class SignalingPolicy:
    """How hard the signaling plane tries before giving up."""

    ack_timeout_slots: float = 1.0
    max_update_retries: int = 3
    backoff_factor: float = 2.0
    max_repage_attempts: int = 1
    on_exhaustion: str = "abandon"

    def __post_init__(self) -> None:
        if self.ack_timeout_slots <= 0:
            raise ParameterError(
                f"ack_timeout_slots must be > 0, got {self.ack_timeout_slots}"
            )
        if self.max_update_retries < 0:
            raise ParameterError(
                f"max_update_retries must be >= 0, got {self.max_update_retries}"
            )
        if self.backoff_factor < 1.0:
            raise ParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_repage_attempts < 0:
            raise ParameterError(
                f"max_repage_attempts must be >= 0, got {self.max_repage_attempts}"
            )
        if self.on_exhaustion not in _EXHAUSTION_MODES:
            raise ParameterError(
                f"on_exhaustion must be one of {_EXHAUSTION_MODES}, "
                f"got {self.on_exhaustion!r}"
            )

    def retry_wait(self, attempt: int) -> float:
        """Slots waited before retry ``attempt`` (1-based): timeout + backoff."""
        if attempt < 1:
            raise ParameterError(f"attempt must be >= 1, got {attempt}")
        return self.ack_timeout_slots * self.backoff_factor ** (attempt - 1)

    @classmethod
    def fire_and_forget(cls) -> "SignalingPolicy":
        """The paper's semantics: transmit and hope.

        No acknowledgement, no retries, no re-page: a lost update stays
        lost until recovery paging repairs the divergence.
        """
        return cls(max_update_retries=0, max_repage_attempts=0)
