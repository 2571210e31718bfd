"""The paper's named latency events.

:class:`LatencyEventKind` tags each latency measurement the engine hands
to an observability tracer (:mod:`repro.obs`); tracing is the engine's
only observation channel and is off the hot path when disabled.
"""

from __future__ import annotations

import enum


class LatencyEventKind(enum.Enum):
    """The paper's eight named latency events (Section 3 / Section 4).

    Each kind corresponds one-to-one to a :class:`~repro.core.latency.
    LatencyModel` variable: a *latency event* is one measured occurrence of
    the delay that variable models, from the end of its first
    microarchitectural event to the end of its second.  The observability
    subsystem (:mod:`repro.obs`) records these per instruction so the
    distributions behind the end-of-run counters become visible.
    """

    EXEC_EQUALITY = "exec-equality"
    EQUALITY_VERIFICATION = "equality-verification"
    EQUALITY_INVALIDATION = "equality-invalidation"
    VERIFICATION_FREE_ISSUE = "verification-free-issue"
    VERIFICATION_FREE_RETIREMENT = "verification-free-retirement"
    INVALIDATION_REISSUE = "invalidation-reissue"
    VERIFICATION_BRANCH = "verification-branch"
    VERIFICATION_ADDR_MEM_ACCESS = "verification-addr-mem-access"

    @property
    def paper_name(self) -> str:
        return _PAPER_NAMES[self]

    @property
    def latency_field(self) -> str:
        """The ``LatencyModel`` field this event kind instantiates."""
        return _LATENCY_FIELDS[self]


#: Section 3 names, as the paper prints them.
_PAPER_NAMES: dict[LatencyEventKind, str] = {
    LatencyEventKind.EXEC_EQUALITY: "Execution - Equality",
    LatencyEventKind.EQUALITY_VERIFICATION: "Equality - Verification",
    LatencyEventKind.EQUALITY_INVALIDATION: "Equality - Invalidation",
    LatencyEventKind.VERIFICATION_FREE_ISSUE:
        "Verification - Free Issue Resource",
    LatencyEventKind.VERIFICATION_FREE_RETIREMENT:
        "Verification - Free Retirement Resource",
    LatencyEventKind.INVALIDATION_REISSUE: "Invalidation - Reissue",
    LatencyEventKind.VERIFICATION_BRANCH: "Verification - Branch",
    LatencyEventKind.VERIFICATION_ADDR_MEM_ACCESS:
        "Verification Address - Memory Access",
}

_LATENCY_FIELDS: dict[LatencyEventKind, str] = {
    LatencyEventKind.EXEC_EQUALITY: "exec_to_equality",
    LatencyEventKind.EQUALITY_VERIFICATION: "equality_to_verification",
    LatencyEventKind.EQUALITY_INVALIDATION: "equality_to_invalidation",
    LatencyEventKind.VERIFICATION_FREE_ISSUE: "verification_to_free_issue",
    LatencyEventKind.VERIFICATION_FREE_RETIREMENT:
        "verification_to_free_retirement",
    LatencyEventKind.INVALIDATION_REISSUE: "invalidation_to_reissue",
    LatencyEventKind.VERIFICATION_BRANCH: "verification_to_branch",
    LatencyEventKind.VERIFICATION_ADDR_MEM_ACCESS:
        "verification_addr_to_mem_access",
}
