"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError`, so
callers can catch simulator-specific failures without masking genuine
programming errors (``TypeError`` and friends pass through unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class AddressError(ReproError):
    """An address was malformed or outside the simulated address space."""


class PageFault(ReproError):
    """A virtual address was accessed with no valid translation.

    The regular page-table walker raises this (the OS would handle it);
    the *simplified* page-table walker used by ``insertSTLT`` catches it
    and returns a null PTE instead, per Section III-D2 of the paper.
    """

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"page fault at virtual address {vaddr:#x}")
        self.vaddr = vaddr


class AllocationError(ReproError):
    """The simulated allocator ran out of its configured address region."""


class STLTError(ReproError):
    """Misuse of the STLT interface (bad size, missing allocation, ...)."""


class KVSError(ReproError):
    """Errors from the simulated key-value stores and index structures."""


class CoherenceError(ReproError):
    """The stale-translation oracle caught a wrong or torn fast-path read.

    Raised by :class:`repro.chaos.oracle.StaleTranslationOracle` when a
    GET returns a record that disagrees with the authoritative record
    store — a stale VA that validated against the wrong record, a key
    mismatch that slipped through, or a fast-path hit whose page has no
    live translation.  This is the loud-failure half of the paper's lazy
    STLT-coherence story (Section III-D1): churn may cost cycles, never
    correctness.
    """


class FaultInjectionError(ReproError):
    """A chaos fault plan was malformed or could not be applied."""


class ClusterError(ReproError):
    """The cluster model was misconfigured or lost coherence.

    Raised for invalid topologies (replicas without enough nodes,
    removing the last node), malformed network parameters, and — the
    loud-failure case — when the cluster routing oracle catches a
    request served by a node that does not authoritatively own the
    key's hash slot (the cluster-scale analogue of
    :class:`CoherenceError`: a stale route must cost a redirect, never
    a wrong answer).
    """


class HeteroError(ClusterError):
    """A heterogeneous fleet was misdeclared or broke its capability
    contract.

    Raised at config time for a malformed ``--node-types`` spec (bad
    grammar, zero counts, no full node, a count that disagrees with
    ``nodes``) and — the loud-failure case — by the capability oracle
    when a request is *served* by a node whose class cannot serve
    it: a SET answered by an
    accelerator, or an accelerator answering for a key its on-chip
    memory does not hold.  Capability misroutes must cost a
    deterministic fallback hop, never a wrong answer — the
    heterogeneous analogue of :class:`ClusterError`'s stale-route
    contract.
    """


class FailoverError(ClusterError):
    """The failover oracle caught an acknowledged write that was lost.

    Raised at the end of a cluster run when a write that was
    acknowledged while a live replica existed is no longer readable
    from any node in the slot's authoritative read set — a promotion
    that landed on a non-holder, a forgotten replica, or a repair
    policy that dropped the only surviving copy.  Replica-less runs
    (``replicas=0``) and total-loss events (every holder of a key
    crashed before re-replication could complete) are *reported* as
    data-loss telemetry instead: no model could have saved those
    writes, so they are loud numbers, not bugs.
    """
