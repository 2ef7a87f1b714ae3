"""On-chip hardware cost accounting, reproducing Table I bit-for-bit.

The paper assumes 48-bit virtual addresses and 4 KB pages, so a virtual
page number is 36 bits; physical addresses are 44 bits.  Component
inventories:

* CR_S            : 64 bits (STLT base address and size)
* Invalid page buffer: 32 entries x 36-bit vpn + one 6-bit counter = 1158
* STB             : 32 entries x (64-bit VA + 64-bit PTE)        = 4096
* Insertion buffer:  8 entries x (64-bit VA + 64-bit PTE + 44-bit PA)
                                                                  = 1376
* Total             6694 bits = 837 bytes
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..params import DEFAULT_MACHINE

VA_BITS = 48
PAGE_OFFSET_BITS = 12
VPN_BITS = VA_BITS - PAGE_OFFSET_BITS  # 36
PA_BITS = 44
PTE_BITS = 64


@dataclass(frozen=True)
class HardwareCostReport:
    """Bit costs per component plus the total (Table I)."""

    components: Dict[str, int]

    @property
    def total_bits(self) -> int:
        return sum(self.components.values())

    @property
    def total_bytes(self) -> int:
        # the paper rounds 6694 bits up to 837 bytes
        return (self.total_bits + 7) // 8

    def rows(self):
        """(component, bits) pairs in Table I order plus the total."""
        yield from self.components.items()
        yield "Total", self.total_bits


def hardware_cost(
    ipb_entries: int = 32,
    stb_entries: int = 32,
    insertion_entries: int = 8,
) -> HardwareCostReport:
    """Compute the on-chip bit budget for the given buffer geometries."""
    ipb_counter_bits = max(ipb_entries - 1, 1).bit_length() + 1  # 6 for 32
    return HardwareCostReport(
        components={
            "CR_S": 64,
            "Invalid page buffer": ipb_entries * VPN_BITS + ipb_counter_bits,
            "STB": stb_entries * (64 + PTE_BITS),
            "Insertion buffer": insertion_entries * (64 + PTE_BITS + PA_BITS),
        }
    )


# ----------------------------------------------------------------------
# rival translation accelerators (repro.accel) — Table-1-style budgets
# ----------------------------------------------------------------------

PFN_BITS = PA_BITS - PAGE_OFFSET_BITS  # 32

#: associativity of the victima and pcax tables (their set count is
#: ``RunConfig.effective_accel_rows``); here rather than in
#: :mod:`repro.accel`, which imports this module
ACCEL_WAYS = 4

#: sets of the pcax table whose budget :func:`accel_hardware_cost`
#: quotes (``RunConfig.effective_accel_rows`` at 32k keys)
PCAX_BUDGET_SETS = 4096


def victima_cost(l2_lines: int, l3_lines: int,
                 fill_buffer_entries: int = 4,
                 ways: int = ACCEL_WAYS) -> HardwareCostReport:
    """Victima parks translations in *existing* L2/L3 data capacity, so
    its dedicated budget is per-line metadata plus control:

    * 2 bits per L2/L3 line (is-TLB-block tag + replacement hint);
    * a PTW-fill buffer staging walked translations into the cache;
    * vpn tag comparators on the probe path (one per way).
    """
    return HardwareCostReport(
        components={
            "Cache TLB-block tags": 2 * (l2_lines + l3_lines),
            "PTW fill buffer": fill_buffer_entries * (VPN_BITS + PTE_BITS),
            "Probe comparators": ways * VPN_BITS,
        }
    )


def pcax_cost(sets: int, ways: int = ACCEL_WAYS,
              pc_bits: int = 8) -> HardwareCostReport:
    """PCAX keeps a dedicated PC-indexed translation table: every entry
    stores a vpn tag, the pfn, a valid bit, and the (hashed) PC tag of
    the op site that trained it."""
    entry_bits = VPN_BITS + PFN_BITS + 1 + pc_bits
    return HardwareCostReport(
        components={
            "PC-indexed table": sets * ways * entry_bits,
            "PC hash": 64,
            "Probe comparators": ways * (VPN_BITS + pc_bits),
        }
    )


def revelator_cost() -> HardwareCostReport:
    """Revelator speculates via a software-managed hash, so its on-chip
    cost is control state only: the hash-function seed registers, the
    in-flight speculation status, and the validation comparator that
    squashes misspeculated fetches."""
    return HardwareCostReport(
        components={
            "Hash seed registers": 128,
            "Speculation status": 64,
            "Validation comparator": PA_BITS,
        }
    )


def kv_accel_cost(capacity_keys: int = 4096,
                  key_limit_bytes: int = 255) -> HardwareCostReport:
    """Table-I-style budget of one KV-lookup accelerator node
    (:mod:`repro.hetero`): the fixed-capacity on-chip key store plus
    the lookup pipeline's control state.

    * two frozen 256-entry Pearson permutation tables (dual hash);
    * the key store: per slot a valid bit, an 8-bit key length (the
      255-byte wire limit), and the key bytes themselves;
    * value *descriptors*, not values: ASSOCIATE binds an address and
      length in node memory, so each slot carries one PA + 32-bit len;
    * mode/control register (read/write mode, drain state).
    """
    slot_bits = 1 + 8 + key_limit_bytes * 8
    return HardwareCostReport(
        components={
            "Pearson hash tables": 2 * 256 * 8,
            "Key store": capacity_keys * slot_bits,
            "Value descriptors": capacity_keys * (PA_BITS + 32),
            "Mode/control": 64,
        }
    )


def accel_hardware_cost(accel: str) -> HardwareCostReport:
    """Per-backend hardware budget for the repro.accel head-to-head, on
    the Table III machine."""
    if accel == "stlt":
        return hardware_cost()
    if accel == "victima":
        return victima_cost(DEFAULT_MACHINE.l2.num_lines,
                            DEFAULT_MACHINE.l3.num_lines)
    if accel == "pcax":
        return pcax_cost(PCAX_BUDGET_SETS)
    if accel == "revelator":
        return revelator_cost()
    if accel == "none":
        return HardwareCostReport(components={})
    raise ValueError(f"unknown accel {accel!r}")
