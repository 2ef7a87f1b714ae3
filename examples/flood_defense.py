#!/usr/bin/env python3
"""Security scenario: a hash-flooding attack and STLT's two defences.

Section II: key-value stores adopt expensive attack-resistant hashes
(SipHash) because an attacker who understands the hash can flood one
bucket with colliding keys.  Section III-H argues STLT lets the *fast
path* use a cheap hash safely, because:

  1. collisions on the STLT fast path merely fall back to the slow path
     (whose attack-resistant hash still protects the real table), adding
     only bounded constant overhead per request; and
  2. the runtime performance monitor notices when the fast path stops
     paying for itself and switches STLT off entirely.

This example stages the attack and shows both defences working.

Run:
    python examples/flood_defense.py
"""

from repro import RunConfig
from repro.core.monitor import PerformanceMonitor
from repro.sim.engine import Engine
from repro.workloads.keys import key_bytes

STORE = dict(
    program="unordered_map",
    distribution="zipf",
    value_size=64,
    num_keys=20_000,
    measure_ops=2_000,
)


def main() -> None:
    engine = Engine(RunConfig(frontend="stlt", **STORE))
    ctx, frontend, stu = engine.ctx, engine.frontends[0], engine.stus[0]

    print("1) Honest traffic: warm the fast path")
    for i in range(2_000):
        frontend.get(key_bytes(i % STORE["num_keys"]))
    print(f"   fast-path miss rate: {frontend.fast_miss_rate:.2%}")

    print()
    print("2) Flood: requests for absent keys (all fast-path misses)")
    cycles_before = ctx.mem.now
    inserts_before = stu.insert_count
    for i in range(2_000):
        result = frontend.get(key_bytes(10_000_000 + i))
        assert result is None
    flood_cost = (ctx.mem.now - cycles_before) / 2_000
    print(f"   cost per flood request: {flood_cost:.0f} cycles "
          "(bounded: one loadVA miss + the slow path)")
    print(f"   STLT rows inserted by the flood: "
          f"{stu.insert_count - inserts_before} (absent keys are never "
          "inserted)")

    print()
    print("3) Monitor defence: dynamic switch-off under sustained flood")
    monitor = PerformanceMonitor(stu, window_ops=256, tolerance=0.0)
    i = 20_000_000
    for _ in range(4 * 256):
        frontend.get(key_bytes(i))
        monitor.record_op()
        i += 1
    state = "ENABLED" if monitor.stlt_enabled else "DISABLED"
    print(f"   after {monitor.decisions} monitor decision(s), "
          f"STLT is {state}")

    print()
    print("4) Service restored for legitimate keys either way:")
    hit = frontend.get(key_bytes(42))
    print(f"   GET user...42 -> {hit is engine.records[42]}")


if __name__ == "__main__":
    main()
