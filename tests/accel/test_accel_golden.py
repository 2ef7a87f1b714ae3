"""Frozen rival goldens: victima, pcax and revelator pinned exactly.

``tests/data/golden_accel.json`` holds ``RunResult.to_dict()`` for the
three rival translation designs on three programs (redis,
unordered_map, btree), captured from the reference mode, minus the two
fields that only name the run (``label`` and ``frontend``).  Every
counter, the cycle attribution and the ``accel`` telemetry are
pinned.  At 6,000 keys every rival fires in the measured window: on
Redis victima and pcax serve translations in place of page walks, and
revelator's speculation hits, so a backend that stops filling or
serving its table moves these numbers.  Both execution modes must
reproduce them.

Regenerate (only for a deliberate, documented change of simulated
results)::

    PYTHONPATH=src python -m tests.accel.test_accel_golden
"""

import json
from pathlib import Path

import pytest

from repro.sim.config import RunConfig
from repro.sim.engine import run_experiment

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_accel.json"
RIVALS = ("victima", "pcax", "revelator")
PROGRAMS = ("redis", "unordered_map", "btree")
SIZE = dict(num_keys=6_000, measure_ops=300, warmup_ops=600)
#: fields that name the run rather than measure it
NAMING_FIELDS = ("label", "frontend")


def capture(program: str, design: str,
            exec_mode: str = "reference") -> dict:
    config = RunConfig(program=program, frontend=design,
                       exec_mode=exec_mode, **SIZE)
    record = run_experiment(config).to_dict()
    for name in NAMING_FIELDS:
        del record[name]
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_rival_and_program(golden):
    assert sorted(golden) == sorted(f"{program}/{design}"
                                    for program in PROGRAMS
                                    for design in RIVALS)


@pytest.mark.parametrize("exec_mode", ["reference", "batched"])
@pytest.mark.parametrize("design", RIVALS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_matches_golden(golden, program, design, exec_mode):
    assert capture(program, design, exec_mode) == \
        golden[f"{program}/{design}"]


def test_every_rival_fires_on_redis(golden):
    """The sizes were picked so the rivals serve translations in the
    measured window; a golden of idle backends would pin nothing."""
    for design in RIVALS:
        accel = golden[f"redis/{design}"]["accel"]
        served = accel["spec_hits"] if design == "revelator" \
            else accel["hits"]
        assert served > 0, design


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {f"{program}/{design}": capture(program, design)
         for program in PROGRAMS for design in RIVALS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
