"""Run setup stages in a fresh interpreter.

    python3 perfbench/setup_child.py CONFIG_JSON STAGE[,STAGE...]

run.py times this whole process, so a workload's setup time includes starting
Python and importing quantplan. Everything after the numpy import runs under a
HostClock. The last line of output is a JSON object with the raw seconds each
stage took and the clock's readings, from which run.py scales the whole setup
to nominal host speed.
"""

from __future__ import annotations

import json
import sys

from hostref import HostClock
from workloads import load_quantplan


def main(argv: list[str]) -> None:
    config_json, stages = argv
    stage_s = {}
    with HostClock() as clock:
        load_quantplan()
        from quantplan.config import config_from_dict
        from quantplan.pipeline import run_stage

        cfg = config_from_dict(json.loads(config_json))
        for stage in filter(None, stages.split(",")):
            clock.stage(stage)
            t0 = clock.now()
            run_stage(cfg, stage)
            stage_s[stage] = clock.now() - t0
    print(json.dumps({"stage_s": stage_s, "raw_s": clock.raw_s, "nominal_s": clock.nominal_s,
                      "probe_total_s": clock.probe_total_s, "first_probe_s": clock.first_probe_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
