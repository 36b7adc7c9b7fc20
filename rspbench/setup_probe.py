"""Set-up probe, run in a fresh interpreter by run.py.

Times importing the campaign CLI and building the workload's first runner
(or, for paper_tables, its mapper), and the reference loop just before and
just after that, and prints the three as one JSON line.
Usage: python3 setup_probe.py '<spec json>' <reference iterations>  (with
the program's src/ on PYTHONPATH; run.py passes the spec its workload
builds).
"""

import json
import sys
from time import perf_counter

from refloop import timed

iterations = int(sys.argv[2])
ref_before = timed(iterations)
start = perf_counter()
import repro.engine.__main__  # noqa: E402,F401

imported = perf_counter()
spec = json.loads(sys.argv[1])
if "artifact_dir" in spec:
    from repro.engine.artifacts import ArtifactStore
    from repro.eval import tables  # noqa: F401
    from repro.mapping.mapper import RSPMapper

    RSPMapper(store=ArtifactStore(spec["artifact_dir"]))
else:
    from repro.engine.jobs import CampaignSpec
    from repro.engine.runner import CampaignRunner

    runner = CampaignRunner(
        CampaignSpec(
            name="campaign",
            suites=tuple(spec["suites"]),
            max_rows_shared=spec["max_shared"],
            max_cols_shared=spec["max_shared"],
            stage_options=tuple(spec["stages"]),
            backend="serial",
            workers=1,
        ),
        cache_dir=spec["cache_dir"],
    )
    runner.close()
end = perf_counter()
ref_s = (ref_before + timed(iterations)) / 2
print(json.dumps({"import_s": imported - start, "setup_s": end - start, "ref_s": ref_s}))
