"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 rspbench/selftest.py
"""

from __future__ import annotations

import gc
import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import refloop  # noqa: E402
import run  # noqa: E402
from schedcheck import check_schedule  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("root", 0.0, 10.0),
            ("a", 1.0, 5.0),
            ("b", 2.0, 3.0),  # inside a
            ("c", 6.0, 9.0),
            ("a", 7.0, 8.0),  # inside c, same layer as the first a
        ]
        self_times = layers.exclusive_self_times(spans)
        self.assertEqual(self_times, {"root": 3.0, "a": 4.0, "b": 1.0, "c": 2.0})
        self.assertAlmostEqual(sum(self_times.values()), 10.0)

    def test_children_are_not_double_counted(self):
        # A grandchild is covered by its parent only, not by the root.
        spans = [("root", 0.0, 4.0), ("a", 0.0, 3.0), ("b", 1.0, 2.0)]
        self.assertEqual(
            layers.exclusive_self_times(spans), {"root": 1.0, "a": 2.0, "b": 1.0}
        )


class ReferenceLoopTest(unittest.TestCase):
    def test_runs_with_gc_off_and_restores_it(self):
        seen = []
        original = refloop.spin
        refloop.spin = lambda n: seen.append(gc.isenabled())
        try:
            gc.enable()
            refloop.timed(10)
        finally:
            refloop.spin = original
        self.assertEqual(seen, [False])
        self.assertTrue(gc.isenabled())

    def test_allocates_no_tracked_objects(self):
        # With a collection threshold of 1, any two GC-tracked objects
        # allocated inside spin() would start a collection.
        def collections_during(call):
            seen = []
            threshold = gc.get_threshold()
            gc.collect()
            gc.callbacks.append(lambda phase, info: seen.append(phase))
            try:
                gc.set_threshold(1)
                call()
            finally:
                gc.set_threshold(*threshold)
                gc.callbacks.pop()
            return seen

        self.assertEqual(collections_during(lambda: refloop.spin(20_000)), [])
        # The probe works: allocating tuples does start collections.
        self.assertNotEqual(collections_during(lambda: [(i,) for i in range(100)]), [])



class HooksTest(unittest.TestCase):
    def test_wrappers_restore_originals(self):
        targets = [layers._resolve(hook.target) for hook in layers.HOOKS]
        originals = [vars(owner)[name] for owner, name in targets]
        with layers.Hooks(layers.Recorder()):
            for (owner, name), original in zip(targets, originals):
                self.assertIsNot(vars(owner)[name], original, name)
        for (owner, name), original in zip(targets, originals):
            self.assertIs(vars(owner)[name], original, name)

    def test_functions_are_wrapped_at_every_name_callers_resolve(self):
        import repro.engine.executor
        import repro.engine.jobs
        import repro.engine.runner

        original = repro.engine.jobs.evaluation_context_hash
        importers = (repro.engine.jobs, repro.engine.executor, repro.engine.runner)
        with layers.Hooks(layers.Recorder()):
            wrapped = {module.evaluation_context_hash for module in importers}
            self.assertEqual(len(wrapped), 1)
            self.assertIsNot(wrapped.pop(), original)
        for module in importers:
            self.assertIs(module.evaluation_context_hash, original, module.__name__)

    def test_spans_and_counts_of_a_real_call(self):
        from repro.arch.template import base_architecture
        from repro.kernels import get_kernel
        from repro.mapping.mapper import RSPMapper

        recorder = layers.Recorder()
        with layers.Hooks(recorder):
            RSPMapper().map_kernel(get_kernel("MVM"), base_architecture())
        totals = recorder.totals()
        self.assertEqual(totals["mapping.schedule.calls"], 1)
        self.assertGreater(totals["mapping.placement.probes"], 0)
        self.assertEqual(len(recorder.schedules), 1)


class ScheduleCheckerTest(unittest.TestCase):
    def setUp(self):
        from repro.arch.template import base_architecture
        from repro.kernels import get_kernel
        from repro.mapping.loop_pipelining import LoopPipeliningScheduler

        self.arch = base_architecture()
        self.dfg = get_kernel("MVM").build()
        self.schedule = LoopPipeliningScheduler(self.arch).schedule(self.dfg)

    def rebuilt(self, change):
        from repro.mapping.schedule import Schedule

        copy = Schedule(self.arch, kernel_name=self.schedule.kernel_name)
        for entry in self.schedule.operations():
            copy.add(change(entry))
        return copy

    def test_valid_schedule_passes(self):
        self.assertEqual(check_schedule(self.schedule, self.dfg, self.arch), [])

    def test_dependency_violation(self):
        late = max(self.schedule.operations(), key=lambda entry: entry.cycle)
        broken = self.rebuilt(lambda e: replace(e, cycle=0) if e is late else e)
        self.assertTrue(any("before" in v for v in check_schedule(broken, self.dfg, self.arch)))

    def test_pe_and_bus_violations(self):
        # Everything on PE (0, 0) in cycle 0: PE and bus limits both break.
        broken = self.rebuilt(lambda e: replace(e, cycle=0, row=0, col=0))
        violations = check_schedule(broken, self.dfg, self.arch)
        self.assertTrue(any(v.startswith("PE (0,0)") for v in violations))
        self.assertTrue(any("loads at cycle 0" in v for v in violations))

    def test_shared_unit_violation(self):
        from repro.arch.template import paper_architectures
        from repro.mapping.rearrange import rearrange_schedule
        from repro.mapping.schedule import Schedule

        arch = next(a for a in paper_architectures() if a.uses_sharing)
        good = rearrange_schedule(self.schedule, self.dfg, arch)
        self.assertEqual(check_schedule(good, self.dfg, arch), [])
        # Every multiplication issues on the first one's unit in its cycle.
        first = next(e for e in good.operations() if e.shared_unit is not None)
        broken = Schedule(arch, kernel_name=good.kernel_name)
        for entry in good.operations():
            if entry.shared_unit is not None and entry is not first:
                entry = replace(entry, shared_unit=first.shared_unit, cycle=first.cycle)
            broken.add(entry)
        violations = check_schedule(broken, self.dfg, arch)
        self.assertTrue(any("accepts" in v for v in violations))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
