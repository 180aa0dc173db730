"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

They use shrunken datasets (SMOKE_SCALE), so they check the machinery,
not the measurements: the span wrappers restore the program, the
printed metric names and units match ``BENCHMARK.json``, an injected
wrong answer fails the run, the seed drives the inputs, and traced and
untraced runs give the same answer digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE_SCALE = 0.1
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())


def _smoke(name):
    return dataclasses.replace(workloads.WORKLOADS[name], scale=SMOKE_SCALE)


@contextlib.contextmanager
def _smoke_workloads():
    """Every workload on a shrunken dataset, for in-process runs."""
    full = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update({name: _smoke(name) for name in full})
    try:
        yield
    finally:
        workloads.WORKLOADS.update(full)


def _run_cli(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def _owners():
    return [
        (spans._resolve(module, owner), attr)
        for module, owner, attr, _name, _layer in spans.TARGETS
    ]


class SpanTests(unittest.TestCase):
    def test_wrappers_restore_the_originals(self):
        owners = _owners()
        originals = [owner.__dict__[attr] for owner, attr in owners]
        wrappers = spans.Wrappers(spans.SpanRecorder(spans.layer_map(workloads.ROOTS)))
        wrappers.install()
        try:
            for (owner, attr), original in zip(owners, originals):
                self.assertIsNot(owner.__dict__[attr], original, attr)
        finally:
            wrappers.restore()
        for (owner, attr), original in zip(owners, originals):
            self.assertIs(owner.__dict__[attr], original, attr)

    def test_missing_target_is_skipped(self):
        targets = list(spans.TARGETS) + [
            ("repro.core.ine", "INEExpansion", "no_such_method", "x", "ine"),
            ("repro.no_such_module", "", "f", "y", "ine"),
        ]
        wrappers = spans.Wrappers(
            spans.SpanRecorder(spans.layer_map(workloads.ROOTS)), targets
        )
        wrappers.install()
        wrappers.restore()
        self.assertEqual(
            wrappers.missing,
            ["repro.core.ine.INEExpansion.no_such_method", "repro.no_such_module.f"],
        )

    def test_failing_traced_operation_restores_and_counts(self):
        inst = workloads.Instance(_smoke("read-default"), 1, [])
        owners = _owners()
        originals = [owner.__dict__[attr] for owner, attr in owners]
        rec = spans.SpanRecorder(spans.layer_map(workloads.ROOTS))
        loop = workloads.Loop(inst, rec, None)
        edge_id = next(iter(inst.db.network.edges())).edge_id
        # An offset beyond the edge makes Database.insert_object raise
        # from inside its span.
        bad = inputs.UpdateInput(
            kind="insert", edge_id=edge_id, fraction=2.0, terms=frozenset({"x"})
        )
        loop.step(inputs.Op(index=0, update=bad), traced=True, digest=True, check=False)
        self.assertEqual((loop.attempted, loop.failed), (1, 1))
        for (owner, attr), original in zip(owners, originals):
            self.assertIs(owner.__dict__[attr], original, attr)

    def test_self_times_sum_to_the_root(self):
        rec = spans.SpanRecorder({"root": "unaccounted", "a": "A", "b": "B"})
        rec.begin_op(0, "root")
        rec.begin("a")
        rec.begin("b")
        time.sleep(0.002)
        rec.end()
        time.sleep(0.001)
        rec.end()
        layers, _builds = rec.end_op()
        root = rec.spans[-1]
        self.assertAlmostEqual(sum(layers.values()), root[5] - root[4], places=9)
        self.assertGreater(layers["B"], 0.0015)
        self.assertGreater(layers["A"], 0.0005)
        self.assertEqual([s[3] for s in rec.spans], ["b", "a", "root"])
        self.assertEqual(rec.spans[0][2], rec.spans[1][1])  # b's parent is a


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inst = workloads.Instance(_smoke("read-default"), 1, [])
        view = inputs.DatasetView(cls.inst.db)
        stream = inputs.distinct_queries(view, 5, workloads._read_default_shape)
        cls.sk = cls.div = None
        for q in stream:
            prepared = cls.inst.prepare_query(q)
            result = cls.inst.run_query(prepared)
            if q.kind == "sk" and cls.sk is None and len(result) >= 3:
                cls.sk = (prepared[1], result)
            if q.kind == "div" and cls.div is None and len(result) >= 4:
                cls.div = (prepared[1], result)
            if cls.sk and cls.div:
                break

    def test_correct_answers_pass(self):
        self.assertEqual(oracle.check(self.inst.db, "sk", *self.sk), [])
        self.assertEqual(oracle.check(self.inst.db, "div", *self.div), [])

    def _tampered(self, result, **changes):
        import dataclasses

        return dataclasses.replace(result, **changes)

    def test_injected_wrong_answers_fail(self):
        from repro.core.queries import ResultItem

        db = self.inst.db
        query, result = self.sk
        self.assertTrue(oracle.check(db, "sk", query, self._tampered(result, items=result.items[1:])))
        first = result.items[0]
        moved = [ResultItem(first.object, first.distance + 1.0)] + list(result.items[1:])
        self.assertTrue(oracle.check(db, "sk", query, self._tampered(result, items=moved)))
        query, result = self.div
        self.assertTrue(oracle.check(db, "div", query, self._tampered(result, items=result.items[:-1])))
        self.assertTrue(oracle.check(
            db, "div", query,
            self._tampered(result, objective_value=result.objective_value * 1.001),
        ))

    def test_injected_wrong_answer_fails_the_run(self):
        from repro.engine.executor import QueryEngine

        original = QueryEngine.__dict__["execute"]

        def corrupt(self, plan, tracer=None, sequence=None):
            result = original(self, plan, tracer=tracer, sequence=sequence)
            if len(result.items) > 1:
                result.items = result.items[:-1]
            return result

        QueryEngine.execute = corrupt
        try:
            with _smoke_workloads():
                outcome = workloads.run("read-default", 1, 0.5, False)
        finally:
            QueryEngine.execute = original
        self.assertGreater(outcome["failed"], 0)
        self.assertTrue(outcome["failures"])


class InputTests(unittest.TestCase):
    def test_seed_drives_the_inputs(self):
        inst = workloads.Instance(_smoke("live-updates-hub"), 1, [])
        view = inputs.DatasetView(inst.db)

        def first(name, seed, n=150):
            ops = workloads.WORKLOADS[name].ops(view, seed)
            return [next(ops) for _ in range(n)]

        for name in workloads.WORKLOADS:
            self.assertEqual(first(name, 1), first(name, 1), name)
            self.assertNotEqual(first(name, 1), first(name, 2), name)
        ops = first("live-updates-hub", 3)
        self.assertTrue(any(op.update is not None and op.update.kind == "reweight" for op in ops))
        self.assertTrue(any(op.repeated for op in ops))

    def test_read_workload_queries_are_distinct(self):
        inst = workloads.Instance(_smoke("read-default"), 1, [])
        view = inputs.DatasetView(inst.db)
        ops = workloads.WORKLOADS["read-default"].ops(view, 4)
        keys = [next(ops).query.key for _ in range(300)]
        self.assertEqual(len(keys), len(set(keys)))


class RunTests(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        declared = {
            0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
        }
        self.assertEqual(
            sorted(w["name"] for w in BENCHMARK["workloads"]), sorted(workloads.WORKLOADS)
        )
        digests = {}
        with tempfile.TemporaryDirectory() as out_dir, _smoke_workloads():
            saved_out, run.OUT = run.OUT, Path(out_dir)
            try:
                for workload in workloads.WORKLOADS:
                    for trace in (0, 1):
                        stdout, stderr = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = run.main([
                                "--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                            ])
                        self.assertEqual(code, 0, stderr.getvalue()[-3000:])
                        lines = stdout.getvalue().strip().splitlines()
                        last = json.loads(lines[-1])
                        self.assertEqual(
                            sorted(last), ["attempted", "correct", "failed", "metrics"]
                        )
                        self.assertTrue(last["correct"])
                        self.assertEqual(
                            {k: v["unit"] for k, v in last["metrics"].items()},
                            declared[trace], f"{workload} trace {trace}",
                        )
                        for line in lines:
                            if line.startswith("answer digest"):
                                digests.setdefault(workload, set()).add(line.split()[2])
            finally:
                run.OUT = saved_out
        for workload, seen in digests.items():
            self.assertEqual(len(seen), 1, f"{workload}: traced and untraced digests differ")

    def test_design_records_name_declared_metrics(self):
        declared = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        for prediction in DESIGN["predictions"]:
            for name in prediction["metrics"]:
                self.assertIn(name, declared)
            for workload, moved in prediction["moves"].items():
                self.assertIn(workload, workloads.WORKLOADS)
                for name in moved:
                    self.assertIn(name, declared)
        for gap in DESIGN["expected_gaps"]:
            for name in gap["shown_by"]:
                self.assertIn(name, declared)
        self.assertEqual(
            DESIGN["layer_sum_tolerance_pct"], 100 * workloads.LAYER_SUM_TOLERANCE
        )

    def test_fails_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(HERE / "design.json", bare / "perfbench")
        try:
            out = _run_cli(
                "--workload", "read-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
