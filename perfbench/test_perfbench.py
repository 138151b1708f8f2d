"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speedmeter import rescale  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Relgw, StrataCensus, eval_check  # noqa: E402


class ScriptedClock:
    """Returns the given instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class SeedTest(unittest.TestCase):
    def inputs(self, name, seed):
        wl = WORKLOADS[name](seed)
        if isinstance(wl, StrataCensus):
            return repr(wl.cases).encode()
        return repr(wl.ops).encode()

    def test_same_seed_same_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.inputs(name, 7), self.inputs(name, 7))

    def test_seed_changes_the_draw(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(self.inputs(name, 7), self.inputs(name, 8))

    def test_bracket_stream_covers_the_table(self):
        a, b = WORKLOADS["bracket_mix"](1), WORKLOADS["bracket_mix"](2)
        hand = [i for i, r in enumerate(a.rows) if r["hand"] != "-"]
        self.assertEqual([i for i, _ in a.ops[:len(hand)]], hand)
        self.assertEqual(sorted(a.ops), sorted(b.ops))
        self.assertEqual(len(a.ops), len(a.rows))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root span A [0, 10] holds B [1, 4] and hot H [5, 9]; B holds hot
        # H [2, 3]; the second H holds kept C [6, 8].
        tr = Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 6, 8, 9, 10))
        with tr.span("A"):
            with tr.span("B"):
                frame = tr.enter()
                t0 = tr.clock()
                tr.leave_hot("H", frame, tr.clock() - t0)
            frame = tr.enter()
            t0 = tr.clock()
            with tr.span("C"):
                pass
            tr.leave_hot("H", frame, tr.clock() - t0)

        totals = tr.totals()
        self.assertEqual(totals["A"], [1, 10, 10 - 3 - 4])
        self.assertEqual(totals["B"], [1, 3, 3 - 1])
        self.assertEqual(totals["C"], [1, 2, 2])
        self.assertEqual(totals["H"], [2, 1 + 4, 1 + (4 - 2)])
        # self times add up to the root's duration
        self.assertEqual(sum(row[2] for row in totals.values()), 10)
        # hot spans are aggregated under their nearest kept span
        parents = {sid: name for sid, name, *_ in tr.spans}
        self.assertEqual(sorted((parents[p], n, calls) for (p, n), (calls, _, _)
                                in tr.agg.items()), [("A", "H", 1), ("B", "H", 1)])

    def test_recursion_is_not_double_counted(self):
        tr = Tracer(clock=ScriptedClock(0, 1, 3, 4))
        with tr.span("E"):
            with tr.span("E"):
                pass
        self.assertEqual(tr.totals()["E"], [2, 4 + 2, 4])


class RescaleTest(unittest.TestCase):
    # ticks at 2 (loop 1 s, twice the reference) and 6 (loop 0.25 s, half)
    TICKS = [(2.0, 1.0), (6.0, 0.25)]

    def test_stretches_scale_by_their_closing_tick(self):
        # [0, 2] closes at the slow tick, [3, 6] at the fast one; the
        # loop's own second [2, 3] is left out
        wall, ref = rescale(0.0, 6.0, self.TICKS, reference=0.5)
        self.assertEqual(wall, 2.0 + 3.0)
        self.assertEqual(ref, 2.0 * 0.5 + 3.0 * 2.0)

    def test_span_without_a_tick_uses_the_next_one(self):
        self.assertEqual(rescale(4.0, 5.0, self.TICKS, reference=0.5),
                         (1.0, 2.0))
        # after the last tick, the last tick
        self.assertEqual(rescale(7.0, 8.0, self.TICKS, reference=0.5),
                         (1.0, 2.0))

    def test_no_ticks_leaves_time_as_it_is(self):
        self.assertEqual(rescale(1.0, 4.0, [], reference=0.5), (3.0, 3.0))


class EvalRuleTest(unittest.TestCase):
    def test_kept_value(self):
        self.assertIsNone(eval_check("4", "4"))

    def test_newly_known_value(self):
        self.assertIsNone(eval_check("unknown", "620"))

    def test_changed_value(self):
        self.assertIsNotNone(eval_check("4", "5"))
        self.assertIsNotNone(eval_check("4", "unknown"))


class PatchTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores(self):
        rg = Relgw()
        original = rg.cli.run
        parse = rg.scenario.parse_scenario
        tr = Tracer()
        tr.install()
        try:
            self.assertIsNot(rg.cli.run, original)
            # the cli module's own copy of parse_scenario is wrapped too
            self.assertIsNot(rg.cli.parse_scenario, parse)
            self.assertIs(rg.cli.parse_scenario, rg.scenario.parse_scenario)
            sc = rg.scenario.parse_scenario(
                "[space p2]\n[invariant l]\ngenus = 0\nclass = lambda\n"
                "abs = pt, pt\n")
            rg.cli.run("eval", sc, ("l",))
        finally:
            tr.uninstall()
        self.assertIs(rg.cli.run, original)
        self.assertIs(rg.cli.parse_scenario, parse)
        m = layer_metrics(tr)
        self.assertEqual(m["cli.run_calls"][0], 1)
        self.assertEqual(m["scenario.parse_calls"][0], 1)
        self.assertEqual(m["kbeval.seed_table_calls"][0], 1)
        self.assertGreater(m["lattice.class_new"][0], 0)
        self.assertEqual(m["strata.enumerate_calls"][0], 0)


if __name__ == "__main__":
    unittest.main()
