"""Unit tests of run.py's result writer and source attribution.

    cd perfbench/tests && python3 -m unittest test_run
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "search.nodes_expanded", "unit": "count", "better": "higher"},
        {"name": "serve.shed", "unit": "count", "better": "lower"},
    ],
}


def detail(metrics, attempted=12, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


class ResultLineTest(unittest.TestCase):
    def test_end_to_end_line_has_exactly_the_contract_keys(self):
        line = run.result_line(SPEC, detail({"setup_s": (0.8127, "s"),
                                             "work_s": (19.375478352000073, "s")}), 0)
        self.assertNotIn("\n", line)
        out = json.loads(line)
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(out["correct"], True)
        self.assertEqual(out["attempted"], 12)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(sorted(out["metrics"]), ["setup_s", "work_s"])
        # All digits survive.
        self.assertEqual(out["metrics"]["work_s"], {"value": 19.375478352000073, "unit": "s"})

    def test_trace_line_reports_per_layer_names_and_idle_layers_as_zero(self):
        d = detail({"setup_s": (0.8, "s"), "search.nodes_expanded": (92, "count")})
        out = json.loads(run.result_line(SPEC, d, 1))
        self.assertEqual(sorted(out["metrics"]), ["search.nodes_expanded", "serve.shed"])
        self.assertEqual(out["metrics"]["search.nodes_expanded"]["value"], 92)
        self.assertEqual(out["metrics"]["serve.shed"], {"value": 0, "unit": "count"})

    def test_missing_end_to_end_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            run.result_line(SPEC, detail({"setup_s": (0.8, "s")}), 0)

    def test_undeclared_name_or_wrong_unit_is_an_error(self):
        with self.assertRaises(ValueError):
            run.result_line(SPEC, detail({"setup_s": (0.8, "s"), "work_s": (1.0, "s"),
                                          "typo.metric": (1.0, "ms")}), 0)
        with self.assertRaises(ValueError):
            run.result_line(SPEC, detail({"setup_s": (800.0, "ms"), "work_s": (1.0, "s")}), 0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            run.result_line(SPEC, detail({"setup_s": (0.8, "s"), "work_s": (1.0, "s")},
                                         attempted=0), 0)


class SourceRevisionTest(unittest.TestCase):
    def test_tree_hash_outside_git_is_stable_and_content_sensitive(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            path = os.path.join(root, "src", "a.cpp")
            with open(path, "w") as f:
                f.write("int a;\n")
            first = run.source_revision(root)
            self.assertTrue(first.startswith("tree-"))
            self.assertNotIn("unknown", first)
            self.assertEqual(first, run.source_revision(root))
            with open(path, "w") as f:
                f.write("int b;\n")
            self.assertNotEqual(first, run.source_revision(root))

    def test_bytecode_caches_do_not_change_the_tree_hash(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "perfbench", "__pycache__"))
            with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
                f.write("x = 1\n")
            first = run.tree_hash(root)
            with open(os.path.join(root, "perfbench", "__pycache__", "run.pyc"), "wb") as f:
                f.write(b"\0\1")
            self.assertEqual(first, run.tree_hash(root))


class CacheDirTest(unittest.TestCase):
    def test_each_source_tree_gets_its_own_cache(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            path = os.path.join(root, "src", "a.cpp")
            with open(path, "w") as f:
                f.write("int a;\n")
            first = run.cache_dir(root)
            self.assertTrue(first.startswith(os.path.join(root, ".perfbench", "cache")))
            self.assertEqual(first, run.cache_dir(root))
            with open(path, "w") as f:
                f.write("int b;\n")
            self.assertNotEqual(first, run.cache_dir(root))


if __name__ == "__main__":
    unittest.main()
