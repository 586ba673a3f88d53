"""Tests of the benchmark's own machinery (not of the library).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from iotrisk.model import Marginal  # noqa: E402

_DIGEST = """
import hashlib, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gen
from iotrisk import serialize_model
h = hashlib.sha256()
for text in gen.static_pool(7, 3):
    h.update(text.encode())
h.update(serialize_model(gen.temporal_document(7)).encode())
h.update(gen.evidence_stream("7", {"app": ("ok", "impaired")}, 9, 1000, 0).encode())
h.update("|".join(gen.cvss_vectors(7, 3)).encode())
print(h.hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", _DIGEST, str(ROOT / "src"), str(BENCH_DIR)],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestGenerators:
    def test_same_seed_gives_identical_bytes_across_processes(self):
        # Different hash seeds would expose any set- or dict-order dependence.
        assert _digest("1") == _digest("2")

    def test_same_seed_gives_identical_bytes_in_process(self):
        assert gen.static_pool(3, 2) == gen.static_pool(3, 2)
        assert (gen.serialize_model(gen.temporal_document(3))
                == gen.serialize_model(gen.temporal_document(3)))

    def test_different_seeds_differ(self):
        assert gen.static_pool(3, 1) != gen.static_pool(4, 1)

    def test_layered_models_have_the_promised_shape(self):
        for n in gen.STATIC_SIZES:
            doc = gen.layered_document(11, n)
            graph = doc.graph
            assert len(graph.nodes) == n
            layer = {node.id: node.layer for node in graph.nodes}
            below = {"network": "perception", "application": "network"}
            for node in graph.nodes:
                parents = graph.parents(node.id)
                if node.layer == "perception":
                    assert parents == ()
                else:
                    assert parents and all(layer[p] == below[node.layer] for p in parents)
            # every lower-layer node feeds something
            assert all(graph.children(node.id) for node in graph.nodes
                       if node.layer != "application")
            assert len(graph.service_goals()) == gen.SERVICE_GOALS


class TestSelfTimes:
    def test_nested_spans(self):
        # a [0,10] has children b [1,4] and c [3,6] (overlapping) and d [8,9];
        # b has child e [2,3]; f is a second root [20,21].
        span_list = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["e", 2.0, 3.0, 1],
                     ["c", 3.0, 6.0, 0], ["d", 8.0, 9.0, 0], ["f", 20.0, 21.0, -1]]
        st = spans.self_times(span_list)
        assert st["a"] == (1, 10.0 - 5.0 - 1.0)
        assert st["b"] == (1, 2.0)
        assert st["c"] == (1, 3.0)
        assert st["e"] == (1, 1.0)
        assert st["d"] == (1, 1.0)
        assert st["f"] == (1, 1.0)

    def test_calls_and_self_time_sum_per_name(self):
        span_list = [["x", 0.0, 4.0, -1], ["y", 1.0, 2.0, 0], ["y", 2.5, 3.0, 0],
                     ["x", 5.0, 6.0, -1]]
        st = spans.self_times(span_list)
        assert st["x"] == (2, 4.0 - 1.5 + 1.0)
        assert st["y"] == (2, 1.5)

    def test_child_outside_parent_is_clipped(self):
        st = spans.self_times([["p", 0.0, 2.0, -1], ["q", 1.0, 5.0, 0]])
        assert st["p"] == (1, 1.0)


class TestPatching:
    def test_every_importing_module_is_patched_and_restored(self):
        import iotrisk
        import iotrisk.cascade
        import iotrisk.cli
        import iotrisk.temporal
        from iotrisk.model import BayesianModel

        originals = {f"{mod}.{name}": getattr(sys.modules[f"iotrisk.{mod}"], name)
                     for mod, names in spans.WRAPPED.items() for name in names}
        init = BayesianModel.__init__
        tracer = spans.Tracer()
        with tracer:
            for qualified, original in originals.items():
                holders = [name for name, module in sys.modules.items()
                           if module is not None
                           and any(v is original for v in getattr(module, "__dict__", {}).values())]
                assert holders == [], f"{qualified} still unwrapped in {holders}"
            eliminate = originals["inference.eliminate_marginal"]
            assert iotrisk.cascade.eliminate_marginal.__wrapped__ is eliminate
            assert iotrisk.temporal.eliminate_marginal.__wrapped__ is eliminate
            assert iotrisk.cli.validate_graph.__wrapped__ is originals["graph.validate"]
            assert iotrisk.parse_model.__wrapped__ is originals["documents.parse_model"]
            assert workloads.posterior_update.__wrapped__ is originals["inference.posterior_update"]
            assert BayesianModel.__init__ is not init
        for qualified, original in originals.items():
            mod, name = qualified.split(".")
            assert getattr(sys.modules[f"iotrisk.{mod}"], name) is original
        assert iotrisk.cli.validate_graph is originals["graph.validate"]
        assert BayesianModel.__init__ is init

    def test_spans_nest_and_counters_count(self):
        import iotrisk

        model = iotrisk.load_bundled_model("layered_iot").model
        tracer = spans.Tracer()
        with tracer:
            posteriors = iotrisk.posterior_update(model, {"a14": "impaired"})
            iotrisk.eliminate_marginal(model, "a1")
        names = [s[0] for s in tracer.spans]
        assert names.count("inference.eliminate_marginal") == len(posteriors) + 1
        outer = names.index("inference.posterior_update")
        inner = [s for s in tracer.spans if s[0] == "inference.eliminate_marginal"]
        assert sum(1 for s in inner if s[3] == outer) == len(posteriors)
        # posterior_update delivers its marginals; its inner eliminations do not
        assert tracer.counts["inference.marginals_delivered"] == len(posteriors) + 1


class TestChecks:
    def _run_visit(self, seed):
        workload = workloads.StaticLayered(seed)
        workload.POOL = 1
        workload.setup()
        return workload, [(0, op, op.call()) for op in workload.visits[0]]

    def test_correct_answers_pass(self):
        workload, results = self._run_visit(workloads.DEFAULT_SEED)
        assert workload.check(results) == {}

    def test_wrong_marginal_fails_reference_on_default_seed(self):
        workload, results = self._run_visit(workloads.DEFAULT_SEED)
        index = next(i for i, (_, op, _) in enumerate(results) if op.kind == "marginal")
        visit, op, out = results[index]
        p = out.probabilities
        bent = (p[0] + 1e-6, p[1] - 1e-6) + p[2:]
        results[index] = (visit, op, replace(out, probabilities=bent))
        assert set(workload.check(results)) == {op.key}

    def test_identity_catches_posterior_disagreement_on_any_seed(self):
        workload, results = self._run_visit(5)  # no stored answers for seed 5
        by_key = {op.key: (i, op, out) for i, (_, op, out) in enumerate(results)}
        marginal_key = next(k for k in by_key if "/E2/marginal/" in k)
        node = by_key[marginal_key][2].node
        index, op, out = by_key[marginal_key.rsplit("/", 2)[0] + "/posterior"]
        out = dict(out)
        p = out[node].probabilities
        out[node] = Marginal(node, out[node].states, (p[0] + 1e-6, p[1] - 1e-6) + p[2:])
        results[index] = (0, op, out)
        cascade_key = next(k for k in by_key if k.endswith("/cascade"))
        assert set(workload.check(results)) == {marginal_key, cascade_key}


class TestDrive:
    def test_stops_at_a_round_boundary(self):
        # Three visits of two ops each; four ops satisfy min_ops mid-round,
        # but the run goes on to the end of the round.
        visits = [[workloads.Op("k", f"v{v}/{i}", lambda: None) for i in range(2)]
                  for v in range(3)]
        results, _, done = run.drive(visits, 0, min_ops=4)
        assert done == 3
        assert [op.key for _, op, _, _, _ in results] == [
            f"v{v}/{i}" for v in range(3) for i in range(2)]


class TestBenchmarkFile:
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
                == run.per_layer_names())
        assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)

    def test_refuses_to_run_without_the_library(self, tmp_path):
        bench = tmp_path / "perfbench"
        bench.mkdir()
        (bench / "run.py").write_bytes((BENCH_DIR / "run.py").read_bytes())
        proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                               "static_layered", "--seconds", "1"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "no library" in proc.stderr
