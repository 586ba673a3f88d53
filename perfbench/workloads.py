"""The three benchmark workloads: inputs, ops, and answer checks.

A workload builds its inputs in :meth:`setup` from the seed alone and then
exposes ``visits``: a list of visits, each a list of :class:`Op`.
``run.py`` cycles through the visits in a closed loop (one client, the
next op starts when the last returns) and stops after whole rounds, each
round one pass over every visit, so every run has the same mix of ops.

Answers are checked after the timed phase by :meth:`check`, which returns
``{op key: error}`` for every wrong answer.  Three kinds of check apply:

* on the default seed, every answer matches the stored reference in
  ``refs/<workload>.json`` within ``ORACLE_TOL``;
* on any seed, identities that must hold exactly (up to ``ORACLE_TOL``)
  between different query paths, and every distribution sums to 1;
* for ``cli_oneshot``, exit code 0 and sampled frequencies within the
  library's Monte Carlo tolerance of the exact marginals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import iotrisk.cli
from iotrisk import (
    ORACLE_TOL,
    IncidentScenario,
    eliminate_marginal,
    filter_marginals,
    impact_probabilities,
    ingest_evidence,
    parse_model,
    posterior_update,
    predict_marginals,
    rank_criticality,
    read_evidence,
    serialize_model,
    smooth_marginals,
    to_jsonable,
)
from iotrisk.roadmap import DEFAULT_TIER_SCALE

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "iotrisk" / "data"
REFS = BENCH_DIR / "refs"
DEFAULT_SEED = 0

# The library's own Monte Carlo agreement tolerance at n = 1e6.
SAMPLE_TOL = 0.002


@dataclass(frozen=True)
class Op:
    kind: str                   # marginal, posterior, ..., or a CLI verb
    key: str                    # stable id; names the stored reference
    call: Callable[[], object]


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ------------------------------------------------------------ answer checks

def _same(got, want, tol: float, where: str = "$"):
    """First difference between two JSON-like values, or None."""
    if isinstance(want, float) or (isinstance(got, float) and isinstance(want, int)
                                   and not isinstance(want, bool)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: {got!r} != {want!r}"
        return None if abs(got - want) <= tol else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for k in sorted(want):
            diff = _same(got[k], want[k], tol, f"{where}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _same(g, w, tol, f"{where}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


def _bad_sums(answer, where: str = "$"):
    """First ``distribution`` object whose entries do not sum to 1."""
    if isinstance(answer, dict):
        dist = answer.get("distribution")
        if isinstance(dist, dict) and abs(sum(dist.values()) - 1.0) > ORACLE_TOL:
            return f"{where}: distribution sums to {sum(dist.values())!r}"
        for k, v in answer.items():
            bad = _bad_sums(v, f"{where}.{k}")
            if bad:
                return bad
    elif isinstance(answer, list):
        for i, v in enumerate(answer):
            bad = _bad_sums(v, f"{where}[{i}]")
            if bad:
                return bad
    return None


def _dists(marginals: dict) -> dict:
    return {nid: list(m.probabilities) for nid, m in marginals.items()}


def load_refs(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


class Workload:
    """Shared answer handling; subclasses define setup, visits and identities."""

    name = ""
    kinds: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.visits: list[list[Op]] = []

    def warm_up(self, seconds: float) -> None:
        """Run the first visit's ops, untimed, until it ends or ``seconds``
        pass, so the heap has grown and lazy set-up is done before timing."""
        deadline = time.perf_counter() + seconds
        for op in self.visits[0]:
            op.call()
            if time.perf_counter() >= deadline:
                break

    def answer(self, op: Op, out):
        """JSON-like form of an op's output, as stored in the references."""
        return to_jsonable(out)

    def traced_visits(self) -> list[list[Op]]:
        """The visits a traced run times; the same as ``visits`` by default."""
        return self.visits

    def identities(self, visit: dict) -> dict:
        """``{key: error}`` for identities broken within one visit's answers."""
        return {}

    def reference(self, op: Op):
        """Reference answer off the default seed; None when only identities apply."""
        return None

    def check(self, results) -> dict:
        """Check every op result; ``results`` holds (visit no, op, output)."""
        errors = {}
        stored = load_refs(self.name) if self.seed == DEFAULT_SEED else None
        by_visit: dict[int, dict] = {}
        for visit_no, op, out in results:
            answer = self.answer(op, out)
            by_visit.setdefault(visit_no, {})[op.key] = (op, out)
            bad = self.sanity(op, answer)
            if bad is None and stored is not None:
                want = stored.get(op.key)
                bad = ("no stored reference" if want is None
                       else _same(answer, want, ORACLE_TOL))
            elif bad is None:
                want = self.reference(op)
                bad = None if want is None else _same(answer, want, ORACLE_TOL)
            if bad:
                errors.setdefault(op.key, bad)
        for visit in by_visit.values():
            for key, bad in self.identities(visit).items():
                errors.setdefault(key, bad)
        return errors

    def sanity(self, op: Op, answer):
        """Seed-independent checks on one answer: every distribution sums to 1."""
        return _bad_sums(answer)

    def close(self) -> None:
        pass


# ----------------------------------------------------------- static_layered

class StaticLayered(Workload):
    """VE point queries, all-node posteriors, cascade reports and rankings.

    Each visit takes one pooled model under two evidence sets of at most
    three observations: ``E1`` anywhere in the graph and ``E2`` on one or two
    perception nodes, which is also the cascade scenario.
    """

    name = "static_layered"
    kinds = ("marginal", "posterior", "cascade", "rank")
    POOL = 24
    MARGINALS_PER_EVIDENCE = 3

    def setup(self) -> None:
        texts = gen.static_pool(self.seed, self.POOL)
        self.models = [parse_model(text).model for text in texts]
        self.visits = [self._visit(i, m) for i, m in enumerate(self.models)]

    def _visit(self, index: int, model) -> list[Op]:
        rng = random.Random(f"static-visit:{self.seed}:{index}")
        # Which nodes are observed or queried changes elimination cost, so it
        # depends on the pool position only; the seed draws observed states.
        where = random.Random(f"static-evidence:{index}")
        ids = [n.id for n in model.graph.nodes]
        perception = [n.id for n in model.graph.nodes if n.layer == "perception"]
        e1 = {nid: rng.choice(tuple(model.domain(nid)))
              for nid in where.sample(ids, where.randint(1, 3))}
        e2 = {nid: "impaired" for nid in where.sample(perception, where.randint(1, 2))}
        ops = []
        for label, ev in (("E1", e1), ("E2", e2)):
            free = [nid for nid in ids if nid not in ev]
            for q in where.sample(free, self.MARGINALS_PER_EVIDENCE):
                ops.append(Op("marginal", f"m{index}/{label}/marginal/{q}",
                              lambda m=model, q=q, ev=ev: eliminate_marginal(m, q, ev)))
        for label, ev in (("E1", e1), ("E2", e2)):
            ops.append(Op("posterior", f"m{index}/{label}/posterior",
                          lambda m=model, ev=ev: posterior_update(m, ev)))
        scenario = IncidentScenario(e2)
        ops.append(Op("cascade", f"m{index}/E2/cascade",
                      lambda m=model: impact_probabilities(m, scenario)))
        candidates = [(p, "impaired") for p in perception]
        ops.append(Op("rank", f"m{index}/rank",
                      lambda m=model: rank_criticality(m, candidates)))
        return ops

    def identities(self, visit: dict) -> dict:
        """Marginals and cascade reports must equal the posterior under the
        same evidence (keys ``m<index>/<evidence label>/...``)."""
        errors = {}
        for key, (op, out) in visit.items():
            post = visit.get("/".join(key.split("/")[:2]) + "/posterior")
            if post is None:
                continue
            if op.kind == "marginal":
                bad = _same(list(out.probabilities),
                            list(post[1][out.node].probabilities), ORACLE_TOL)
                if bad:
                    errors[key] = f"eliminate_marginal != posterior_update: {bad}"
            elif op.kind == "cascade":
                got = {nid: list(entry.distribution.probabilities)
                       for nid, entry in out.per_node.items()}
                bad = _same(got, _dists(post[1]), ORACLE_TOL)
                if bad:
                    errors[key] = f"impact per_node != posterior_update: {bad}"
        return errors


# ---------------------------------------------------------- temporal_stream

BUCKET_MS = 1000
T0_MS = 1_700_000_000_000


@dataclass
class _Stream:
    label: str
    model: object               # TemporalModel
    text: str                   # NDJSON evidence
    check_at: int               # slice where filter is checked against smooth
    observed: dict = None       # slice t -> ObservationSeries through t


class TemporalStream(Workload):
    """Filter after each new slice, plus smoothing and one-step prediction.

    One visit is one evidence stream on ``smart_home`` followed by one on a
    generated template.  Only application-layer nodes are observed, each at
    every other slice; the temporal chains stay unobserved, the pattern that
    makes unrolled inference blow up.  Unrolled length is capped at SLICES:
    when this benchmark was written, ``smart_home`` filter at t = 8 took
    ~0.5 s and t = 10 took seconds and hundreds of MB.
    """

    name = "temporal_stream"
    kinds = ("filter", "smooth", "predict")
    SLICES = 9
    STREAMS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self._smoothed: dict = {}

    def setup(self) -> None:
        home = parse_model((DATA / "smart_home.json").read_text(encoding="utf-8"))
        home_model = home.temporal_model()
        self.streams = []
        for i in range(self.STREAMS):
            template = parse_model(serialize_model(gen.temporal_document(self.seed * 100 + i)))
            for label, tm in ((f"smart_home/{i}", home_model),
                              (f"template{i}", template.temporal_model())):
                app = {n.id: tuple(n.domain) for n in tm.template.model.graph.nodes
                       if n.layer == "application"}
                text = gen.evidence_stream(f"{self.seed}:{label}", app, self.SLICES,
                                           BUCKET_MS, T0_MS)
                self.streams.append(_Stream(label, tm, text, self.SLICES - 1 - i % 3))
        for stream in self.streams:
            records = read_evidence(stream.text, stream.model.template.model)
            stream.observed = {
                t: ingest_evidence([r for r in records
                                    if r.timestamp_ms < T0_MS + (t + 1) * BUCKET_MS],
                                   BUCKET_MS, t0=T0_MS)
                for t in range(self.SLICES)}
        self.visits = [self._ops(self.streams[2 * i], i) + self._ops(self.streams[2 * i + 1], i)
                       for i in range(self.STREAMS)]

    def _ops(self, stream: _Stream, index: int) -> list[Op]:
        # The smoothed slice changes elimination cost, so it depends on the
        # stream's position only, like the observed (node, slice) pattern.
        where = random.Random(f"temporal-smooth:{index}")
        tm, label = stream.model, stream.label
        ops = []
        for t in range(self.SLICES):
            obs = stream.observed[t]
            ops.append(Op("filter", f"{label}/filter@{t}",
                          lambda obs=obs, t=t: filter_marginals(tm, obs, t)))
            if t >= 1:
                k = where.randrange(t)
                ops.append(Op("smooth", f"{label}/smooth@{k},{t}",
                              lambda obs=obs, k=k, t=t: smooth_marginals(tm, obs, k, t)))
            if t + 1 < self.SLICES:
                ops.append(Op("predict", f"{label}/predict@{t}+1",
                              lambda obs=obs, t=t: predict_marginals(tm, obs, t, 1)))
        return ops

    def identities(self, visit: dict) -> dict:
        """filter(t) must equal smooth(k=t, t); checked at one late slice per stream."""
        errors = {}
        for stream in self.streams:
            t = stream.check_at
            key = f"{stream.label}/filter@{t}"
            if key not in visit:
                continue
            if key not in self._smoothed:
                self._smoothed[key] = _dists(
                    smooth_marginals(stream.model, stream.observed[t], t, t))
            bad = _same(_dists(visit[key][1]), self._smoothed[key], ORACLE_TOL)
            if bad:
                errors[key] = f"filter(t) != smooth(k=t, t): {bad}"
        return errors


PROBE_CAP_MIB = 1024
PROBE_TIMEOUT_S = 60
_PROBE = """
import resource, sys
cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import iotrisk as ir
tm = ir.load_bundled_model("smart_home").temporal_model()
out = ir.filter_marginals(tm, ir.ObservationSeries(), tm.max_horizon - 1)
print(max(abs(sum(m.probabilities) - 1.0) for m in out.values()))
"""


def horizon_probe() -> dict:
    """``smart_home`` filter at t = max_horizon - 1 in a capped child process.

    The child lowers its own address-space limit before importing the
    library, so the cap binds only the probe.  OpenBLAS is held to one thread
    so its per-thread buffers do not eat into the cap.
    """
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(PROBE_CAP_MIB)],
                              env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timeout after {PROBE_TIMEOUT_S} s",
                "seconds": time.perf_counter() - start}
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        return {"ok": False, "error": lines[-1][:200], "seconds": seconds}
    drift = float(proc.stdout.strip() or "nan")
    ok = drift <= ORACLE_TOL
    return {"ok": ok, "error": None if ok else f"distribution off by {drift!r}",
            "seconds": seconds}


# -------------------------------------------------------------- cli_oneshot

class CliOneshot(Workload):
    """One fresh ``python -m iotrisk.cli`` process per op.

    Each model document is parsed and queried exactly once per op, so
    interpreter start-up, import, document parsing, report emission and
    sampling carry the cost; an in-process cache cannot help.  One visit is
    the whole verb list below, so every run has the same mix.
    """

    name = "cli_oneshot"
    GENERATED = 2
    GEN_NODES = 26
    STREAM_SLICES = 4
    CVSS_VECTORS = 3
    SAMPLES = 1_000_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.work = None
        self._refs: dict = {}

    def setup(self) -> None:
        self.close()
        self.work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        rng = random.Random(f"cli:{self.seed}")
        docs = {"layered_iot": str(DATA / "layered_iot.json")}
        scenarios = {"layered_iot": ({"a6": "impaired"}, {"a14": "impaired"})}
        for i in range(self.GENERATED):
            doc = gen.layered_document(self.seed * 1000 + 900 + i, self.GEN_NODES, wiring=i)
            path = self.work / f"generated{i}.json"
            path.write_text(serialize_model(doc), encoding="utf-8")
            docs[f"generated{i}"] = str(path)
            ids = [n.id for n in doc.graph.nodes]
            perception = [n.id for n in doc.graph.nodes if n.layer == "perception"]
            observe = {nid: rng.choice(tuple(doc.graph.node(nid).domain))
                       for nid in rng.sample(ids, rng.randint(1, 3))}
            origins = {nid: "impaired" for nid in rng.sample(perception, rng.randint(1, 2))}
            scenarios[f"generated{i}"] = (observe, origins)

        home = parse_model((DATA / "smart_home.json").read_text(encoding="utf-8"))
        app = {n.id: tuple(n.domain) for n in home.graph.nodes if n.layer == "application"}
        stream = self.work / "stream.ndjson"
        stream.write_text(gen.evidence_stream(f"cli:{self.seed}", app, self.STREAM_SLICES,
                                              BUCKET_MS, T0_MS), encoding="utf-8")
        roadmap = DATA / "transformation_roadmap.json"
        elements = [e.id for e in iotrisk.load_bundled_roadmap().elements()]
        current, target = gen.tier_assignments(self.seed, elements, DEFAULT_TIER_SCALE)
        for name, tiers in (("current", current), ("target", target)):
            (self.work / f"{name}.json").write_text(json.dumps(tiers, sort_keys=True),
                                                   encoding="utf-8")

        argvs = {}
        for label, path in docs.items():
            observe, origins = scenarios[label]
            argvs[f"validate:{label}"] = ["validate", "--model", path]
            argvs[f"infer:{label}"] = ["infer", "--model", path] + [
                a for nid, s in sorted(observe.items()) for a in ("--observe", f"{nid}={s}")]
            argvs[f"cascade:{label}"] = ["cascade", "--model", path, "--rank"] + [
                a for nid, s in sorted(origins.items()) for a in ("--origin", f"{nid}={s}")]
            argvs[f"export-dot:{label}"] = ["export-dot", "--model", path]
        home_path = str(DATA / "smart_home.json")
        dbn = ["dbn", "--model", home_path, "--evidence", str(stream),
               "--at", str(self.STREAM_SLICES - 1)]
        argvs["dbn:filter"] = dbn + ["--mode", "filter"]
        argvs["dbn:smooth"] = dbn + ["--mode", "smooth", "--slice", "1"]
        argvs["dbn:predict"] = dbn + ["--mode", "predict", "--horizon", "1"]
        argvs["iotmm:uncontrolled_sensor"] = [
            "iotmm", "--model", str(DATA / "uncontrolled_sensor.json"),
            "--resolve", "legacy_plc", "--observe", "scada_link=fail"]
        argvs["roadmap:transformation_roadmap"] = [
            "roadmap", "--roadmap", str(roadmap),
            "--current", str(self.work / "current.json"),
            "--target", str(self.work / "target.json")]
        for i, vector in enumerate(gen.cvss_vectors(self.seed, self.CVSS_VECTORS)):
            argvs[f"cvss:{i}"] = ["cvss", "--vector", vector]
        argvs["sample:layered_iot"] = ["sample", "--model", docs["layered_iot"],
                                       "--n", str(self.SAMPLES), "--seed", str(self.seed)]
        self.argvs = argvs
        self.env = child_env()
        # Fill the bytecode cache before timing; every later op reuses it.
        subprocess.run([sys.executable, "-c", "import iotrisk.cli"], env=self.env,
                       check=True)
        self.visits = [[Op(key.split(":")[0], key, lambda argv=argv: self._spawn(argv))
                        for key, argv in argvs.items()]]

    def warm_up(self, seconds: float) -> None:
        """Nothing to warm: each op is a fresh process, and setup has filled
        the bytecode cache."""

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "iotrisk.cli", *argv],
                              env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def traced_visits(self) -> list[list[Op]]:
        """In-process ``cli.main`` calls, so spans can be recorded."""
        return [[Op(op.kind, op.key, lambda argv=self.argvs[op.key]: self.in_process(argv))
                 for op in visit] for visit in self.visits]

    def in_process(self, argv):
        """The same verb through ``iotrisk.cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iotrisk.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def answer(self, op: Op, out):
        code, stdout, stderr = out
        if code != 0:
            return {"exit": code, "stderr": stderr.strip()[-200:]}
        if op.kind == "export-dot":
            return {"exit": code, "report": stdout}
        try:
            return {"exit": code, "report": json.loads(stdout)}
        except ValueError:
            return {"exit": code, "unparsable": stdout[:200]}

    def sanity(self, op: Op, answer):
        if answer["exit"] != 0:
            return f"exit code {answer['exit']}: {answer['stderr']}"
        if "report" not in answer:
            return f"report is not JSON: {answer['unparsable']!r}"
        bad = _bad_sums(answer["report"])
        if bad is None and op.kind == "sample":
            bad = self._sample_error(answer["report"])
        return bad

    def _sample_error(self, report):
        exact = posterior_update(iotrisk.load_bundled_model("layered_iot").completed_model())
        for nid, marginal in exact.items():
            freq = report["result"]["marginals"][nid]["distribution"]
            for state, p in marginal.as_dict().items():
                if abs(freq[state] - p) > SAMPLE_TOL:
                    return f"sample {nid}={state}: {freq[state]!r} vs exact {p!r}"
        return None

    def reference(self, op: Op):
        if op.key not in self._refs:
            self._refs[op.key] = self.answer(op, self.in_process(self.argvs[op.key]))
        return self._refs[op.key]

    def close(self) -> None:
        if self.work is not None:
            for path in sorted(self.work.iterdir()):
                path.unlink()
            self.work.rmdir()
            self.work = None


WORKLOADS = {w.name: w for w in (StaticLayered, TemporalStream, CliOneshot)}
