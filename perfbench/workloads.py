"""The benchmark's workloads: search, analyze and sample.

Each workload builds its inputs from the seed, then hands run.py a
fixed list of jobs. A job's ``call`` is the timed program work; its
``check(result, warm)`` validates the result outside the timed region and
returns an error message or None. The warm-up pass gets the full checks
and leaves a reference that every timed pass must reproduce.

The library is reached only through its public names, looked up on the
module objects at call time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

# Node budget of the capped K_11 job, about 3 s on a 2-vCPU shared VM: long
# enough that host noise averages out within the job, which is the median
# job of a search pass. R(P_8, P_8) = 11, so the job never ends "found".
SEARCH_BUDGET = 100_000
WARMUP_BUDGET = 2_000
SAMPLES_PER_PASS = 600
HUB_EDGE_KEEP = 0.8
AUDIT_ARGS = ["--epsilon", "1/4", "--delta", "1/1000000"]
PINNED = Path(__file__).with_name("pinned.json")


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, bool], str | None]


def derive(seed: int, tag: str) -> int:
    """Sub-seed for one input; equal for equal (seed, tag) on every platform."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def path_ramsey(n: int) -> int:
    """R(P_n, P_n) = n + floor(n/2) - 1 (Gerencser-Gyarfas, 1967)."""
    return n + n // 2 - 1


class Workload:
    """Defaults: no input self-check, the timed jobs double as the warm-up
    pass, and no per-job program counts."""

    def __init__(self, cm, cli, oracles, seed: int, workdir: Path):
        self.cm, self.cli, self.oracles = cm, cli, oracles
        self.seed, self.workdir = seed, workdir
        self.jobs: list[Job] = []

    def self_check(self) -> list[str]:
        return []

    def warmup_jobs(self) -> list[Job]:
        return self.jobs

    def job_stats(self, result) -> dict[str, int]:
        return {}


class Search(Workload):
    """Fixed exact-search problems; the seed only orders the jobs."""

    name = "search"

    def build(self) -> list[str]:
        cm = self.cm
        jobs = [
            Job("avoider K_9 k=4 n=4",
                lambda: cm.search_avoider(cm.SearchConfig(9, 4, 4)),
                self._check_avoider),
            self._ramsey_scans(),
            self._capped(SEARCH_BUDGET),
        ]
        random.Random(derive(self.seed, "search-order")).shuffle(jobs)
        self.jobs = jobs
        return [job.name for job in jobs]

    def warmup_jobs(self) -> list[Job]:
        # The avoider job alone takes 6-9 s; the warm-up runs every other
        # code path instead: the scans and a short capped search.
        return [self._ramsey_scans(), self._capped(WARMUP_BUDGET)]

    def job_stats(self, result) -> dict[str, int]:
        results = result if isinstance(result, list) else [result]
        return {
            "nodes": sum(r.nodes for r in results),
            "undecided": sum(
                1 for r in results if r.status == self.cm.BUDGET_EXHAUSTED
            ),
        }

    def _brute_avoids(self, coloring, vertices: int, n: int) -> str | None:
        pairs = set(combinations(range(vertices), 2))
        if set(coloring.assignment) != pairs:
            return f"coloring does not cover K_{vertices}"
        g = self.cm.Graph(vertices, frozenset(pairs))
        if self.oracles.brute_has_mono_cm(g, coloring, n):
            return f"brute oracle finds a monochromatic connected matching on K_{vertices}"
        return None

    def _check_avoider(self, result, warm: bool) -> str | None:
        if result.status != self.cm.FOUND or result.nodes != 782_094:
            return f"expected found after 782094 nodes, got {result.status} after {result.nodes}"
        return self._brute_avoids(result.coloring, 9, 4)

    def _ramsey_scans(self) -> Job:
        cm = self.cm
        # (k, n, largest N, exact value, nodes); for k = 2 the value is the
        # path Ramsey number, which does not trust the DFS.
        scans = [
            (2, 4, 8, path_ramsey(4), 47),
            (3, 4, 8, 6, 1_273),
            (2, 6, 10, path_ramsey(6), 5_810),
        ]

        def check(results, warm):
            for (k, n, _, value, nodes), r in zip(scans, results):
                if (r.status, r.value, r.nodes) != ("exact", value, nodes):
                    return (f"ramsey k={k} n={n}: expected exact {value} after "
                            f"{nodes} nodes, got {r.status} {r.value} after {r.nodes}")
                error = self._brute_avoids(r.avoider, value - 1, n)
                if error:
                    return f"ramsey k={k} n={n}: {error}"
            return None

        return Job(
            "ramsey scans (2,4) (3,4) (2,6)",
            lambda: [cm.ramsey_cm(k, n, n_max) for k, n, n_max, _, _ in scans],
            check,
        )

    def _capped(self, budget: int) -> Job:
        cm = self.cm

        def check(result, warm):
            if result.status == cm.CERTIFIED_NONE:
                return None
            if result.status == cm.BUDGET_EXHAUSTED and result.nodes == budget:
                return None
            return f"K_11 k=2 n=8 must not be found; got {result.status} after {result.nodes}"

        return Job(
            f"capped K_11 k=2 n=8 budget={budget}",
            lambda: cm.search_avoider(cm.SearchConfig(11, 2, 8, node_budget=budget)),
            check,
        )


def hub_coloring(cm, n: int, groups: int, seed: int):
    """Seeded colouring of most of K_V, V = groups * (n/2 - 1).

    The vertices are shuffled into groups of n/2 - 1 hubs; an edge gets the
    colour of the group of its earlier endpoint and is kept with probability
    HUB_EDGE_KEEP. Every edge of colour c touches group c, so the group is a
    vertex cover of size n/2 - 1 and no colour has an n/2-matching, while
    the early colour classes are larger than n - 1 vertices: sqi_partition
    must take its deficiency-witness path.
    """
    hub = n // 2 - 1
    v = groups * hub
    rng = random.Random(seed)
    order = list(range(v))
    rng.shuffle(order)
    rank = {x: i for i, x in enumerate(order)}
    assignment = {
        (a, b): min(rank[a], rank[b]) // hub + 1
        for a, b in combinations(range(v), 2)
        if rng.random() < HUB_EDGE_KEEP
    }
    return cm.Graph(v, frozenset(assignment)), cm.EdgeColoring(groups, assignment)


class Analyze(Workload):
    """``cli.main`` commands in-process on input files written at set-up."""

    name = "analyze"

    def __init__(self, *args):
        super().__init__(*args)
        self.hubs: list[tuple[int, Any, Any, Any]] = []
        pinned = json.loads(PINNED.read_text())
        self.pinned = dict(pinned["any_seed"])
        self.pinned.update(pinned.get(f"seed_{self.seed}", {}))

    def _write(self, name: str, g, coloring) -> str:
        (self.workdir / name).write_text(self.cm.serialize(g, coloring))
        return name

    def build(self) -> str:
        cm = self.cm
        self.workdir.mkdir(parents=True, exist_ok=True)
        inputs = []  # (file, n, k)
        for q in (7, 11, 13):
            g, coloring = cm.affine_plane_coloring(q)
            inputs.append((self._write(f"affine-q{q}.g", g, coloring), q + 1, q + 1))
        self.hubs = []
        for n in (20, 30, 40):
            g, coloring = hub_coloring(cm, n, 4, derive(self.seed, f"hub-{n}"))
            inputs.append((self._write(f"hub-n{n}.g", g, coloring), n, 4))
            cls = cm.color_class(g, coloring, 1)
            largest = max(cm.components(cls).vertex_sets(), key=len)
            sub, _ = cls.induced(largest)
            inputs.append((self._write(f"hub-n{n}-c1.g", sub, None), n, 1))
            self.hubs.append((n, g, coloring, sub))
        g, coloring = cm.bounded_component_coloring(21, 4, 5, derive(self.seed, "bounded"))
        inputs.append((self._write("bounded-v21.g", g, coloring), 6, 4))

        self.jobs = []
        for name, n, k in inputs:
            if k == 1:
                commands = [["decompose"], ["loss-check"], ["bounds-check"]]
            else:
                commands = [["loss-check", "--machine"], ["classify"],
                            ["audit", "--k", str(k), *AUDIT_ARGS]]
            for command in commands:
                argv = [command[0], "--n", str(n), "--input", name, *command[1:]]
                self.jobs.append(Job(f"{name} {command[0]}",
                                     self._caller(argv), self._checker(f"{name} {command[0]}")))
        return hashlib.sha256(
            b"".join((self.workdir / name).read_bytes() for name, _, _ in inputs)
        ).hexdigest()

    def self_check(self) -> list[str]:
        cm, errors = self.cm, []
        for n, g, coloring, sub in self.hubs:
            if cm.find_mono_cm(g, coloring, n) is not None:
                errors.append(f"hub n={n}: colouring has a monochromatic connected matching")
            if not any(
                p.S
                for c in range(1, coloring.color_count + 1)
                for p in cm.component_partitions(cm.color_class(g, coloring, c), n)
            ):
                errors.append(f"hub n={n}: no partition has a non-empty S")
            if sub.vertex_count <= n - 1:
                errors.append(f"hub n={n}: colour-1 component has only {sub.vertex_count} vertices")
        return errors

    def _caller(self, argv: list[str]):
        cli, workdir = self.cli, self.workdir

        def call():
            # The input directory is the cwd, so the "input=" header in
            # stdout does not depend on where the checkout lives.
            out, err = io.StringIO(), io.StringIO()
            home = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(home)
            return code, out.getvalue()

        return call

    def _checker(self, key: str):
        reference: list[str] = []

        def check(result, warm):
            code, stdout = result
            if code != 0:
                return f"exit code {code}"
            if not warm:
                return None if reference == [stdout] else "stdout differs from the warm-up pass"
            reference.append(stdout)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if key in self.pinned and digest != self.pinned[key]:
                return f"stdout sha256 {digest} differs from the pinned digest"
            return None

        return check


def witness_error(coloring, n: int, w) -> str | None:
    """Check a detector witness from the colouring's edge map alone."""
    edges = sorted(w.matching)
    ends = [v for e in edges for v in e]
    if len(edges) != n // 2 or len(set(ends)) != len(ends):
        return "witness is not a matching of n/2 edges"
    adj: dict[int, list[int]] = {}
    for (a, b), c in coloring.assignment.items():
        if c == w.color:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    if any(b not in adj.get(a, ()) for a, b in edges):
        return "witness edge missing or of another colour"
    reach, stack = {ends[0]}, [ends[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in reach:
                reach.add(u)
                stack.append(u)
    if reach != w.component or not set(ends) <= reach:
        return "witness component is not the colour component of its edges"
    return None


class Sample(Workload):
    """A seeded stream of generate-then-detect samples in three shapes."""

    name = "sample"

    def build(self) -> list[str]:
        cm = self.cm
        k17, k24 = cm.complete_graph(17), cm.complete_graph(24)
        shapes = [
            # (name, k, n, generator): the dense shape hits in the first
            # colour, the threshold shape hits about a third of the time and
            # otherwise runs full matchings, the capped shape never reaches
            # n vertices in a component and is skipped on size.
            ("dense K_17 k=4 n=4", 4, 4,
             lambda s: (k17, cm.random_coloring(17, 4, s))),
            ("threshold K_24 k=10 n=24", 10, 24,
             lambda s: (k24, cm.random_coloring(24, 10, s))),
            ("capped K_24 k=4 n=12", 4, 12,
             lambda s: cm.bounded_component_coloring(24, 4, 10, s)),
        ]
        order = list(range(SAMPLES_PER_PASS))
        random.Random(derive(self.seed, "sample-order")).shuffle(order)
        self.jobs = []
        for i in order:
            shape, k, n, make = shapes[i % len(shapes)]
            s = derive(self.seed, f"sample-{i}")
            self.jobs.append(Job(f"{shape} seed={s}", self._caller(make, s, n),
                                 self._checker(k, n, shape.startswith("capped"))))
        return [job.name for job in self.jobs]

    def _caller(self, make, s: int, n: int):
        cm = self.cm

        def call():
            g, coloring = make(s)
            return g, coloring, cm.find_mono_cm(g, coloring, n)

        return call

    def _checker(self, k: int, n: int, capped: bool):
        cm = self.cm
        reference = []

        def check(result, warm):
            g, coloring, w = result
            if warm:
                reference.append(w)
            elif reference != [w]:
                return "verdict or witness differs from the warm-up pass"
            if w is not None:
                if capped:
                    return "hit on a colouring whose components have fewer than n vertices"
                return witness_error(coloring, n, w)
            if not warm:
                return None
            for c in range(1, k + 1):
                size, _ = cm.max_connected_matching(cm.color_class(g, coloring, c))
                if size >= n // 2:
                    return f"miss, but colour {c} has a connected matching of {size} edges"
            return None

        return check


WORKLOADS = {w.name: w for w in (Search, Analyze, Sample)}
