"""The three workloads: ingest, validate and session.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Programs are called in-process, so
interpreter start-up is not measured. Generation, preparation and every
output check run outside the timed spans.

A workload object is built from a seed and a scale (1.0 for the measured
size, 0.5 for the traced half-size run); building it generates the inputs
and their ground truth and calls no program code. `prepare` then writes the
canonical document the workload loads, untimed. After that the run repeats
passes: `setup` loads the document with `cli.load_kb`, and `run_pass` runs
the pass's operations in order and checks each result. Every pass runs the
same operations on the same program state.

Host speed. On a shared host, other tenants slow every call, by up to twice
and for seconds to minutes at a time, in process CPU time as much as in wall
time. So after each timed operation the tally runs a fixed pure-Python loop
that never calls the program, for a fifth of the operation's time, and keeps
the loop's mean time next to the operation's. `scaled` turns a stretch of
operations into seconds at the loop's reference speed: their summed time
divided by the loop's mean time over the same stretch (weighted by each
operation's time), times the loop's reference time. A change to the program
moves the summed time and not the loop, so it shows in full.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

# Reads of each kind in one block of 100 operations of the session stream,
# in seeded order, with a write after every ninth read: 90 reads and 10
# writes. A fixed count per block keeps the mix even along the pass, and
# writes at fixed places make every seed rebuild the provenance index
# equally often (each write invalidates it; the next read rebuilds it).
SESSION_READS = {
    "provenance": 30, "history": 20, "cohort": 15, "ancestors": 10,
    "classify": 10, "world": 5,
}
READS_PER_WRITE = 9
# A session pass: 500 operations on a freshly loaded KB, about 1.5 s with
# the checks, so a run holds a dozen or more passes.
SESSION_BLOCKS = 5

# The reference loop runs after each timed operation for this share of its
# time: enough samples to follow the host's speed from one operation to the
# next, at a fifth more run time.
REFERENCE_SHARE = 0.2
# The loop's time on an idle core of the machine the benchmark was built on
# (2.1 GHz Xeon, Python 3.11). It only sets the scale of the scaled seconds.
REFERENCE_S = 2.5e-4


def reference_loop() -> float:
    """Time one run of a fixed dict loop of about 0.25 ms; returns seconds."""
    table: dict[int, int] = {}
    start = time.perf_counter()
    for i in range(2000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


@dataclass
class Tally:
    """Latencies and outcomes of the timed operations of one run."""

    times: dict[str, list[float]] = field(default_factory=dict)
    # (operation seconds, mean reference-loop seconds right after it)
    samples: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, kind: str, seconds: float, ok: bool, detail: str = "") -> float:
        self.times.setdefault(kind, []).append(seconds)
        self.attempted += 1
        if not ok:
            self.fail(f"{kind}: {detail}"[:300])
        spent, runs = 0.0, 0
        while runs == 0 or spent < seconds * REFERENCE_SHARE:
            spent += reference_loop()
            runs += 1
        self.samples.append((seconds, spent / runs))
        return seconds

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def scaled(samples: list[tuple[float, float]]) -> float:
    """Seconds of the sampled operations at the reference loop's speed."""
    total = sum(seconds for seconds, _ in samples)
    loop = sum(seconds * ref for seconds, ref in samples) / total
    return total * REFERENCE_S / loop


def run_cli(prog, argv: list) -> tuple[int, str, str, float]:
    """`matterkb.cli.main(argv)` with stdout and stderr captured; returns its time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = prog.cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback is a failed operation, not a crashed run
            code = -1
            err.write(repr(exc))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _payload(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


class Workload:
    """Writes the scenario, prepares its canonical document and loads it."""

    name = ""
    keeps_kb = False
    sc: gen.Scenario

    def __init__(self, seed: int, scale: float, work: Path):
        self.seed, self.scale = seed, scale
        self.mp = work / f"{self.name}.mp"
        self.mpkb = work / f"{self.name}.mpkb"
        self.events = len(self.sc.event_ticks)
        self.mp.write_text(self.sc.text(), encoding="utf-8")
        self.prog = None
        self.kb = None

    def prepare(self, prog) -> None:
        """Convert the scenario to its canonical document; not timed."""
        self.prog = prog
        code, _, err, _ = run_cli(prog, ["export", self.mp, self.mpkb])
        if code != 0:
            raise RuntimeError(f"preparing {self.mpkb.name} failed: {err.strip()}")
        self.doc = self.mpkb.read_bytes()

    def setup(self, tally: Tally) -> None:
        """Load the canonical document with `cli.load_kb`.

        Only the session keeps the KB: the other workloads run the CLI on
        the files, so their set-up is the load a library user would pay.
        """
        self.kb = None
        gc.collect()
        start = time.perf_counter()
        try:
            kb = self.prog.cli.load_kb(str(self.mpkb))
            problem = ""
        except Exception as exc:  # a failed load is a failed operation
            kb, problem = None, repr(exc)
        seconds = time.perf_counter() - start
        if not problem and len(kb.events) != self.events:
            problem = f"{len(kb.events)} events loaded, {self.events} generated"
        tally.record("setup", seconds, not problem, problem)
        self.kb = kb if self.keeps_kb else None

    def finish(self, tally: Tally) -> None:
        """Checks that need the whole run; none by default."""


class Ingest(Workload):
    """`export`, `replay-check` and one CLI query of each kind per pass."""

    name = "ingest"

    def __init__(self, seed: int, scale: float, work: Path):
        self.sc = gen.ingest(seed, scale)
        super().__init__(seed, scale, work)
        self.again = work / "again.mpkb"
        self.queries = self._queries(random.Random(seed))

    def _queries(self, rng: random.Random) -> list[tuple[list[str], object]]:
        sc = self.sc
        live = sc.live(gen.ROCK)
        deep = [q.id for q in live if len(sc.ancestors(q.id)) >= 2] or [q.id for q in live]
        prov = rng.choice(deep)
        movers = [g for g, eps in sc.episodes.items() if len(eps) >= 2 and g not in sc.nested]
        hist = rng.choice(movers)
        t_world = rng.randint(1, sc.tick)
        co = rng.choice(sc.objects)
        t_co = rng.randint(sc.episodes[co][0].start, sc.tick)
        by_lineage: dict[str, list[str]] = {}
        for q in live:
            by_lineage.setdefault(q.chain[0].split("_")[0], []).append(q.id)
        q1, q2 = rng.sample(rng.choice([ids for ids in by_lineage.values() if len(ids) >= 2]), 2)
        return [
            (["provenance", prov, "--transitive"], sc.provenance_payload(prov)),
            (["history", hist], sc.history_payload(hist)),
            (["world", f"t{t_world}"], sc.world_payload(t_world)),
            (["cohort", co, "--at", f"t{t_co}"], sc.cohort_payload(co, t_co)),
            (["ancestors", q1, q2], sc.ancestors_payload(q1, q2)),
            (["classify"], sc.classify_payload(sorted(sc.quantities))),
        ]

    def run_pass(self, tally: Tally) -> None:
        code, out, err, seconds = run_cli(self.prog, ["export", self.mp, self.mpkb])
        doc = self.mpkb.read_bytes() if code == 0 else b""
        tally.record("export", seconds, code == 0 and out == "" and doc == self.doc,
                     f"exit {code}, {err.strip()}")

        code, out, err, seconds = run_cli(self.prog, ["replay-check", self.mpkb])
        want = f"replay-check: OK ({self.events} events, {len(self.doc)} bytes)\n"
        tally.record("replay_check", seconds, code == 0 and out == want, f"exit {code}: {out.strip()}")

        queries = 0.0
        for argv, expected in self.queries:
            code, out, err, seconds = run_cli(self.prog, ["query", self.mpkb, *argv, "--format", "canonical"])
            ok = code == 0 and _payload(out) == expected
            queries += tally.record("query", seconds, ok, f"{' '.join(argv)}: exit {code} {err.strip()}")
        tally.times.setdefault("query_cli", []).append(queries)

    def finish(self, tally: Tally) -> None:
        """export -> import -> export must reproduce the document byte for byte."""
        code, _, err, _ = run_cli(self.prog, ["export", self.mpkb, self.again])
        if code != 0 or self.again.read_bytes() != self.doc:
            tally.fail(f"export of the exported document is not a fixed point: exit {code} {err.strip()}")

    @staticmethod
    def breakdown(tally: Tally) -> dict[str, tuple[float, str]]:
        return {
            "export_s": (statistics.median(tally.times["export"]), "s"),
            "replay_check_s": (statistics.median(tally.times["replay_check"]), "s"),
            "query_cli_s": (statistics.median(tally.times["query_cli"]), "s"),
        }


class Validate(Workload):
    """Full `validate` and `validate --at tK` on a document with planted faults."""

    name = "validate"

    def __init__(self, seed: int, scale: float, work: Path):
        self.sc, faults = gen.validate(seed, scale)
        super().__init__(seed, scale, work)
        self.expected = gen.expected_violations(self.sc, faults, self.sc.change_points())
        self.tk = gen.busiest_world(self.sc)
        self.expected_at = gen.expected_violations(self.sc, faults, [self.tk])

    def _check(self, tally: Tally, kind: str, argv: list, expected: list) -> float:
        code, out, err, seconds = run_cli(self.prog, ["validate", self.mpkb, "--format", "canonical", *argv])
        try:
            got = [(v["rule"], tuple(v["subjects"]), v["at"]) for v in _payload(out)]
        except (KeyError, TypeError):
            got = []
        ok = code == (1 if expected else 0) and got == expected
        return tally.record(kind, seconds, ok, f"exit {code}, {len(got)} violations, {len(expected)} planted")

    def run_pass(self, tally: Tally) -> None:
        self._check(tally, "validate", [], self.expected)
        self._check(tally, "validate_at", ["--at", f"t{self.tk}"], self.expected_at)

    @staticmethod
    def breakdown(tally: Tally) -> dict[str, tuple[float, str]]:
        return {
            "validate_s": (statistics.median(tally.times["validate"]), "s"),
            "validate_at_s": (statistics.median(tally.times["validate_at"]), "s"),
        }


class Session(Workload):
    """A library session: one loaded KB, a seeded stream of reads and writes."""

    name = "session"
    keeps_kb = True

    def __init__(self, seed: int, scale: float, work: Path):
        self.sc = gen.session(seed, scale)
        super().__init__(seed, scale, work)

    def run_pass(self, tally: Tally) -> None:
        """The stream from its start, on the KB the last `setup` loaded.

        The writes change the ground truth as they change the KB, so the
        pass starts from a freshly generated scenario; the old one is
        dropped first so the two are never held at once.
        """
        self.sc = None
        self.sc = gen.session(self.seed, self.scale)
        self.rng = random.Random(self.seed)
        for _ in range(SESSION_BLOCKS):
            reads = [kind for kind, n in SESSION_READS.items() for _ in range(n)]
            self.rng.shuffle(reads)
            for i, kind in enumerate(reads, 1):
                self._read(tally, kind)
                if i % READS_PER_WRITE == 0:
                    self._write(tally)

    def _write(self, tally: Tally) -> None:
        """Cut a live chain at a new tick and split it in two."""
        cut = self.sc.random_cut(self.rng)
        if cut is None:
            tally.fail("write: no live chain left to cut")
            return
        q, k = cut
        a, b = q.chain[k - 1], q.chain[k]
        children = self.sc.split(q, k)
        t, event = children[0].created, children[0].event
        events, kb = self.prog.events, self.kb
        entries = [events.CreatedEntry.of(c.id, c.kind, c.chain) for c in children]
        start = time.perf_counter()
        try:
            kb.retract_adjacency(a, b, t)
            events.apply_transfer(kb, [q.id], entries, t, event_id=event)
            problem = ""
        except Exception as exc:  # a rejected write is a failed operation
            problem = repr(exc)
        seconds = time.perf_counter() - start
        tally.record("write", seconds, not problem, problem)

    def _read(self, tally: Tally, kind: str) -> None:
        sc, rng = self.sc, self.rng
        qids = list(sc.quantities)
        at = None
        if kind == "provenance":
            args = [rng.choice(qids)]
            expected = lambda: sc.provenance_payload(args[0])
        elif kind == "history":
            args = [rng.choice(sc.objects)]
            expected = lambda: sc.history_payload(args[0])
        elif kind == "cohort":
            g = rng.choice(sc.objects)
            t = rng.randint(sc.episodes[g][0].start, sc.tick)
            args, at = [g], f"t{t}"
            expected = lambda: sc.cohort_payload(g, t)
        elif kind == "ancestors":
            lineage = sc.quantities[rng.choice(qids)].chain[0].split("_")[0]
            kin = [q for q in qids if sc.quantities[q].chain[0].split("_")[0] == lineage]
            args = rng.sample(kin, 2) if len(kin) >= 2 else kin * 2
            expected = lambda: sc.ancestors_payload(*args)
        elif kind == "classify":
            args = [rng.choice(qids)]
            expected = lambda: sc.classify_payload(args)
        else:
            t = rng.randint(0, sc.tick)
            args = [f"t{t}"]
            expected = lambda: sc.world_payload(t)
        ns = argparse.Namespace(query=kind, args=args, transitive=kind == "provenance",
                                at=at, format="canonical")
        run_query = self.prog.cli.run_query
        start = time.perf_counter()
        try:
            _, payload = run_query(self.kb, ns)
            problem = ""
        except Exception as exc:  # an error is a failed operation
            payload, problem = None, repr(exc)
        seconds = time.perf_counter() - start
        ok = not problem and payload == expected()
        tally.record("read", seconds, ok, f"{kind} {args} {problem}")

    @staticmethod
    def breakdown(tally: Tally) -> dict[str, tuple[float, str]]:
        reads, writes = tally.times["read"], tally.times["write"]
        return {
            "read_p50_ms": (statistics.median(reads) * 1e3, "ms"),
            "read_p99_ms": (statistics.quantiles(reads, n=100)[98] * 1e3, "ms"),
            "write_p50_ms": (statistics.median(writes) * 1e3, "ms"),
            "session_ops_per_s": ((len(reads) + len(writes)) / (sum(reads) + sum(writes)), "ops/s"),
        }


WORKLOADS = {w.name: w for w in (Ingest, Validate, Session)}
