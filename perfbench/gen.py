"""Seeded scenario generator with its own ground truth.

Every input of the benchmark is a `.mp` scenario written here as text. The
generator keeps the state it describes (each quantity's chain of granules,
its parents, each granule's episodes, every adjacency interval and the
planted faults), so the benchmark can check the program's answers without
asking the program. Stdlib only; nothing here imports matterkb.

Shape shared by all workloads: a *lineage* is a chain of granules
g<L>_0 - g<L>_1 - ... created as one quantity; a *split* cuts one chain
edge with `disconnect` and, at the same tick, replaces the quantity by the
two chain segments on either side of the cut. Lineages never touch each
other, so an engine-built scenario is clean unless a fault is planted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GRAIN = "Grain"
ROCK = "Rock"
BRINE = "Brine"

# ingest: 120 lineages, 420 events and a 110 KB `.mp`. The log is long enough
# that the scans over the whole history are a large share of the work (their
# cost grows with its square), yet a pass (export, replay-check, six queries)
# takes about 1 s, so a run holds a few dozen passes. At 400 lineages a pass
# took 6 s, and a handful of passes per run did not give a steady median on
# a shared host.
INGEST_LINEAGES = 120
INGEST_GRANULES = 8
INGEST_SPLITS = 288        # 2.4 of the at most 3 splits an 8-chain allows
INGEST_SUBQUANTITIES = 12  # cross-kind sub-quantities, one per ten lineages

# validate: full `validate` grows about as n^3.7 here; 14 lineages keep it
# near 0.25 s, so a run holds about a hundred passes. Splits stay below what
# the lineages can take, so every seed gives the same 47 events.
VALIDATE_LINEAGES = 14
VALIDATE_GRANULES = 8
VALIDATE_SPLITS = 30
VALIDATE_CHORDS = 32       # extra intra-quantity edges that open and close

# session: one large KB, so that reads pay for history size; 32-granule
# chains leave room for thousands of writes before no chain can be cut.
SESSION_LINEAGES = 200
SESSION_GRANULES = 32
SESSION_SPLITS = 400       # history present before the first timed operation


@dataclass
class Quantity:
    id: str
    kind: str
    chain: tuple[str, ...]
    created: int
    event: str
    parents: tuple[str, ...] = ()
    terminated: int | None = None

    def live_at(self, t: int) -> bool:
        return self.created <= t and (self.terminated is None or t < self.terminated)

    def status_at(self, t: int) -> str:
        if t < self.created:
            return "not-yet-created"
        if self.terminated is not None and t >= self.terminated:
            return "terminated"
        return "live"


@dataclass
class Interval:
    a: str
    b: str
    start: int
    end: int | None = None

    def active_at(self, t: int) -> bool:
        return self.start <= t and (self.end is None or t < self.end)


@dataclass
class Episode:
    quantity: str
    start: int
    in_event: str
    end: int | None = None
    out_event: str | None = None


@dataclass
class Scenario:
    """Ground truth of one generated scenario, plus its `.mp` text."""

    objects: list[str] = field(default_factory=list)
    quantities: dict[str, Quantity] = field(default_factory=dict)
    intervals: list[Interval] = field(default_factory=list)
    subquantities: list[tuple[str, str]] = field(default_factory=list)
    event_ticks: list[int] = field(default_factory=list)
    episodes: dict[str, list[Episode]] = field(default_factory=dict)
    nested: set[str] = field(default_factory=set)  # granules also held by a sub-quantity
    uncuttable: set[tuple[str, str]] = field(default_factory=set)
    tick: int = 0
    lines: list[str] = field(default_factory=list)
    _open: dict[tuple[str, str], Interval] = field(default_factory=dict)
    _live: dict[str, Quantity] = field(default_factory=dict)
    _objects_payload: list[dict] = field(default_factory=list)  # objects never change after t0
    _next_l: int = 0
    _next_q: int = 0
    _next_e: int = 0

    # -- text ------------------------------------------------------------------

    def text(self) -> str:
        head = [
            f"object-kind {GRAIN}",
            f"quantity-kind {ROCK} requires {GRAIN}",
            f"quantity-kind {BRINE} requires {GRAIN}",
        ]
        head += [f"object {g} : {GRAIN}" for g in self.objects]
        return "\n".join(head + self.lines) + "\n"

    # -- mutations ---------------------------------------------------------------

    def next_tick(self) -> int:
        self.tick += 1
        return self.tick

    def connect(self, a: str, b: str, t: int) -> None:
        key = tuple(sorted((a, b)))
        iv = Interval(key[0], key[1], t)
        self.intervals.append(iv)
        self._open[key] = iv
        self.lines.append(f"connect {a} {b} at t{t}")

    def disconnect(self, a: str, b: str, t: int) -> None:
        self._open.pop(tuple(sorted((a, b)))).end = t
        self.lines.append(f"disconnect {a} {b} at t{t}")

    def new_lineage(self, n_granules: int) -> Quantity:
        chain = tuple(f"g{self._next_l}_{i}" for i in range(n_granules))
        self._next_l += 1
        self.objects.extend(chain)
        return self.create(ROCK, chain)

    def create(self, kind: str, chain: tuple[str, ...]) -> Quantity:
        """A creation event for a new quantity whose chain edges open now."""
        t = self.next_tick()
        qid = self._quantity_id()
        q = Quantity(qid, kind, chain, t, f"create-{qid}")
        self.quantities[qid] = q
        self._live[qid] = q
        self.event_ticks.append(t)
        self.lines.append(f"quantity {qid} : {kind} at t{t} granules {{ {', '.join(chain)} }}")
        if kind == ROCK:
            # Brine granules are already connected through their Rock host,
            # and only Rock stays are tracked as episodes.
            for a, b in zip(chain, chain[1:]):
                self.connect(a, b, t)
            for g in chain:
                self.episodes.setdefault(g, []).append(Episode(qid, t, q.event))
        return q

    def sub_quantity(self, whole: Quantity, k: int) -> Quantity:
        """A Brine portion of two adjacent granules of a live Rock quantity."""
        pair = whole.chain[k:k + 2]
        self.nested.update(pair)
        self.uncuttable.add(pair)
        s = self.create(BRINE, pair)
        self.subquantities.append((s.id, whole.id))
        self.lines.append(f"subquantity {s.id} of {whole.id}")
        return s

    def cuts(self, q: Quantity) -> list[int]:
        """Chain positions where q can be cut into two parts of two or more."""
        return [
            k for k in range(2, len(q.chain) - 1)
            if (q.chain[k - 1], q.chain[k]) not in self.uncuttable
        ]

    def random_cut(self, rng: random.Random) -> tuple[Quantity, int] | None:
        """A live Rock quantity and a chain position where it can be cut."""
        candidates = [q for q in self._live.values() if q.kind == ROCK and len(q.chain) >= 4]
        rng.shuffle(candidates)
        for q in candidates:
            cuts = self.cuts(q)
            if cuts:
                return q, rng.choice(cuts)
        return None

    def split(self, q: Quantity, k: int) -> tuple[Quantity, Quantity]:
        """Cut q's chain before position k and replace q by the two segments."""
        t = self.next_tick()
        event = f"e{self._next_e}"
        self._next_e += 1
        self.disconnect(q.chain[k - 1], q.chain[k], t)
        q.terminated = t
        del self._live[q.id]
        self.event_ticks.append(t)
        children = []
        for part in (q.chain[:k], q.chain[k:]):
            cid = self._quantity_id()
            children.append(Quantity(cid, q.kind, part, t, event, (q.id,)))
        self.lines.append(f"event {event} at t{t} {{")
        self.lines.append(f"  donor {q.id} ;")
        self.lines.append(" ;\n".join(
            f"  create {c.id} : {c.kind} granules {{ {', '.join(c.chain)} }}" for c in children
        ))
        self.lines.append("}")
        for c in children:
            self.quantities[c.id] = c
            self._live[c.id] = c
            for g in c.chain:
                ep = self.episodes[g][-1]
                ep.end, ep.out_event = t, event
                self.episodes[g].append(Episode(c.id, t, event))
        return children[0], children[1]

    def _quantity_id(self) -> str:
        self._next_q += 1
        return f"q{self._next_q}"

    # -- ground truth --------------------------------------------------------------

    def live(self, kind: str) -> list[Quantity]:
        return [q for q in self._live.values() if q.kind == kind]

    def ancestors(self, qid: str) -> set[str]:
        out: set[str] = set()
        stack = list(self.quantities[qid].parents)
        while stack:
            p = stack.pop()
            if p not in out:
                out.add(p)
                stack.extend(self.quantities[p].parents)
        return out

    def origin(self, qid: str) -> str:
        # Every split child is a same-kind subset of its single donor.
        return "SubPortion" if self.quantities[qid].parents else "OriginalPortion"

    def provenance_payload(self, qid: str) -> dict:
        donors = sorted(self.ancestors(qid))
        members = {qid, *donors}
        edges = []
        for x in sorted(members):
            child = self.quantities[x]
            for p in child.parents:
                parent = self.quantities[p]
                subset = set(child.chain) <= set(parent.chain)
                edges.append({
                    "inheritor": x,
                    "donor": p,
                    "event": child.event,
                    "completeInheritance": subset,
                    "completeDonation": set(parent.chain) <= set(child.chain),
                    "isSubPortion": subset and child.kind == parent.kind,
                })
        edges.sort(key=lambda e: (e["inheritor"], e["donor"]))
        return {"quantity": qid, "transitive": True, "donors": donors, "edges": edges}

    def history_payload(self, g: str) -> dict:
        episodes = []
        for ep in self.episodes.get(g, []):
            rec = {"quantity": ep.quantity, "from": ep.start}
            if ep.end is not None:
                rec["to"] = ep.end
            rec["inEvent"] = ep.in_event
            if ep.out_event is not None:
                rec["outEvent"] = ep.out_event
            episodes.append(rec)
        return {"object": g, "episodes": episodes}

    def cohort_payload(self, g: str, t: int) -> dict:
        members: set[str] = set()
        for q in self.quantities.values():
            if q.live_at(t) and g in q.chain:
                members.update(q.chain)
        return {"object": g, "at": t, "cohort": sorted(members)}

    def ancestors_payload(self, q1: str, q2: str) -> dict:
        shared = (self.ancestors(q1) | {q1}) & (self.ancestors(q2) | {q2})
        return {"quantities": [q1, q2], "commonAncestors": sorted(shared)}

    def classify_payload(self, ids: list[str]) -> dict:
        return {"classification": [{"quantity": q, "origin": self.origin(q)} for q in ids]}

    def world_payload(self, t: int) -> dict:
        live = [q for q in self.quantities.values() if q.live_at(t)]
        live_ids = {q.id for q in live}
        if len(self._objects_payload) != len(self.objects):
            self._objects_payload = [{"id": g, "status": "live"} for g in sorted(self.objects)]
        return {
            "at": t,
            "objects": self._objects_payload,
            "quantities": [
                {"id": qid, "status": self.quantities[qid].status_at(t)}
                for qid in sorted(self.quantities)
            ],
            "granuleOf": [
                {"object": g, "quantity": q}
                for g, q in sorted((g, q.id) for q in live for g in q.chain)
            ],
            "adjacency": [
                {"a": a, "b": b}
                for a, b in sorted({(iv.a, iv.b) for iv in self.intervals if iv.active_at(t)})
            ],
            "subquantityOf": [
                {"part": p, "whole": w}
                for p, w in sorted(self.subquantities)
                if p in live_ids and w in live_ids
            ],
        }

    def change_points(self) -> list[int]:
        points = {0, *self.event_ticks}
        for iv in self.intervals:
            points.add(iv.start)
            if iv.end is not None:
                points.add(iv.end)
        return sorted(points)


def _split_some(sc: Scenario, rng: random.Random, splits: int) -> None:
    """Split random live Rock quantities that can still be cut."""
    for _ in range(splits):
        cut = sc.random_cut(rng)
        if cut is None:
            return
        sc.split(*cut)


def _schedule(*shares: tuple[str, int, float, float]) -> list[str]:
    """Actions of each kind spread evenly over their share [lo, hi) of the log.

    The order does not depend on the seed, so every seed gives a log of the
    same shape and cost; the seed picks only which quantity and where.
    """
    keyed = [(lo + (hi - lo) * i / n, kind) for kind, n, lo, hi in shares for i in range(n)]
    return [kind for _, kind in sorted(keyed)]


def ingest(seed: int, scale: float = 1.0) -> Scenario:
    """Many lineages created and split in interleaved order, with sub-quantities."""
    rng = random.Random(seed)
    sc = Scenario()
    actions = _schedule(
        ("lineage", round(INGEST_LINEAGES * scale), 0.0, 0.6),
        ("split", round(INGEST_SPLITS * scale), 0.05, 1.0),
        ("sub", round(INGEST_SUBQUANTITIES * scale), 0.1, 0.95),
    )
    for action in actions:
        if action == "lineage":
            sc.new_lineage(INGEST_GRANULES)
        elif action == "split":
            _split_some(sc, rng, 1)
        else:
            hosts = [q for q in sc.live(ROCK) if not (set(q.chain) & sc.nested)]
            if hosts:
                host = rng.choice(hosts)
                sc.sub_quantity(host, rng.randrange(len(host.chain) - 1))
    return sc


@dataclass
class Fault:
    rule: str
    subjects: tuple[str, ...]
    start: int
    end: int | None


def validate(seed: int, scale: float = 1.0) -> tuple[Scenario, list[Fault]]:
    """Splitting lineages with chord churn, plus three planted adjacency faults.

    The faults live in three extra lineages that are never split, so each
    one violates exactly one rule on exactly the worlds its interval covers.
    """
    rng = random.Random(seed)
    sc = Scenario()
    lineages = max(2, round(VALIDATE_LINEAGES * scale))
    fa, fb, fc = (sc.new_lineage(VALIDATE_GRANULES) for _ in range(3))
    for q in (fa, fb, fc):
        sc.uncuttable.update(zip(q.chain, q.chain[1:]))
    actions = _schedule(
        ("lineage", lineages, 0.0, 0.4),
        ("split", round(VALIDATE_SPLITS * scale), 0.05, 1.0),
    )
    for action in actions:
        if action == "lineage":
            sc.new_lineage(VALIDATE_GRANULES)
        else:
            _split_some(sc, rng, 1)
    last = sc.tick

    # Chords open and close inside one quantity's lifetime, never across a cut.
    # The fault lineages get none, so each fault keeps its single effect.
    hosts = [q for q in sc.quantities.values()
             if len(q.chain) >= 3 and q.id not in (fa.id, fb.id, fc.id)]
    used: dict[tuple[str, str], int] = {}
    for _ in range(round(VALIDATE_CHORDS * scale)):
        q = rng.choice(hosts)
        end = q.terminated if q.terminated is not None else last + 1
        i = rng.randrange(len(q.chain) - 2)
        j = rng.randrange(i + 2, len(q.chain))
        key = tuple(sorted((q.chain[i], q.chain[j])))
        lo = max(q.created, used.get(key, 0))
        if lo >= end:
            continue
        start = rng.randrange(lo, end)
        stop = rng.randrange(start + 1, end + 1)
        used[key] = stop
        sc.connect(q.chain[i], q.chain[j], start)
        sc.disconnect(q.chain[i], q.chain[j], stop)

    # Faults open early and are all active at the busiest world, the last
    # split; the split cluster never closes.
    a1, b1 = last // 4, last + 1
    touch = tuple(sorted((fa.id, fb.id)))
    sc.connect(fa.chain[-1], fb.chain[0], a1)
    sc.disconnect(fa.chain[-1], fb.chain[0], b1)
    a2 = last // 3
    sc.disconnect(fb.chain[3], fb.chain[4], a2)
    a3, b3 = last // 5, last + 1
    sc.disconnect(fc.chain[0], fc.chain[1], a3)
    sc.connect(fc.chain[0], fc.chain[1], b3)
    faults = [
        Fault("MAXIMALITY_SAME_KIND", touch, a1, b1),
        Fault("CONNECTIVITY", (fb.id,), a2, None),
        Fault("EXTERNAL_CONNECTION", (fc.chain[0], fc.id), a3, b3),
    ]
    return sc, faults


def expected_violations(sc: Scenario, faults: list[Fault], worlds: list[int]) -> list[tuple]:
    """(rule, subjects, at) of every violation, in the validator's order."""
    out = [
        (f.rule, f.subjects, t)
        for f in faults
        for t in worlds
        if f.start <= t and (f.end is None or t < f.end)
    ]
    return sorted(out)


def busiest_world(sc: Scenario) -> int:
    """Earliest change point with the most live quantities."""
    return max(sc.change_points(), key=lambda t: (sum(q.live_at(t) for q in sc.quantities.values()), -t))


def session(seed: int, scale: float = 1.0) -> Scenario:
    """Long chains created and split a few times before the session starts."""
    rng = random.Random(seed)
    sc = Scenario()
    for _ in range(max(2, round(SESSION_LINEAGES * scale))):
        sc.new_lineage(SESSION_GRANULES)
    _split_some(sc, rng, round(SESSION_SPLITS * scale))
    return sc
