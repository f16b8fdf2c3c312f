"""The four request-path workloads: inputs, reference models, systems.

Every generated input is a pure function of ``(workload, seed)``.  Each
workload has three parts:

* ``make_inputs(seed)`` — the seed-pure data set (rows to pre-seed,
  catalog, query pool and the brute-force answers to every search);
* a *generator* that owns a reference model (plain dicts) and yields
  :class:`Op` values.  Generating an op applies it to the model, so each
  op carries the reply the model expects;
* a *system* built from the inputs through the program's public APIs,
  which executes an op and returns the reply.

Writes are chosen so that none can fail: enrolments pick courses the
student is not yet in, grades pick enrolled-but-ungraded pairs, check-ins
pick open loans, and shard inserts use fresh document ids.
"""

from __future__ import annotations

import bisect
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.admission import AdmissionController
from repro.rdb import Column, ColumnType, Schema, SyncPolicy, col
from repro.sharding.cluster import ShardCluster
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.tiers.protocol import Request, Role
from repro.tiers.server import ClassAdministrator
from repro.tiers.shards import ShardedDatabase

#: Client deadline stamped on every v2 request.  A single closed-loop
#: client never queues behind itself, so with this slack the admission
#: controller admits everything; a shed reply is counted as an error.
DEADLINE_S = 30.0

#: Reads by op; every other op is a write.
READ_OPS = frozenset({
    "transcript", "roster", "login", "search_library", "get", "scan",
    "scatter",
})


@dataclass(frozen=True)
class Op:
    """One generated request and the reply the reference model expects."""

    op: str
    slot: int
    params: dict[str, Any]
    expect: Any

    @property
    def is_read(self) -> bool:
        return self.op in READ_OPS


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # processes and Python's per-process hash salt.
    return random.Random(f"reqbench/{workload}/{seed}/{part}")


def _pick_mix(rng: random.Random, mix: tuple[tuple[str, float], ...]) -> str:
    r = rng.random()
    for name, share in mix:
        r -= share
        if r < 0:
            return name
    return mix[-1][0]


# ---------------------------------------------------------------------------
# Administration data shared by the three class-administrator workloads
# ---------------------------------------------------------------------------
@dataclass
class AdminInputs:
    students: list[str]
    courses: list[str]
    instructor_of: dict[str, str]
    enrolments: list[tuple[str, str]]
    grades: dict[tuple[str, str], float]


def _admin_inputs(workload: str, seed: int, n_students: int, n_courses: int,
                  per_student: int, graded: int) -> AdminInputs:
    rng = _rng(workload, seed, "admin")
    students = [f"s{i:05d}" for i in range(n_students)]
    courses = [f"C{i:03d}" for i in range(n_courses)]
    n_instructors = max(1, n_courses // 5)
    instructor_of = {c: f"i{i % n_instructors:03d}" for i, c in enumerate(courses)}
    enrolments: list[tuple[str, str]] = []
    grades: dict[tuple[str, str], float] = {}
    for s in students:
        taken = rng.sample(courses, per_student)
        enrolments.extend((s, c) for c in taken)
        for c in taken[:graded]:
            grades[(s, c)] = rng.randrange(0, 17) / 4.0
    return AdminInputs(students, courses, instructor_of, enrolments, grades)


class AdminModel:
    """Reference state of the administration tables."""

    def __init__(self, inputs: AdminInputs) -> None:
        self.enrolled: dict[str, set[str]] = {s: set() for s in inputs.students}
        self.roster: dict[str, set[str]] = {c: set() for c in inputs.courses}
        self.grades: dict[str, dict[str, float]] = {s: {} for s in inputs.students}
        self.stations: dict[str, str] = {}
        for s, c in inputs.enrolments:
            self.enrolled[s].add(c)
            self.roster[c].add(s)
        for (s, c), g in inputs.grades.items():
            self.grades[s][c] = g
        #: enrolled-but-ungraded pairs, the only legal grade targets
        self.ungraded = sorted(
            (s, c) for s, c in inputs.enrolments if (s, c) not in inputs.grades
        )

    def transcript(self, student: str) -> list[dict[str, Any]]:
        return [
            {"student_id": student, "course_number": c, "grade": g}
            for c, g in sorted(self.grades[student].items())
        ]

    def roster_of(self, course: str) -> list[str]:
        return sorted(self.roster[course])


def _seed_admin(server: ClassAdministrator, inputs: AdminInputs,
                station_users: list[str]) -> None:
    """Pre-seed the administration tables through the public engine API."""
    db = server.admin_db
    db.insert_many("students", [
        {"student_id": s, "name": f"Student {s}", "admitted": True}
        for s in inputs.students
    ])
    db.insert_many("courses", [
        {"course_number": c, "title": f"Course {c}",
         "instructor": inputs.instructor_of[c]}
        for c in inputs.courses
    ])
    db.insert_many("enrollments", [
        {"student_id": s, "course_number": c} for s, c in inputs.enrolments
    ])
    db.insert_many("transcripts", [
        {"student_id": s, "course_number": c, "grade": g}
        for (s, c), g in inputs.grades.items()
    ])
    db.insert_many("stations", [
        {"user_id": u, "station": "st-0", "address": ""} for u in station_users
    ])


class ServerSystem:
    """A class administrator driven through the v2 wire form."""

    def __init__(self, server: ClassAdministrator) -> None:
        self.server = server
        self.sessions: list[str] = []
        self.clock = server.admission.clock

    def login(self, user: str, role: Role) -> int:
        reply = self.server.handle(
            Request("login", None, {"user": user, "role": role.value})
        )
        if not reply.ok:
            raise RuntimeError(f"set-up login of {user} failed: {reply.error}")
        self.sessions.append(reply.data["session_id"])
        return len(self.sessions) - 1

    def execute(self, op: Op) -> Any:
        request = Request(
            op.op, self.sessions[op.slot] if op.slot >= 0 else None,
            op.params, deadline=self.clock() + DEADLINE_S,
        )
        return self.server.handle(Request.from_wire(request.to_wire()))

    @staticmethod
    def check(op: Op, reply: Any) -> bool:
        if not reply.ok or reply.shed or reply.degraded is not None:
            return False
        if op.op == "login":
            return isinstance(reply.data, dict) and str(
                reply.data.get("session_id", "")).startswith("sess-")
        return reply.data == op.expect

    def wire_bytes(self, op: Op) -> int:
        return Request(op.op, None, op.params).wire_size

    def close(self) -> None:
        """An in-memory server holds no files."""

    def counters(self) -> dict[str, float]:
        cache = self.server.query_cache
        admission = self.server.admission
        journal = self.server.journal
        return {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_entries": len(cache),
            "shed": sum(admission.shed.values()) if admission else 0,
            "journal_bytes": journal.tell() if journal is not None else 0,
        }


def _new_server(data_dir: Path | None, fsync: Callable[[int], None]
                ) -> ClassAdministrator:
    admission = AdmissionController(default_deadline_s=DEADLINE_S, max_depth=64)
    if data_dir is None:
        return ClassAdministrator(admission=admission)
    return ClassAdministrator(
        data_dir=data_dir, sync_policy=SyncPolicy("commit", fsync=fsync),
        admission=admission,
    )


# ---------------------------------------------------------------------------
# registrar_durable
# ---------------------------------------------------------------------------
REGISTRAR_MIX = (("enroll", 0.35), ("record_grade", 0.20),
                 ("register_station", 0.10), ("transcript", 0.35))


def registrar_inputs(seed: int) -> AdminInputs:
    return _admin_inputs("registrar_durable", seed, 2000, 100, 4, 2)


class RegistrarGenerator:
    """Students enrol, instructors grade, everyone re-registers stations."""

    def __init__(self, inputs: AdminInputs, seed: int,
                 student_slot: dict[str, int],
                 instructor_slot: dict[str, int]) -> None:
        self.inputs = inputs
        self.model = AdminModel(inputs)
        self.rng = _rng("registrar_durable", seed, "ops")
        self.student_slot = student_slot
        self.instructor_slot = instructor_slot
        self.station_seq = 0

    def next(self) -> Op:
        rng, model = self.rng, self.model
        kind = _pick_mix(rng, REGISTRAR_MIX)
        if kind == "record_grade" and not model.ungraded:
            kind = "enroll"
        if kind == "enroll":
            s = rng.choice(self.inputs.students)
            while len(model.enrolled[s]) == len(self.inputs.courses):
                s = rng.choice(self.inputs.students)
            c = rng.choice(self.inputs.courses)
            while c in model.enrolled[s]:
                c = rng.choice(self.inputs.courses)
            model.enrolled[s].add(c)
            model.roster[c].add(s)
            model.ungraded.append((s, c))
            return Op("enroll", self.student_slot[s], {"course_number": c},
                      {"student_id": s, "course_number": c})
        if kind == "record_grade":
            i = rng.randrange(len(model.ungraded))
            s, c = model.ungraded[i]
            model.ungraded[i] = model.ungraded[-1]
            model.ungraded.pop()
            grade = rng.randrange(0, 17) / 4.0
            model.grades[s][c] = grade
            slot = self.instructor_slot[self.inputs.instructor_of[c]]
            return Op("record_grade", slot,
                      {"student_id": s, "course_number": c, "grade": grade},
                      True)
        s = rng.choice(self.inputs.students)
        if kind == "register_station":
            self.station_seq += 1
            station = f"st-{self.station_seq}"
            model.stations[s] = station
            return Op("register_station", self.student_slot[s],
                      {"station": station}, {"station": station})
        return Op("transcript", self.student_slot[s], {},
                  model.transcript(s))


class RegistrarSystem(ServerSystem):
    def __init__(self, inputs: AdminInputs, seed: int, workdir: Path,
                 fsync: Callable[[int], None]) -> None:
        self.data_dir = workdir / "class_admin"
        super().__init__(_new_server(self.data_dir, fsync))
        _seed_admin(self.server, inputs, inputs.students)
        # The seed lands in the snapshot; the journal holds only the
        # benchmark's own acknowledged writes.
        self.server.checkpoint()
        student_slot = {s: self.login(s, Role.STUDENT) for s in inputs.students}
        instructor_slot = {
            i: self.login(i, Role.INSTRUCTOR)
            for i in sorted(set(inputs.instructor_of.values()))
        }
        self.gen = RegistrarGenerator(inputs, seed, student_slot, instructor_slot)

    def close(self) -> None:
        self.server.journal.close()

    def audit(self) -> list[str]:
        """Reopen from the files on disk only; every acked write is there."""
        self.close()
        fresh = ClassAdministrator(data_dir=self.data_dir, sync_policy="none")
        try:
            return _audit_admin(fresh, self.gen.model)
        finally:
            fresh.journal.close()


def _audit_admin(server: ClassAdministrator, model: AdminModel) -> list[str]:
    db = server.admin_db
    problems = []
    enrolled = {(r["student_id"], r["course_number"])
                for r in db.select("enrollments")}
    expected = {(s, c) for s, cs in model.enrolled.items() for c in cs}
    if enrolled != expected:
        problems.append(
            f"enrollments: {len(expected - enrolled)} acked missing, "
            f"{len(enrolled - expected)} unexpected")
    grades = {(r["student_id"], r["course_number"]): r["grade"]
              for r in db.select("transcripts")}
    expected_grades = {(s, c): g for s, gs in model.grades.items()
                       for c, g in gs.items()}
    if grades != expected_grades:
        problems.append("transcripts differ from the acknowledged grades")
    stations = {r["user_id"]: r["station"] for r in db.select("stations")}
    for user, station in model.stations.items():
        if stations.get(user) != station:
            problems.append(f"station of {user} lost")
            break
    return problems


# ---------------------------------------------------------------------------
# transcript_wide
# ---------------------------------------------------------------------------
WIDE_MIX = (("transcript", 0.70), ("roster", 0.15), ("login", 0.05),
            ("register_station", 0.10))
WIDE_REGISTRARS = 32


def wide_inputs(seed: int) -> AdminInputs:
    return _admin_inputs("transcript_wide", seed, 8000, 200, 4, 2)


class WideGenerator:
    """Uniform transcript reads over far more keys than the cache holds."""

    def __init__(self, inputs: AdminInputs, seed: int) -> None:
        self.inputs = inputs
        self.model = AdminModel(inputs)
        self.rng = _rng("transcript_wide", seed, "ops")
        self.station_seq = 0
        self.turn = 0

    def next(self) -> Op:
        rng, model = self.rng, self.model
        kind = _pick_mix(rng, WIDE_MIX)
        # Round-robin over the logged-in registrar sessions.
        self.turn = (self.turn + 1) % WIDE_REGISTRARS
        slot = self.turn
        if kind == "transcript":
            s = rng.choice(self.inputs.students)
            return Op("transcript", slot, {"student_id": s}, model.transcript(s))
        if kind == "roster":
            c = rng.choice(self.inputs.courses)
            return Op("roster", slot, {"course_number": c}, model.roster_of(c))
        if kind == "login":
            s = rng.choice(self.inputs.students)
            return Op("login", -1, {"user": s, "role": "student"}, None)
        self.station_seq += 1
        station = f"st-{self.station_seq}"
        model.stations[f"reg{slot:02d}"] = station
        return Op("register_station", slot, {"station": station},
                  {"station": station})


class WideSystem(ServerSystem):
    def __init__(self, inputs: AdminInputs, seed: int, workdir: Path,
                 fsync: Callable[[int], None]) -> None:
        super().__init__(_new_server(None, fsync))
        registrars = [f"reg{i:02d}" for i in range(WIDE_REGISTRARS)]
        _seed_admin(self.server, inputs, registrars)
        for user in registrars:
            self.login(user, Role.ADMINISTRATOR)
        self.gen = WideGenerator(inputs, seed)


# ---------------------------------------------------------------------------
# library_hot
# ---------------------------------------------------------------------------
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa",
              "do", "gu", "be", "fi", "ho", "ja")
_FIRST = ("ada", "alan", "grace", "edsger", "barbara", "donald", "john",
          "frances", "leslie", "niklaus")
_LAST = ("lovelace", "turing", "hopper", "dijkstra", "liskov", "knuth",
         "backus", "allen", "lamport", "wirth", "hoare", "codd", "floyd",
         "kay", "ritchie", "thompson", "karp", "rabin", "milner", "scott")

#: Searches are under a third of the reads, so the read median falls
#: among the cache hits rather than on the gap between hits and searches.
LIBRARY_MIX = (("search_library", 0.25), ("transcript", 0.35),
               ("roster", 0.25), ("circulation", 0.15))
LIBRARY_DOCS = 4000
LIBRARY_QUERIES = 300
HOT_STUDENTS = 100
HOT_COURSES = 20


@dataclass
class LibraryInputs:
    admin: AdminInputs
    docs: list[dict[str, Any]]
    queries: list[dict[str, Any]]
    answers: list[list[dict[str, Any]]]
    zipf_cum: list[float]


def _tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


def _doc_terms(doc: dict[str, Any]) -> tuple[set[str], set[str], list[str]]:
    keyword_terms = set(_tokens(doc["title"]))
    for k in doc["keywords"]:
        keyword_terms.update(_tokens(k))
    return keyword_terms, set(_tokens(doc["instructor"])), _tokens(doc["title"])


def brute_force_search(docs: list[dict[str, Any]], keywords: str | None,
                       instructor: str | None, course: str | None,
                       limit: int | None,
                       terms_of: list[tuple] | None = None
                       ) -> list[dict[str, Any]]:
    """The catalog scan a search must agree with (paper §5 semantics:
    any keyword matches and ranks by match share; every instructor
    token; course number exactly or every token prefixing a title word).
    ``terms_of`` holds each document's tokens, precomputed by the caller."""
    if terms_of is None:
        terms_of = [_doc_terms(doc) for doc in docs]
    terms = _tokens(keywords) if keywords else []
    inst = set(_tokens(instructor)) if instructor else set()
    course_tokens = _tokens(course) if course else []
    hits = []
    for doc, (doc_terms, inst_terms, title_words) in zip(docs, terms_of):
        if terms and not any(t in doc_terms for t in terms):
            continue
        if instructor and not (inst and inst <= inst_terms):
            continue
        if course:
            exact = doc["course_number"].lower() == course.lower()
            prefixed = bool(course_tokens) and all(
                any(w.startswith(t) for w in title_words) for t in course_tokens
            )
            if not (exact or prefixed):
                continue
        score = (sum(1 for t in terms if t in doc_terms) / len(terms)
                 if terms else 1.0)
        hits.append({"doc_id": doc["doc_id"], "score": score})
    hits.sort(key=lambda h: (-h["score"], h["doc_id"]))
    return hits[:limit] if limit is not None else hits


def library_inputs(seed: int) -> LibraryInputs:
    admin = _admin_inputs("library_hot", seed, 500, 60, 4, 2)
    rng = _rng("library_hot", seed, "catalog")
    words = sorted({
        "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        for _ in range(600)
    })
    # Skewed word popularity, so some keywords match many documents.
    weights = [1.0 / (i + 1) ** 0.8 for i in range(len(words))]
    names = [f"{f} {l}" for f in _FIRST for l in _LAST[:2]]
    instructor_name = {i: names[k % len(names)] for k, i in
                       enumerate(sorted(set(admin.instructor_of.values())))}
    docs = []
    for n in range(LIBRARY_DOCS):
        course = rng.choice(admin.courses)
        docs.append({
            "doc_id": f"d{n:05d}",
            "title": " ".join(rng.choices(words, weights, k=3)),
            "course_number": course,
            "instructor": instructor_name[admin.instructor_of[course]],
            "keywords": tuple(rng.choices(words, weights, k=3)),
        })
    # Query popularity follows word popularity: the query of Zipf rank r
    # uses the r-th most frequent word (weights fall with position in
    # ``words``) and its shape cycles with r.  So the cost of the popular
    # queries is the same across seeds in expectation; only the words
    # and the documents drawn differ.
    pool = names + list(_LAST[:2])
    queries = []
    for r in range(LIBRARY_QUERIES):
        shape, cycle = r % 10, r // 10
        query: dict[str, Any] = {"limit": 20}
        if shape < 5:
            query["keywords"] = words[r]
        elif shape < 7:
            query["keywords"] = f"{words[r]} {words[r + 7]}"
        elif shape == 7:
            query["instructor"] = pool[cycle % len(pool)]
            if cycle >= len(pool):
                query["course"] = admin.courses[cycle]
        elif shape == 8:
            query["course"] = admin.courses[cycle % len(admin.courses)]
        else:
            query["course"] = words[r][:3]
            query["keywords"] = words[r + 3]
        queries.append(query)
    terms_of = [_doc_terms(doc) for doc in docs]
    answers = [
        brute_force_search(docs, q.get("keywords"), q.get("instructor"),
                           q.get("course"), q.get("limit"), terms_of)
        for q in queries
    ]
    cum, total = [], 0.0
    for rank in range(len(queries)):
        total += 1.0 / (rank + 1) ** 1.1
        cum.append(total)
    return LibraryInputs(admin, docs, queries, answers, cum)


class LibraryGenerator:
    """Zipf-skewed searches, a hot cached set, and circulation."""

    def __init__(self, inputs: LibraryInputs, seed: int,
                 student_slot: dict[str, int], course_slot: dict[str, int]
                 ) -> None:
        self.inputs = inputs
        self.model = AdminModel(inputs.admin)
        self.rng = _rng("library_hot", seed, "ops")
        self.hot_students = inputs.admin.students[:HOT_STUDENTS]
        self.hot_courses = inputs.admin.courses[:HOT_COURSES]
        self.student_slot = student_slot
        self.course_slot = course_slot
        self.loans: dict[str, dict[str, float]] = {s: {} for s in self.hot_students}
        self.open_loans: list[tuple[str, str]] = []
        self.clock = 0.0

    def next(self) -> Op:
        rng, model = self.rng, self.model
        kind = _pick_mix(rng, LIBRARY_MIX)
        if kind == "search_library":
            i = rng.choices(range(len(self.inputs.queries)),
                            cum_weights=self.inputs.zipf_cum)[0]
            s = rng.choice(self.hot_students)
            return Op("search_library", self.student_slot[s],
                      dict(self.inputs.queries[i]), self.inputs.answers[i])
        if kind == "transcript":
            s = rng.choice(self.hot_students)
            return Op("transcript", self.student_slot[s], {},
                      model.transcript(s))
        if kind == "roster":
            c = rng.choice(self.hot_courses)
            return Op("roster", self.course_slot[c], {"course_number": c},
                      model.roster_of(c))
        self.clock += 1.0
        s = rng.choice(self.hot_students)
        if self.open_loans and rng.random() < 0.5:
            i = rng.randrange(len(self.open_loans))
            s, doc = self.open_loans[i]
            self.open_loans[i] = self.open_loans[-1]
            self.open_loans.pop()
            held = self.clock - self.loans[s].pop(doc)
            return Op("check_in", self.student_slot[s],
                      {"doc_id": doc, "time": self.clock},
                      {"held_seconds": held})
        doc = rng.choice(self.inputs.docs)["doc_id"]
        while doc in self.loans[s]:
            doc = rng.choice(self.inputs.docs)["doc_id"]
        self.loans[s][doc] = self.clock
        self.open_loans.append((s, doc))
        return Op("check_out", self.student_slot[s],
                  {"doc_id": doc, "time": self.clock},
                  {"doc_id": doc, "checked_out_at": self.clock})

    def warmup(self) -> list[Op]:
        """One read of every hot key and every query, so the cache holds
        the hot set and lazy set-up is done before timing."""
        ops = [Op("transcript", self.student_slot[s], {},
                  self.model.transcript(s)) for s in self.hot_students]
        ops += [Op("roster", self.course_slot[c], {"course_number": c},
                   self.model.roster_of(c)) for c in self.hot_courses]
        ops += [Op("search_library", self.student_slot[self.hot_students[0]],
                   dict(q), a)
                for q, a in zip(self.inputs.queries, self.inputs.answers)]
        return ops


class LibrarySystem(ServerSystem):
    def __init__(self, inputs: LibraryInputs, seed: int, workdir: Path,
                 fsync: Callable[[int], None]) -> None:
        super().__init__(_new_server(None, fsync))
        admin = inputs.admin
        hot = admin.students[:HOT_STUDENTS]
        _seed_admin(self.server, admin, hot)
        self.server.admin_db.insert_many("catalog_docs", [
            {"doc_id": d["doc_id"], "title": d["title"],
             "course_number": d["course_number"],
             "instructor": d["instructor"],
             "keywords": ",".join(d["keywords"]), "starting_url": None,
             "size_bytes": 1024}
            for d in inputs.docs
        ])
        self.server.refresh_catalog()
        student_slot = {s: self.login(s, Role.STUDENT) for s in hot}
        course_slot = {}
        for c in admin.courses[:HOT_COURSES]:
            course_slot[c] = self.login(admin.instructor_of[c], Role.INSTRUCTOR)
        self.gen = LibraryGenerator(inputs, seed, student_slot, course_slot)


# ---------------------------------------------------------------------------
# shard_docs
# ---------------------------------------------------------------------------
T = ColumnType

DOCS = Schema(
    name="docs",
    columns=(
        Column("doc_id", T.INT, nullable=False),
        Column("author", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False),
        Column("size_kb", T.INT, nullable=False),
    ),
    primary_key=("doc_id",),
)
#: Gets are two thirds of the reads and direct inserts two thirds of the
#: writes, so each median falls inside one op's latencies rather than on
#: the gap between a cheap op and a dear one.
SHARD_MIX = (("get", 0.50), ("scan", 0.15), ("scatter", 0.10),
             ("insert", 0.17), ("transact", 0.08))
SHARDS = 2
SHARD_DOCS = 20000
AUTHORS = 200
SCATTER_LIMIT = 10
#: size band of a scatter-gather read: about 5% of each fragment matches
SCATTER_BAND = 200


@dataclass
class ShardInputs:
    docs: list[dict[str, Any]]
    authors: list[str]
    author_shard: dict[str, int]


def _shard_map() -> ShardMap:
    return ShardMap(SHARDS, {"docs": TableSharding(key=("author",))})


def shard_inputs(seed: int) -> ShardInputs:
    rng = _rng("shard_docs", seed, "docs")
    authors = [f"a{i:03d}" for i in range(AUTHORS)]
    docs = [
        {"doc_id": i, "author": rng.choice(authors),
         "version": rng.randrange(7), "size_kb": rng.randrange(4000)}
        for i in range(SHARD_DOCS)
    ]
    shard_map = _shard_map()
    author_shard = {a: shard_map.shard_for_row("docs", {"author": a})
                    for a in authors}
    return ShardInputs(docs, authors, author_shard)


class ShardModel:
    def __init__(self, docs: list[dict[str, Any]]) -> None:
        self.rows: dict[int, dict[str, Any]] = {d["doc_id"]: dict(d) for d in docs}
        self.by_author: dict[str, list[int]] = {}
        for d in docs:
            self.by_author.setdefault(d["author"], []).append(d["doc_id"])
        self.by_size = sorted((d["size_kb"], d["doc_id"]) for d in docs)

    def add(self, row: dict[str, Any]) -> None:
        self.rows[row["doc_id"]] = dict(row)
        self.by_author.setdefault(row["author"], []).append(row["doc_id"])
        bisect.insort(self.by_size, (row["size_kb"], row["doc_id"]))


class ShardGenerator:
    """PK gets, pruned and scatter reads, direct and two-phase writes."""

    def __init__(self, inputs: ShardInputs, seed: int) -> None:
        self.inputs = inputs
        self.model = ShardModel(inputs.docs)
        self.rng = _rng("shard_docs", seed, "ops")
        self.next_id = SHARD_DOCS
        self.on_shard = [
            [a for a in inputs.authors if inputs.author_shard[a] == s]
            for s in range(SHARDS)
        ]

    def _new_row(self, author: str) -> dict[str, Any]:
        row = {"doc_id": self.next_id, "author": author,
               "version": self.rng.randrange(7),
               "size_kb": self.rng.randrange(4000)}
        self.next_id += 1
        self.model.add(row)
        return row

    def next(self) -> Op:
        rng, model = self.rng, self.model
        kind = _pick_mix(rng, SHARD_MIX)
        if kind == "get":
            doc_id = rng.randrange(self.next_id)
            return Op("get", -1, {"doc_id": doc_id}, dict(model.rows[doc_id]))
        if kind == "scan":
            author = rng.choice(self.inputs.authors)
            low = rng.randrange(4000)
            expect = sorted(
                (model.rows[i] for i in model.by_author.get(author, ())
                 if model.rows[i]["size_kb"] >= low),
                key=lambda r: r["doc_id"])
            return Op("scan", -1, {"author": author, "low": low}, expect)
        if kind == "scatter":
            low = rng.randrange(4000 - SCATTER_BAND)
            high = low + SCATTER_BAND
            start = bisect.bisect_left(model.by_size, (low, -1))
            expect = [dict(model.rows[i]) for size, i in
                      model.by_size[start:start + SCATTER_LIMIT] if size < high]
            return Op("scatter", -1, {"low": low, "high": high}, expect)
        if kind == "insert":
            row = self._new_row(rng.choice(self.inputs.authors))
            return Op("insert", -1, {"row": row}, (row["doc_id"],))
        rows = [self._new_row(rng.choice(self.on_shard[s])) for s in range(SHARDS)]
        return Op("transact", -1, {"rows": rows},
                  {s: [(row["doc_id"],)] for s, row in enumerate(rows)})


class ShardSystem:
    """``ShardedDatabase`` over in-process, journal-backed shards."""

    def __init__(self, inputs: ShardInputs, seed: int, workdir: Path,
                 fsync: Callable[[int], None]) -> None:
        self.workdir = workdir / "shards"
        self.policy = SyncPolicy("commit", fsync=fsync)
        self.cluster = ShardCluster(
            self.workdir, (DOCS,), SHARDS, sync=self.policy, use_net=False,
        )
        self.sharded = ShardedDatabase(
            _shard_map(), self.cluster.handles, lambda: self.cluster.coordinator,
            schemas=(DOCS,),
        )
        self.sharded.insert_many("docs", inputs.docs)
        self.gen = ShardGenerator(inputs, seed)
        dispatch: dict[str, Callable[[dict[str, Any]], Any]] = {
            "get": lambda p: self.sharded.get("docs", p["doc_id"]),
            "scan": lambda p: self.sharded.select(
                "docs",
                where=(col("author") == p["author"]) & (col("size_kb") >= p["low"]),
                order_by="doc_id"),
            "scatter": lambda p: self.sharded.select(
                "docs",
                where=(col("size_kb") >= p["low"]) & (col("size_kb") < p["high"]),
                order_by=["size_kb", "doc_id"], limit=SCATTER_LIMIT),
            "insert": lambda p: self.sharded.insert("docs", p["row"]),
            "transact": lambda p: self.sharded.transact(
                [["insert", "docs", row] for row in p["rows"]]),
        }
        self._dispatch = dispatch

    def execute(self, op: Op) -> Any:
        return self._dispatch[op.op](op.params)

    @staticmethod
    def check(op: Op, reply: Any) -> bool:
        return reply == op.expect

    def wire_bytes(self, op: Op) -> int:
        return 0

    def counters(self) -> dict[str, float]:
        return {
            "direct_writes": self.sharded.direct_writes,
            "twopc_writes": self.sharded.twopc_writes,
            "journal_bytes": sum(
                os.path.getsize(p) for p in self.cluster.journal_paths()
                if p.exists()),
        }

    def close(self) -> None:
        self.cluster.close()

    def audit(self) -> list[str]:
        """Recover a fresh cluster from the journals on disk; every
        acknowledged document must be there, and nothing else."""
        self.close()
        fresh = ShardCluster(self.workdir, (DOCS,), SHARDS, sync="none")
        try:
            fresh.recover_all()
            fresh.verify_journals()
            rows: dict[int, dict[str, Any]] = {}
            for participant in fresh.participants.values():
                if participant.in_doubt:
                    return [f"shard {participant.shard_id} left in doubt"]
                for row in participant.db.select("docs"):
                    rows[row["doc_id"]] = row
        finally:
            fresh.close()
        expected = self.gen.model.rows
        if rows == expected:
            return []
        missing = len(set(expected) - set(rows))
        return [f"shard audit: {missing} acked documents missing, "
                f"{len(set(rows) - set(expected))} unexpected, "
                f"{sum(1 for k in rows if k in expected and rows[k] != expected[k])}"
                " differ"]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]
    system: Callable[..., Any]
    durable: bool
    warmup_ops: int


WORKLOADS: dict[str, Workload] = {
    "registrar_durable": Workload("registrar_durable", registrar_inputs,
                                  RegistrarSystem, True, 300),
    "transcript_wide": Workload("transcript_wide", wide_inputs,
                                WideSystem, False, 1000),
    "library_hot": Workload("library_hot", library_inputs,
                            LibrarySystem, False, 300),
    "shard_docs": Workload("shard_docs", shard_inputs, ShardSystem, True, 100),
}
