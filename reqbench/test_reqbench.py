"""Self-tests for the benchmark's own parts.

Run from the repository root::

    python3 -m pytest -q reqbench/test_reqbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (str(HERE.parent / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro.admission import AdmissionController  # noqa: E402
from repro.library.catalog import CatalogEntry, VirtualLibrary  # noqa: E402
from repro.tiers.protocol import Request, Response  # noqa: E402
from repro.tiers.server import ClassAdministrator  # noqa: E402


def _generator(name: str, seed: int):
    inputs = wl.WORKLOADS[name].make_inputs(seed)
    if name == "registrar_durable":
        slots = {s: i for i, s in enumerate(inputs.students)}
        teachers = {t: i for i, t in enumerate(sorted(set(inputs.instructor_of.values())))}
        return wl.RegistrarGenerator(inputs, seed, slots, teachers)
    if name == "transcript_wide":
        return wl.WideGenerator(inputs, seed)
    if name == "library_hot":
        students = {s: i for i, s in enumerate(inputs.admin.students)}
        courses = {c: i for i, c in enumerate(inputs.admin.courses)}
        return wl.LibraryGenerator(inputs, seed, students, courses)
    return wl.ShardGenerator(inputs, seed)


def _ops(name: str, seed: int, count: int = 400) -> list:
    generator = _generator(name, seed)
    return [generator.next() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    first = _ops(name, 7)
    assert first == _ops(name, 7)
    assert first != _ops(name, 8)


def test_self_time_on_a_hand_built_tree():
    # request [0, 10] holds server [1, 8] and protocol [8.5, 9.5]; server
    # holds cache [2, 4] and rdb [4.5, 7], which holds wal [5, 6].
    tree = [
        ["request", 0.0, 10.0, -1, 1],
        ["server", 1.0, 8.0, 0, 1],
        ["cache", 2.0, 4.0, 1, 1],
        ["rdb", 4.5, 7.0, 1, 1],
        ["wal", 5.0, 6.0, 3, 1],
        ["protocol", 8.5, 9.5, 0, 1],
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([2.0, 2.5, 2.0, 1.5, 1.0, 1.0])
    rows, problems = layers.sample_breakdown(tree, own)
    assert problems == []
    by_name = {name: value for name, value, _unit, _n in rows}
    assert by_name["sample.request"] == pytest.approx(10.0e6)
    assert by_name["sample.uncovered"] == pytest.approx(2.0e6)
    assert by_name["sample.server"] == pytest.approx(2.5e6)


def test_self_time_counts_overlapping_children_once():
    tree = [["parent", 0.0, 10.0, -1, 1],
            ["a", 1.0, 4.0, 0, 1], ["b", 3.0, 6.0, 0, 1],
            ["c", 12.0, 14.0, 0, 1]]  # outside the parent: ignored
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_recorder_nests_spans_and_patches_restore():
    recorder = spans.SpanRecorder()
    hook = spans.FsyncHook()
    patches = spans.Patches(recorder, hook)
    original = vars(ClassAdministrator)["handle"]
    original_from_wire = vars(Request)["from_wire"]
    patches.install()
    try:
        server = ClassAdministrator(admission=AdmissionController())
        recorder.request_id = 5
        root = recorder.begin("request")
        reply = server.handle(Request.from_wire(
            Request("login", None, {"user": "boss", "role": "administrator"})
            .to_wire()))
        recorder.end(root)
    finally:
        patches.remove()
    assert reply.ok
    assert vars(ClassAdministrator)["handle"] is original
    assert vars(Request)["from_wire"] is original_from_wire
    assert hook.target.__name__ == "fsync"
    names = [s[spans.NAME] for s in recorder.spans]
    assert names[:4] == ["request", "protocol.to_wire", "protocol.from_wire",
                         "server.handle"]
    handle = names.index("server.handle")
    assert all(s[spans.REQUEST] == 5 for s in recorder.spans)
    assert recorder.spans[names.index("admission.admit")][spans.PARENT] == handle


def test_percentile_reports_its_sample_count():
    values = [float(v) for v in range(1, 201)]
    assert run.percentile(values, 0.5) == (100.0, 200)
    assert run.percentile(values, 0.99) == (198.0, 200)
    assert run.percentile([3.0], 0.99) == (3.0, 1)
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


class _PlantedSystem:
    """Answers every op as expected except the ones marked wrong."""

    check = staticmethod(wl.ServerSystem.check)

    def __init__(self, wrong: set[int]) -> None:
        self.wrong = wrong

    def execute(self, op):
        data = op.expect if op.slot not in self.wrong else ["planted"]
        return Response.success(Request(op.op, None), data)


def test_a_planted_wrong_reply_counts_in_error_ratio():
    ops = [wl.Op("transcript", i, {}, [{"grade": 4.0}]) for i in range(50)]
    ops += [wl.Op("enroll", 50 + i, {}, {"ok": i}) for i in range(50)]
    tally = run.Tally()
    run.run_chunk(_PlantedSystem({7}), ops, tally)
    _metrics, rows = run.end_to_end(tally, [1.0])
    by_name = {name: (value, n) for name, value, _unit, n in rows}
    assert tally.failed == 1 and tally.wrong
    assert by_name["error_ratio"] == (0.01, 100)
    assert by_name["read_p50_us"][1] == 50


def test_search_oracle_matches_the_library_on_a_small_catalog():
    inputs = wl.library_inputs(3)
    docs = inputs.docs[:300]
    library = VirtualLibrary()
    library.reload(CatalogEntry(
        doc_id=d["doc_id"], title=d["title"], course_number=d["course_number"],
        instructor=d["instructor"], keywords=d["keywords"]) for d in docs)
    for query in inputs.queries[:60]:
        got = [{"doc_id": r.doc_id, "score": r.score}
               for r in library.search(**query)]
        assert got == wl.brute_force_search(
            docs, query.get("keywords"), query.get("instructor"),
            query.get("course"), query.get("limit"))
