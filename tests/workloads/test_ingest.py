"""Unit tests for external trace ingestion.

Format decoding (ChampSim binary, JSONL, CSV, compression), the
leader-based basic-block reconstruction, the synthesized layout view,
and the on-disk round trip through the shard directory + program
sidecar.  The replay-facing guarantees (bit-identity across backends)
live in ``tests/sim/test_ingest_differential.py``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import lzma
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.sim import native
from repro.sim.cpu import CoreSimulator
from repro.sim.trace import (
    BlockTrace,
    ShardedTrace,
    program_from_payload,
    program_payload,
)
from repro.workloads import ingest as ing

from ..conftest import make_program


def _records(ips, sizes=None, taken=None):
    sizes = sizes or [0] * len(ips)
    taken = taken or [False] * len(ips)
    return list(zip(ips, sizes, taken))


class TestReaders:
    def test_champsim_round_trip(self, tmp_path):
        path = tmp_path / "t.trace"
        records = [(0x1000, False, False), (0x1004, True, True),
                   (0x2000, False, False)]
        with open(path, "wb") as handle:
            for ip, br, tk in records:
                handle.write(ing.champsim_record(ip, br, tk))
        decoded = list(ing.iter_champsim(path))
        assert decoded == [(0x1000, 0, False), (0x1004, 0, True),
                           (0x2000, 0, False)]

    def test_champsim_record_is_64_bytes(self):
        assert len(ing.champsim_record(0xDEAD)) == ing.CHAMPSIM_RECORD_BYTES

    def test_champsim_truncated_record_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(ing.champsim_record(0x1000) + b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            list(ing.iter_champsim(path))

    @pytest.mark.parametrize("compress", ("gz", "xz"))
    def test_compressed_by_magic_not_extension(self, tmp_path, compress):
        # deliberately misleading extension: detection is by magic bytes
        path = tmp_path / "t.trace"
        ing.write_champsim_fixture(
            path, make_program([64, 64]), BlockTrace([0, 1, 0]),
            compress=compress,
        )
        assert len(list(ing.iter_champsim(path))) > 0

    def test_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"ip": "0x1000", "size": 4}\n'
            "\n"
            '{"ip": 4100, "taken": true}\n'
        )
        assert list(ing.iter_jsonl(path)) == [
            (0x1000, 4, False), (4100, 0, True)
        ]

    def test_jsonl_bad_record_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ip": 1}\n{"pc": 2}\n')
        with pytest.raises(ValueError, match=":2:"):
            list(ing.iter_jsonl(path))

    def test_csv_with_header_and_hex(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ip,size,taken\n0x1000,4,0\n4100,,true\n4104\n")
        assert list(ing.iter_csv(path)) == [
            (0x1000, 4, False), (4100, 0, True), (4104, 0, False)
        ]

    def test_negative_ip_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("-5\n")
        with pytest.raises(ValueError, match="bad ip"):
            list(ing.iter_csv(path))

    def test_gzipped_text_format(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write('{"ip": 64}\n{"ip": 68}\n')
        assert [r[0] for r in ing.iter_jsonl(path)] == [64, 68]

    def test_detect_format(self):
        assert ing.detect_format("a/b/x.jsonl") == "jsonl"
        assert ing.detect_format("x.ndjson.gz") == "jsonl"
        assert ing.detect_format("x.csv.xz") == "csv"
        assert ing.detect_format("x.champsim.trace.gz") == "champsim"
        assert ing.detect_format("mystery.bin") == "champsim"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            ing.read_records(tmp_path / "x", fmt="elf")


class TestReconstruction:
    def test_straight_line_becomes_one_block(self):
        # 0x1000..0x100c, 4-byte fall-throughs: a single 4-insn block
        work = ing.ingest_records(
            _records([0x1000, 0x1004, 0x1008, 0x100C] * 3)
        )
        assert len(work.program) == 1
        block = work.program.block(0)
        assert block.address == 0x1000
        assert block.instruction_count == 4
        assert block.size_bytes == 16
        assert work.trace.block_ids == [0, 0, 0]

    def test_jump_target_splits_block(self):
        # second iteration enters at 0x1008: 0x1008 becomes a leader,
        # so the straight line splits into two blocks
        ips = [0x1000, 0x1004, 0x1008, 0x100C, 0x1008, 0x100C]
        work = ing.ingest_records(_records(ips))
        assert len(work.program) == 2
        assert [b.address for b in work.program] == [0x1000, 0x1008]
        assert work.trace.block_ids == [0, 1, 1]

    def test_taken_branch_fallthrough_splits(self):
        # a taken branch to the sequential next ip still ends a block
        ips = [0x1000, 0x1004, 0x1008]
        taken = [False, True, False]
        work = ing.ingest_records(_records(ips, taken=taken))
        assert [b.address for b in work.program] == [0x1000, 0x1008]
        assert work.trace.block_ids == [0, 1]

    def test_size_inference_from_fallthrough(self):
        # 0x1000 -> 0x1002 -> 0x1008: both gaps are believable x86
        # instruction sizes, so all three ips fall through into one
        # block of 2 + 6 + DEFAULT bytes
        work = ing.ingest_records(_records([0x1000, 0x1002, 0x1008]))
        assert len(work.program) == 1
        block = work.program.block(0)
        assert block.address == 0x1000
        assert block.instruction_count == 3
        assert block.size_bytes == 2 + 6 + ing.DEFAULT_INSTRUCTION_BYTES

    def test_wide_gap_is_a_discontinuity(self):
        # a forward gap beyond MAX_INSTRUCTION_BYTES cannot be a
        # fall-through: the far ip starts its own block
        far = 0x1000 + ing.MAX_INSTRUCTION_BYTES + 4
        work = ing.ingest_records(_records([0x1000, far]))
        assert [b.address for b in work.program] == [0x1000, far]

    def test_explicit_sizes_win(self):
        work = ing.ingest_records(
            _records([0x1000, 0x1008], sizes=[8, 6])
        )
        assert work.program.block(0).size_bytes == 8 + 6

    def test_no_overlap_even_with_lying_sizes(self):
        # declared size overlaps the next observed ip; the clamp must
        # keep the Program constructor's validation happy
        work = ing.ingest_records(
            _records([0x1000, 0x1002], sizes=[16, 4])
        )
        blocks = sorted(work.program, key=lambda b: b.address)
        for prev, cur in zip(blocks, blocks[1:]):
            assert prev.address + prev.size_bytes <= cur.address

    def test_region_view(self):
        # two ips a region gap apart land in different function ids
        far = 0x1000 + ing.REGION_GAP_BYTES + 64
        work = ing.ingest_records(
            _records([0x1000, far, 0x1000, far])
        )
        fids = {b.address: b.function_id for b in work.program}
        assert fids[0x1000] != fids[far]
        assert work.report["regions"] == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ing.ingest_records([])

    def test_report_counts(self):
        work = ing.ingest_records(
            _records([0x1000, 0x1004, 0x2000, 0x1000, 0x1004, 0x2000]),
            name="counted", fmt="jsonl", source="mem",
        )
        assert work.report["records"] == 6
        assert work.report["instructions"] == 6
        assert work.report["blocks"] == len(work.program)
        assert work.report["format"] == "jsonl"
        assert work.trace.metadata["app"] == "counted"
        assert work.trace.metadata["source"] == "mem"


class TestExpansion:
    def test_expand_then_ingest_reproduces_footprint(self, ingested_fixture):
        """The fixture pipeline: expanded instruction records ingest
        back to a program covering the same dynamic byte footprint."""
        workload, _ = ingested_fixture
        assert len(workload.program) == workload.report["blocks"]
        assert workload.report["strays"] == 0
        # every reconstructed block is genuinely replayed
        assert set(workload.trace.block_ids) == set(
            workload.program.block_ids()
        )

    def test_expansion_instruction_count_matches(self):
        program = make_program([64, 32, 16])
        trace = BlockTrace([0, 2, 1])
        records = list(ing.expand_block_trace(program, trace))
        assert len(records) == trace.instruction_count(program)


class TestPersistence:
    def test_round_trip(self, tmp_path, ingested_fixture):
        workload, _ = ingested_fixture
        sharded = ing.write_ingested(workload, tmp_path / "d", 512)
        program, reread = ing.load_ingested(tmp_path / "d")
        assert reread.materialize().block_ids == workload.trace.block_ids
        assert program_payload(program) == program_payload(workload.program)
        assert isinstance(reread, ShardedTrace)
        assert sharded.num_shards == reread.num_shards > 1

    def test_program_payload_round_trip(self):
        program = make_program([64, 48, 32], base_address=0x7000)
        clone = program_from_payload(program_payload(program))
        assert program_payload(clone) == program_payload(program)

    def test_program_payload_rejects_bad_format(self):
        with pytest.raises(ValueError, match="payload"):
            program_from_payload({"format": "elf", "blocks": []})

    def test_sidecar_carries_report(self, tmp_path, ingested_fixture):
        workload, _ = ingested_fixture
        ing.write_ingested(workload, tmp_path / "d", 512)
        with open(tmp_path / "d" / ing.PROGRAM_FILE) as handle:
            payload = json.load(handle)
        assert payload["report"]["records"] == workload.report["records"]

    def test_load_missing_sidecar_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ing.load_ingested(tmp_path)


class TestCLI:
    def test_ingest_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.apps import build_app

        app = build_app("finagle-chirper", scale=0.12)
        trace = app.trace(1_500, seed=11)
        fixture = tmp_path / "t.jsonl"
        with open(fixture, "w") as handle:
            for ip, size, taken in ing.expand_block_trace(
                app.program, trace
            ):
                handle.write(json.dumps(
                    {"ip": ip, "taken": taken}
                ) + "\n")
        out = tmp_path / "shards"
        rc = main([
            "ingest", str(fixture), "-o", str(out),
            "--shard-insns", "1000", "--replay", "--name", "demo",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "[jsonl]" in captured
        assert "replay [" in captured
        program, sharded = ing.load_ingested(out)
        assert program.name == "demo"
        assert sharded.num_shards >= 2
        with open(out / ing.REPORT_FILE) as handle:
            report = json.load(handle)
        assert report["replay"]["l1i_mpki"] > 0


# ---------------------------------------------------------------------------
# untrusted bytes: parse or raise ValueError, never crash or hang
# ---------------------------------------------------------------------------

#: wall-clock bound on ingesting one small untrusted file
UNTRUSTED_BOUND_S = 5.0
#: peak Python/NumPy heap while ingesting and replaying one untrusted
#: input (the replay's dense cache state alone is about 2 MiB)
UNTRUSTED_HEAP_BOUND = 64 * 1024 * 1024

_COMPRESSORS = {None: bytes, "gz": gzip.compress, "xz": lzma.compress}
_SUFFIX = {"champsim": ".champsim", "jsonl": ".jsonl", "csv": ".csv"}


@contextlib.contextmanager
def _time_bound(seconds):
    """Raise TimeoutError in the enclosed block after *seconds*."""

    def expire(signum, frame):
        raise TimeoutError(f"ingest still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _well_formed(fmt, records):
    """A valid encoding of *records* ``(ip, size, taken)`` in *fmt*."""
    if fmt == "champsim":
        return b"".join(
            ing.champsim_record(ip, taken, taken) for ip, _size, taken in records
        )
    if fmt == "jsonl":
        return "".join(
            json.dumps({"ip": ip, "size": size, "taken": taken}) + "\n"
            for ip, size, taken in records
        ).encode()
    return ("ip,size,taken\n" + "".join(
        f"{ip:#x},{size},{int(taken)}\n" for ip, size, taken in records
    )).encode()


@st.composite
def _untrusted_bytes(draw, fmt, compress):
    """Random bytes, or a well-formed file, compressed as asked, then
    possibly truncated or bit-flipped."""
    if draw(st.booleans()):
        payload = draw(st.binary(max_size=600))
    else:
        records = draw(st.lists(
            st.tuples(
                st.integers(0, 1 << 20),
                st.integers(0, ing.MAX_INSTRUCTION_BYTES),
                st.booleans(),
            ),
            min_size=1, max_size=24,
        ))
        payload = _well_formed(fmt, records)
    raw = _COMPRESSORS[compress](payload)
    damage = draw(st.sampled_from(("none", "truncate", "flip")))
    if damage == "truncate" and raw:
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif damage == "flip" and raw:
        at = draw(st.integers(0, len(raw) - 1))
        mask = draw(st.integers(1, 255))
        raw = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    return raw


def _ingest_and_replay(path, fmt):
    """Ingest *path*; whatever parses is replayed on the compiled
    baseline path.  Each step either succeeds or raises ValueError,
    within the time bound."""
    with _time_bound(UNTRUSTED_BOUND_S):
        try:
            work = ing.ingest_trace_file(path)
        except ValueError:
            return
    assert work.report["records"] > 0
    assert work.report["format"] == fmt
    with _time_bound(UNTRUSTED_BOUND_S), kernel.force_numpy_kernel():
        core = CoreSimulator(work.program)
        try:
            core.run(work.trace)
        except ValueError:
            return
    expected = "columnar" if native.unavailable_reason() is None else (
        "reference"
    )
    assert core.last_replay_backend == expected


class TestUntrustedBytes:
    @pytest.mark.parametrize("compress", (None, "gz", "xz"))
    @pytest.mark.parametrize("fmt", ing.FORMATS)
    def test_parse_or_value_error(self, fmt, compress, tmp_path_factory):
        directory = tmp_path_factory.mktemp("untrusted")
        name = "t" + _SUFFIX[fmt] + (f".{compress}" if compress else "")
        path = directory / name

        @settings(max_examples=40, deadline=None)
        @given(raw=_untrusted_bytes(fmt, compress))
        def check(raw):
            path.write_bytes(raw)
            tracemalloc.start()
            try:
                _ingest_and_replay(path, fmt)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < UNTRUSTED_HEAP_BOUND, f"heap peak {peak} bytes"

        check()

    @pytest.mark.parametrize("compress", ("gz", "xz"))
    def test_damaged_compressed_file_names_the_file(self, tmp_path, compress):
        raw = _COMPRESSORS[compress](
            _well_formed("champsim", [(0x1000, 4, False)] * 64)
        )
        cut = tmp_path / f"cut.champsim.{compress}"
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="cut.champsim"):
            ing.ingest_trace_file(cut)

    @pytest.mark.parametrize("size", ("-1", "17", "99999999999"))
    def test_out_of_range_size_rejected(self, tmp_path, size):
        path = tmp_path / "t.csv"
        path.write_text(f"0x1000,{size}\n")
        with pytest.raises(ValueError, match="bad size"):
            list(ing.iter_csv(path))

    def test_ip_beyond_64_bits_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"ip": 1 << 64}) + "\n")
        with pytest.raises(ValueError, match=":1:"):
            list(ing.iter_jsonl(path))
