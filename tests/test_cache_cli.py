"""Cache round trips, integrity rejection, CLI surface and JSON schemas."""

import hashlib
import json
import shlex
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from trunksym.partitions import Partition, format_partition, partitions_of
from trunksym.fock import DecompositionMatrix, column_cap, decomposition_matrix, degree_cap
from trunksym.cache import (
    CacheIntegrityError,
    cache_get,
    cache_path,
    cache_put,
    canonical_json,
    load_or_compute,
    matrix_from_payload,
    matrix_payload,
)
from trunksym.characters import CHAR_DEGREE_CAP, CHAR_WORK_CAP, check_char_cost
from trunksym.classify import WITNESS_M_CAP, WITNESS_SEARCH_DEGREE_CAP
from trunksym.mullineux import MULLINEUX_STEP_CAP, STAGE_ROWS
from trunksym.suites import SUITES, run_suite, suite_names
from trunksym import cache as cache_mod
from trunksym import cli
from trunksym.cli import main

P = Partition


def stdout_digest(capsys, calls) -> str:
    """sha256 over each call's argv, exit code and stdout, in order."""
    digest = hashlib.sha256()
    for argv in calls:
        code = main(argv)
        digest.update(f"{shlex.join(argv)} -> {code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


def load_schema(name):
    with resources.files("trunksym.schemas").joinpath(name).open() as fh:
        return json.load(fh)


class TestCache:
    def test_round_trip(self, tmp_path):
        mat = decomposition_matrix(4, 2)
        cache_put(tmp_path, mat)
        assert cache_get(tmp_path, 2, 4) == mat

    def test_cold_get(self, tmp_path):
        assert cache_get(tmp_path, 2, 4) is None

    def test_byte_stability(self, tmp_path):
        mat = decomposition_matrix(5, 3)
        path = cache_put(tmp_path, mat)
        first = path.read_bytes()
        cache_put(tmp_path, mat)
        assert path.read_bytes() == first

    def test_tampered_value_rejected(self, tmp_path):
        mat = decomposition_matrix(3, 3)
        path = cache_put(tmp_path, mat)
        data = path.read_bytes().replace(b"[1,0,1]", b"[1,0,2]")
        assert data != path.read_bytes()
        path.write_bytes(data)
        with pytest.raises(CacheIntegrityError, match="cache integrity"):
            cache_get(tmp_path, 3, 3)

    def test_version_mismatch_rejected(self, tmp_path):
        mat = decomposition_matrix(2, 2)
        path = cache_put(tmp_path, mat)
        payload = json.loads(path.read_text())
        payload["generator"] = "llt-v0"
        path.write_text(canonical_json(payload))
        with pytest.raises(CacheIntegrityError):
            cache_get(tmp_path, 2, 2)

    def test_truncated_file_rejected(self, tmp_path):
        mat = decomposition_matrix(2, 2)
        path = cache_put(tmp_path, mat)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(CacheIntegrityError):
            cache_get(tmp_path, 2, 2)

    def test_pretty_printed_file_rejected_and_rewritten(self, tmp_path, capsys):
        mat = decomposition_matrix(5, 3)
        path = cache_put(tmp_path, mat)
        canonical = path.read_bytes()
        path.write_text(json.dumps(json.loads(canonical), sort_keys=True, indent=2) + "\n")
        with pytest.raises(CacheIntegrityError, match="canonical layout"):
            cache_get(tmp_path, 3, 5)
        assert load_or_compute(3, 5, cache_dir=tmp_path) == mat
        assert "cache integrity" in capsys.readouterr().err
        assert path.read_bytes() == canonical

    def test_flipped_checksum_digit_rejected(self, tmp_path):
        path = cache_put(tmp_path, decomposition_matrix(5, 3))
        data = bytearray(path.read_bytes())
        pos = len(b'{"checksum":"') + 10
        data[pos] = ord("0") if data[pos] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        with pytest.raises(CacheIntegrityError, match="checksum mismatch"):
            cache_get(tmp_path, 3, 5)

    def test_missing_final_newline_rejected(self, tmp_path):
        path = cache_put(tmp_path, decomposition_matrix(5, 3))
        data = path.read_bytes()
        assert data.endswith(b"}\n")
        path.write_bytes(data[:-1])
        with pytest.raises(CacheIntegrityError, match="canonical layout"):
            cache_get(tmp_path, 3, 5)

    def test_warm_crosscheck_reads_every_matrix(self, tmp_path, capsys, monkeypatch):
        cold = run_suite("llt-mullineux-crosscheck", cache_dir=tmp_path)
        capsys.readouterr()
        reads = []

        def counted_get(cache_dir, l, r):
            mat = cache_get(cache_dir, l, r)
            reads.append(mat is not None)
            return mat

        def no_compute(*args, **kwargs):
            raise AssertionError("warm run recomputed a matrix")

        monkeypatch.setattr(cache_mod, "cache_get", counted_get)
        monkeypatch.setattr(cache_mod, "decomposition_matrix", no_compute)
        warm = run_suite("llt-mullineux-crosscheck", cache_dir=tmp_path)
        assert cold.ok and warm.ok
        assert warm.checked == cold.checked
        assert reads and all(reads)
        assert len(reads) == len(list(tmp_path.iterdir()))
        assert "cache integrity" not in capsys.readouterr().err

    def test_load_or_compute_recovers(self, tmp_path, capsys):
        mat = decomposition_matrix(3, 2)
        path = cache_put(tmp_path, mat)
        path.write_text("garbage")
        out = load_or_compute(2, 3, cache_dir=tmp_path)
        assert out == mat
        assert "cache integrity" in capsys.readouterr().err
        # the bad file was replaced by a good one
        assert cache_get(tmp_path, 2, 3) == mat

    def test_matches_schema(self, tmp_path):
        schema = load_schema("matrix-cache.schema.json")
        payload = matrix_payload(decomposition_matrix(4, 3))
        jsonschema.validate(payload, schema)

    @pytest.mark.parametrize(
        "l, r, checksum",
        [
            (2, 10, "d69fd849a6ac753b3bafa10b272553660d117c98c815cb0255703e7305c83e6c"),
            (3, 10, "79d75e8d82373d338dbbab2de185c08327a6d486007bba17a29d348a3dc46138"),
            (4, 8, "b5dfef8d33fbfc404f60405a529ad37cf357663e2bcb62dd1f24ae70cffce501"),
            (5, 8, "294456762a1064c0c07127de75a865051d4502061054b16ab4797f63f00b4aac"),
            (2, 14, "1a6cf363c388a14ed81ecc1ca25e5bc1393665ba3770a2f51c1be5789da0adcf"),
            (3, 14, "e2f523d5f6be3b0265c35d89f60c4d632caa1ff6842f1aec5af741b17e92f9db"),
            (2, 16, "952ca8065e394fb99acce7f58acf4adcdb50b67b4e9020426b3f45638a44dc19"),
            (3, 16, "3b4eab6febb69e0d8b11727a3c817473e011692ea872334318178149a5054644"),
            (4, 14, "a75e4f4c3e6b469ade623b1485d46e511d947710fe963e051e67fa66825d3bea"),
            (4, 16, "9f20edbc50767652d96879e347f0b2633d486b7508425a2fe7d3f2e09c1da3c2"),
            (5, 16, "10ff13b02492edd11c74c435229aa47d7ce478521136722afd0b8b594e102c48"),
            (4, 18, "3cdde41e178228ca4690d0c862aab83b7d72fc5c6db094d4f4b7d7411665425e"),
            (5, 18, "b49c231269d7f02a03c2d30d2543f409d6309cf316c5178ef20026f11b1efdfc"),
            (2, 22, "5d707f6a1e3c6ba34f125ee061f99b795f5da7c1763abe7ee5946c568a69efbf"),
            (3, 22, "0036083aca5a00b948ce31175376db3330894d4efa002aba7b5e4c931bab35b2"),
            (5, 24, "7be134aa3e18b798af23c50bfd3cb6af55bf4ba934e9ecaaad38b9efb75ec3e2"),
        ],
    )
    def test_pinned_checksums(self, l, r, checksum):
        # payload checksums of the llt-v1 generator; a change here is a new generator
        mat = decomposition_matrix(r, l, allow_large=True)
        assert matrix_payload(mat)["checksum"] == checksum

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = cache_put(tmp_path, decomposition_matrix(4, 2))
        before = path.read_bytes()

        def torn_write(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            cache_put(tmp_path, decomposition_matrix(4, 2))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert cache_get(tmp_path, 2, 4) == decomposition_matrix(4, 2)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_path_layout(self, tmp_path):
        assert cache_path(tmp_path, 3, 7).name == "decomp-l3-r7.json"

    def test_on_miss_writes_nothing(self, tmp_path):
        assert load_or_compute(3, 6, cache_dir=tmp_path, on_miss=lambda: "built") == "built"
        assert list(tmp_path.iterdir()) == []
        mat = decomposition_matrix(6, 3)
        cache_put(tmp_path, mat)
        assert load_or_compute(3, 6, cache_dir=tmp_path, on_miss=lambda: "built") == mat

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRUNKSYM_CACHE_DIR", str(tmp_path))
        load_or_compute(2, 3)
        assert cache_path(tmp_path, 2, 3).exists()


def hand_payload(**changes):
    """The l=2, degree-3 matrix written out by hand, with members replaced."""
    payload = {
        "generator": "llt-v1",
        "l": 2,
        "degree": 3,
        "rows": [[3], [2, 1], [1, 1, 1]],
        "cols": [[3], [2, 1]],
        "entries": [[0, 0, 1], [1, 1, 1], [2, 0, 1]],
        "checksum": "0" * 64,
    }
    payload.update(changes)
    return payload


class TestPayloadValidation:
    def test_hand_payload_reads_as_the_matrix(self):
        mat = matrix_from_payload(hand_payload())
        assert mat == decomposition_matrix(3, 2)
        # column labels are the row labels' own objects, validated once
        assert all(any(mu is lam for lam in mat.rows) for mu in mat.cols)

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0, 1], [1, 1, 1], [2, 0, 1], [-1, 0, 7]],
            [[0, 0, 1], [1, 1, 1], [2, -1, 1]],
            [[0, 0, 1], [1, 1, 1], [3, 0, 1]],
            [[0, 0, 1], [1, 1, 1], [2, 2, 1]],
        ],
        ids=["negative-row", "negative-col", "row-past-end", "col-past-end"],
    )
    def test_entry_index_out_of_range_rejected(self, entries):
        with pytest.raises(CacheIntegrityError, match="entry index out of range"):
            matrix_from_payload(hand_payload(entries=entries))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0, 1], [1, True, 1], [2, 0, 1]],
            [[0, False, 1], [1, 1, 1], [2, 0, 1]],
            [[0, 0, 1], [1, 1, 1], [2.0, 0, 1]],
        ],
        ids=["true-col", "false-col", "float-row"],
    )
    def test_non_int_entry_index_rejected(self, entries):
        # JSON true/false would otherwise read as the indices 1/0
        with pytest.raises(CacheIntegrityError, match="bad entry index"):
            matrix_from_payload(hand_payload(entries=entries))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0, True], [1, 1, 1], [2, 0, 1]],
            [[0, 0, 1], [1, 1, 1], [2, 0, 1.0]],
            [[0, 0, 1], [1, 1, 1], [2, 0, 0]],
        ],
        ids=["true-value", "float-value", "zero-value"],
    )
    def test_bad_entry_value_rejected(self, entries):
        with pytest.raises(CacheIntegrityError, match="bad entry value"):
            matrix_from_payload(hand_payload(entries=entries))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0, 1], [1, 1, 1], [2, 0, 1], [2, 0, 1]],
            [[0, 0, 1], [1, 1, 1], [2, 0, 1], [2, 0, 3]],
        ],
        ids=["same-value", "other-value"],
    )
    def test_repeated_entry_position_rejected(self, entries):
        # a repeated [row, col] pair would otherwise keep its last value
        with pytest.raises(CacheIntegrityError, match="entry position is repeated"):
            matrix_from_payload(hand_payload(entries=entries))

    @pytest.mark.parametrize(
        "rows",
        [[[3], [2, 1], [1, 1]], [[4], [2, 1], [1, 1, 1]], [[3], [2, 1], [2, 2]]],
        ids=["short-row", "long-row", "wrong-degree"],
    )
    def test_row_label_of_another_degree_rejected(self, rows):
        with pytest.raises(CacheIntegrityError, match="does not have degree 3"):
            matrix_from_payload(hand_payload(rows=rows))

    @pytest.mark.parametrize(
        "last_row",
        [[1, 1, 1, 0], [True, True, 1], [1.0, 1, 1], [1, 2], [-1, 4], [0, 3]],
        ids=["zero-part", "bool-part", "float-part", "increasing", "negative-part", "leading-zero"],
    )
    def test_malformed_row_label_rejected(self, last_row):
        # the last row is no column label, so only the row check can refuse it
        with pytest.raises(CacheIntegrityError, match="bad row label"):
            matrix_from_payload(hand_payload(rows=[[3], [2, 1], last_row]))

    def test_row_label_not_a_list_rejected(self):
        with pytest.raises(CacheIntegrityError, match="malformed payload"):
            matrix_from_payload(hand_payload(rows=[[3], [2, 1], 111]))

    def test_row_labels_are_partitions(self):
        mat = matrix_from_payload(hand_payload())
        assert all(type(lam) is Partition for lam in mat.rows + mat.cols)
        assert mat.rows == (P((3,)), P((2, 1)), P((1, 1, 1)))

    def test_column_label_not_a_row_label_rejected(self):
        with pytest.raises(CacheIntegrityError, match="not a row label"):
            matrix_from_payload(hand_payload(cols=[[3], [2, 2]]))

    def test_malformed_column_label_rejected(self):
        with pytest.raises(CacheIntegrityError, match="malformed payload"):
            matrix_from_payload(hand_payload(cols=[[3], 21]))

    @pytest.mark.parametrize(
        "rows",
        [[[2, 1], [3], [1, 1, 1]], [[3], [2, 1], [2, 1]], [[3], [2, 1]]],
        ids=["out-of-order", "repeated", "missing"],
    )
    def test_rows_not_all_partitions_in_order_rejected(self, rows):
        with pytest.raises(CacheIntegrityError, match="rows are not the partitions"):
            matrix_from_payload(hand_payload(rows=rows))

    @pytest.mark.parametrize(
        "cols",
        [[[2, 1], [3]], [[3]], [[3], [2, 1], [1, 1, 1]], [[3], [1, 1, 1]]],
        ids=["out-of-order", "missing", "not-regular", "regular-swapped-out"],
    )
    def test_columns_not_the_regular_rows_in_order_rejected(self, cols):
        with pytest.raises(CacheIntegrityError, match="columns are not the l-regular rows"):
            matrix_from_payload(hand_payload(cols=cols))

    def test_reordered_file_rejected_and_rebuilt(self, tmp_path):
        # reversed rows, entries re-indexed and the checksum recomputed: a
        # self-consistent file whose stdout would not be a fresh build's
        path = cache_put(tmp_path, decomposition_matrix(6, 2))
        fresh = path.read_bytes()
        payload = json.loads(fresh)
        last = len(payload["rows"]) - 1
        payload["rows"].reverse()
        payload["entries"] = sorted([last - ri, ci, v] for ri, ci, v in payload["entries"])
        payload["checksum"] = cache_mod._payload_checksum(payload)
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(CacheIntegrityError, match="rows are not the partitions"):
            cache_get(tmp_path, 2, 6)
        assert main(["decomp-matrix", "--l", "2", "--degree", "6", "--cache", str(tmp_path)]) == 0
        assert path.read_bytes() == fresh

    def test_reversed_entries_rejected_and_rebuilt(self, tmp_path):
        # the same entries in another order, checksum recomputed: a rebuild
        # writes them ascending by (row, column)
        path = cache_put(tmp_path, decomposition_matrix(6, 2))
        fresh = path.read_bytes()
        payload = json.loads(fresh)
        payload["entries"].reverse()
        payload["checksum"] = cache_mod._payload_checksum(payload)
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(CacheIntegrityError, match="ascending"):
            cache_get(tmp_path, 2, 6)
        assert main(["decomp-matrix", "--l", "2", "--degree", "6", "--cache", str(tmp_path)]) == 0
        assert path.read_bytes() == fresh

    def test_written_payloads_read_back_to_themselves(self):
        for l in (2, 3, 4, 5):
            for r in range(11):
                written = json.loads(canonical_json(matrix_payload(decomposition_matrix(r, l))))
                assert cache_mod._build_payload(matrix_from_payload(written)) == written

    @pytest.mark.parametrize(
        "header",
        [{"l": 3}, {"degree": 4}, {"degree": "3"}, {"l": 2.0}, {"degree": 3.0}, {"degree": True}],
        ids=["other-l", "other-degree", "string-degree", "float-l", "float-degree", "bool-degree"],
    )
    def test_header_not_the_file_name_rejected(self, tmp_path, header):
        payload = hand_payload(**header)
        payload["checksum"] = cache_mod._payload_checksum(payload)
        cache_path(tmp_path, 2, 3).write_text(canonical_json(payload) + "\n")
        with pytest.raises(CacheIntegrityError, match="header does not match"):
            cache_get(tmp_path, 2, 3)

    def test_large_header_degree_rejected_before_label_checks(self, tmp_path, monkeypatch):
        # counting the partitions of 8000 alone took seconds
        def no_count(*args):
            raise AssertionError("counted partitions before checking the header")

        monkeypatch.setattr(cache_mod, "count_partitions", no_count)
        payload = hand_payload(degree=8000, rows=[], cols=[], entries=[])
        payload["checksum"] = cache_mod._payload_checksum(payload)
        cache_path(tmp_path, 2, 3).write_text(canonical_json(payload) + "\n")
        start = time.perf_counter()
        with pytest.raises(CacheIntegrityError, match="header does not match"):
            cache_get(tmp_path, 2, 3)
        assert time.perf_counter() - start < 0.5

    def test_rejected_file_is_recomputed(self, tmp_path, capsys):
        payload = hand_payload(entries=[[0, 0, 1], [1, 1, 1], [2, 0, 1], [-1, 0, 7]])
        payload["checksum"] = cache_mod._payload_checksum(payload)
        path = cache_path(tmp_path, 2, 3)
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(CacheIntegrityError, match="entry index out of range"):
            cache_get(tmp_path, 2, 3)
        assert load_or_compute(2, 3, cache_dir=tmp_path) == decomposition_matrix(3, 2)
        assert "entry index out of range" in capsys.readouterr().err


class TestReports:
    def test_report_schema_and_determinism(self, tmp_path):
        schema = load_schema("suite-report.schema.json")
        first = run_suite("core-residues", max_degree=4).to_json()
        second = run_suite("core-residues", max_degree=4).to_json()
        jsonschema.validate(first, schema)
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("does-not-exist")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not accept"):
            run_suite("core-residues", max_m=3)

    def test_failure_objects_round_trip(self):
        report = run_suite("core-residues", max_degree=3)
        assert report.ok and report.checked > 0
        payload = report.to_json()
        assert payload["failures"] == []


class TestSpecialVerdictSchema:
    def test_verdicts_validate(self, capsys):
        schema = load_schema("special-verdict.schema.json")
        for parts, m, l in (("4,2", 2, 3), ("5,1", 1, 3), ("2,2", 2, 2)):
            for flags in ((), ("--witness",)):
                assert main(["special", parts, "--l", str(l), "--m", str(m), *flags]) == 0
                jsonschema.validate(json.loads(capsys.readouterr().out), schema)


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "4,2", "--l", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 6
        assert payload["mullineux"] == [2, 2, 1, 1]

    def test_mull(self, capsys):
        assert main(["mull", "4,1", "--l", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mullineux"] == [2, 2, 1]
        assert payload["symbol"] == [[4, 2], [1, 1]]

    def test_mull_rejects_non_regular(self, capsys):
        assert main(["mull", "1,1", "--l", "2"]) == 2
        assert "not l-regular" in capsys.readouterr().err

    def test_mull_and_info_step_cap(self, capsys, monkeypatch):
        def steps(parts):
            return parts[0] * (len(parts) + STAGE_ROWS)

        # label-queries labels (degree <= 26) cost at most 26 * 33 steps;
        # CI runs the 3,000-row staircase and (100000) at l = 2
        assert 1000 * steps((26,)) < MULLINEUX_STEP_CAP
        assert steps(range(3000, 0, -1)) <= MULLINEUX_STEP_CAP
        assert steps((100000,)) <= MULLINEUX_STEP_CAP
        # refused before any stage: the 4,000-row staircase, a 10^6-node row
        for label in (",".join(map(str, range(4000, 0, -1))), "1000000"):
            for verb in ("mull", "info"):
                assert main([verb, label, "--l", "2"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
                assert f"above the cap {MULLINEUX_STEP_CAP}" in captured.err
        # a label exactly at the cap runs; with the cap one step lower it is refused
        for cap, code in ((steps((5, 3, 1)), 0), (steps((5, 3, 1)) - 1, 2)):
            monkeypatch.setattr(sys.modules["trunksym.mullineux"], "MULLINEUX_STEP_CAP", cap)
            for verb in ("mull", "info"):
                assert main([verb, "5,3,1", "--l", "2"]) == code
                assert (capsys.readouterr().out != "") == (code == 0)

    def test_core(self, capsys):
        assert main(["core", "3,1", "--l", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["core"] == []

    def test_special_with_witness(self, capsys):
        assert main(["special", "4,2", "--l", "3", "--m", "2", "--witness"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["special"] is True
        assert payload["witness"] == [[1, [2, 2]], [1, [2]]]

    def test_special_without_witness_flag(self, capsys):
        assert main(["special", "4,2", "--l", "3", "--m", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] is None

    def test_plain_special_runs_no_search(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("special without --witness searched for a witness")

        monkeypatch.setattr("trunksym.classify._distinguished_search", no_search)
        assert main(["special", "2,2", "--l", "2", "--m", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rule": "steinberg-reduction", "special": True, "witness": None}

    def test_special_large_label_is_decided(self, capsys):
        # decided by the rule alone; the witness would be 1000 copies of (1, (1))
        assert main(["special", "1000", "--l", "2", "--m", "1000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rule": "steinberg-reduction", "special": True, "witness": None}

    def test_special_witness_m_cap(self, capsys):
        # (1) at l = 2 takes one (1, (1)) and m - 1 zero summands
        at_cap = ["special", "1", "--l", "2", "--m", str(WITNESS_M_CAP), "--witness"]
        assert main(at_cap) == 0
        assert len(json.loads(capsys.readouterr().out)["witness"]) == WITNESS_M_CAP
        above = ["special", "1", "--l", "2", "--m", str(WITNESS_M_CAP + 1), "--witness"]
        assert main(above) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"witness cap {WITNESS_M_CAP}" in captured.err
        # not special: there is no witness to build, so no cap applies
        above[1] = "3000"
        assert main(above) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rule": "bound-violation", "special": False, "witness": None}

    def test_special_witness_search_degree_cap(self, capsys):
        # (r) at l = 2 is not restricted, special from m = r on, and its
        # witness is r copies of (1, (1))
        r = WITNESS_SEARCH_DEGREE_CAP
        assert main(["special", str(r), "--l", "2", "--m", str(r), "--witness"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == [[1, [1]]] * r
        for argv in (
            ["special", str(r + 1), "--l", "2", "--m", str(r + 1)],
            ["special", "1000", "--l", "2", "--m", "1000"],
            ["special", "24,18,12,6", "--l", "3", "--m", "14"],
        ):
            assert main(argv + ["--witness"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert f"capped at degree {r}" in captured.err
            # the verdict alone builds no witness, so no cap applies
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["special"] is True

    @pytest.mark.parametrize("witness", [None, ((1, P((4, 2))),)])
    def test_special_invalid_witness_exit_code(self, capsys, monkeypatch, witness):
        monkeypatch.setattr(
            "trunksym.classify.distinguished_decomposition", lambda lam, m, l: witness
        )
        assert main(["special", "4,2", "--l", "3", "--m", "2", "--witness"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: classifier accepted Partition([4, 2]) but no valid witness was built "
            "(input: trunksym special 4,2 --l 3 --m 2 --witness)\n"
        )

    def test_good(self, capsys):
        assert main(["good", "3", "--l", "2", "--m", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "unknown"

    def test_good_with_oracle(self, capsys, tmp_path):
        assert main(
            ["good", "2,1", "--l", "2", "--m", "1", "--oracle", "--cache", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("yes", "no")

    def test_good_oracle_cold_reads_one_column(self, capsys, tmp_path, monkeypatch):
        argv = ["good", "4,3,2,1", "--l", "3", "--m", "2", "--oracle", "--cache", str(tmp_path)]
        monkeypatch.setattr(cache_mod, "decomposition_matrix", None)
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        cache_put(tmp_path, decomposition_matrix(10, 3))
        assert main(argv) == 0
        assert capsys.readouterr().out == cold.out
        assert json.loads(cold.out)["status"] in ("yes", "no")

    def test_good_oracle_cap(self, capsys, tmp_path):
        cap = column_cap(2)
        label = ",".join(["1"] * (cap + 1))
        argv = ["good", label, "--l", "2", "--m", "1", "--oracle", "--cache", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cap {cap} for l=2" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_good_refuses_bad_m_before_oracle_work(self, capsys, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle work before the verdict validated m")

        monkeypatch.setattr("trunksym.fock.column_matrix", no_oracle)
        monkeypatch.setattr(cache_mod, "load_or_compute", no_oracle)
        label = ",".join(["1"] * 26)
        assert main(["good", label, "--l", "2", "--m", "0", "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m must be positive\n"

    def test_good_oracle_disagreement_is_internal(self, capsys, tmp_path):
        # (2,1) at l = 2 is not 1-good: its simple column (2,1) has no row
        # of one part, until the cached matrix gains the entry ((3), (2,1))
        lam, col = P((2, 1)), P((2, 1))
        mat = decomposition_matrix(3, 2)
        assert (P((3,)), col) not in mat.entries
        tampered = DecompositionMatrix(mat.l, mat.degree, mat.rows, mat.cols,
                                       {**mat.entries, (P((3,)), col): 1})
        cache_put(tmp_path, tampered)
        argv = ["good", "2,1", "--l", "2", "--m", "1", "--oracle", "--cache", str(tmp_path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"internal error: decomposition-number oracle disagrees with the length rule on {lam} "
            f"(input: trunksym {shlex.join(argv)})\n"
        )
        assert main(argv[:-2]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "no"

    def test_enumerate_special(self, capsys):
        assert main(["enumerate-special", "--l", "3", "--m", "1", "--degree", "5"]) == 0
        assert capsys.readouterr().out.strip() == "2,2,1"

    def test_char(self, capsys):
        assert main(["char", "--m", "2", "--n", "2", "--l", "2", "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"partition": [2], "coeff": 1} in payload["schur_expansion"]

    def test_char_lists_labels_in_lex_order(self, capsys):
        # the degree-3 slice at l = 3 in 3 variables is s_(2,1) - s_(1,1,1)
        assert main(["char", "--m", "1", "--n", "3", "--l", "3", "--degree", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["schur_expansion"] == [
            {"partition": [1, 1, 1], "coeff": -1},
            {"partition": [2, 1], "coeff": 1},
        ]

    def test_char_preconditions(self, capsys):
        assert main(["char", "--m", "1", "--n", "0", "--l", "2", "--degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least one variable" in captured.err
        assert main(["char", "--m", "1", "--n", "2", "--l", "2", "--degree", "-1"]) == 2
        assert capsys.readouterr().out == ""
        assert main(["char", "--m", "0", "--n", "2", "--l", "2", "--degree", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schur_expansion"] == [{"partition": [], "coeff": 1}]

    def test_char_output_pinned(self, capsys):
        # the stdout of the Kostka inversion that the determinants replaced
        assert main(["char", "--m", "4", "--n", "10", "--l", "3", "--degree", "20"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "ec7c4d4e545fdb3915a049dc93aca13162b5071c5e92a93604b617b644472228"

    def test_char_grid_output_pinned(self, capsys):
        # 975 slices: m 0..4, n 1..5, l 2..4, degree 0..12
        calls = [
            ["char", "--m", str(m), "--n", str(n), "--l", str(l), "--degree", str(r)]
            for m in range(5)
            for n in range(1, 6)
            for l in (2, 3, 4)
            for r in range(13)
        ]
        digest = stdout_digest(capsys, calls)
        assert digest == "a9d290fb4abe48c4499a456ed838d1938db8c5d72c45d9072122c6a4e69a0978"

    @pytest.mark.parametrize(
        "verb, expected",
        [
            ("mull", "a7df15036784e5e2651da9cc335e5adc42ab0758bc75cafa4ed2f1aa0a68f6ac"),
            ("info", "985da25f499db83f22f9e014795a613e759d7e0bf2a128f0c4987e1f968d9ac3"),
        ],
        ids=["mull", "info"],
    )
    def test_label_query_output_pinned(self, capsys, verb, expected):
        # 1,088 labels: every partition of degree 0..12 at l 2..5 (mull
        # refuses the l-singular ones with exit 2 and no stdout)
        calls = [
            [verb, format_partition(lam), "--l", str(l)]
            for l in (2, 3, 4, 5)
            for deg in range(13)
            for lam in partitions_of(deg)
        ]
        assert len(calls) == 1088
        assert stdout_digest(capsys, calls) == expected

    def test_char_caps(self, capsys):
        top = str(CHAR_DEGREE_CAP)
        assert main(["char", "--m", "100", "--n", "1", "--l", "2", "--degree", top]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schur_expansion"] == [{"partition": [CHAR_DEGREE_CAP], "coeff": 1}]
        above = str(CHAR_DEGREE_CAP + 1)
        assert main(["char", "--m", "100", "--n", "1", "--l", "2", "--degree", above]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the char cap {CHAR_DEGREE_CAP}" in captured.err
        # the documented reach point is accepted; p(40) labels in 40 variables are not
        assert check_char_cost(6, 20, 4, 40) <= CHAR_WORK_CAP
        assert main(["char", "--m", "40", "--n", "40", "--l", "2", "--degree", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the cap {CHAR_WORK_CAP}" in captured.err

    def test_char_coefficient_above_digit_limit(self, capsys):
        # C(10^3000, 2) has 6000 digits, above Python's default 4300-digit
        # limit for converting an integer to a string
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            m = "1" + "0" * 3000
            assert main(["char", "--m", m, "--n", "1", "--l", "2", "--degree", "2"]) == 2
        finally:
            sys.set_int_max_str_digits(default)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: char --m <3001-digit integer> --n 1 --l 2 --degree 2: a Schur coefficient "
            "has more than 4300 digits, Python's limit for printing an integer\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--m", "<big>", "--n", "1", "--l", "2", "--degree", "2"],
            ["special", "4,2", "--l", "<big>", "--m", "1"],
        ],
    )
    def test_integer_option_above_digit_limit(self, capsys, argv):
        # one short line naming the option and the digit count; the value
        # itself (5,000 digits) is not echoed
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        big = "1" + "0" * 4999
        option = argv[argv.index("<big>") - 1]
        try:
            with pytest.raises(SystemExit) as err:
                main([big if a == "<big>" else a for a in argv])
        finally:
            sys.set_int_max_str_digits(default)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.splitlines()
        assert usage.startswith(f"usage: trunksym {argv[0]} ")
        assert message == (
            f"trunksym {argv[0]}: error: argument {option}: a 5000-digit integer is above "
            "Python's 4300-digit limit for reading an integer"
        )

    def test_integer_option_still_rejects_non_integers(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["core", "4,2", "--l", "two"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --l: invalid int value: 'two'\n")
        assert main(["core", "4,2", "--l", " 3 "]) == 0

    def test_suite_names_come_from_the_suites_table(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["crosscheck", "--suite", "nope"])
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        choices = ", ".join(map(repr, suite_names() + ["all"]))
        assert message.endswith(f"argument --suite: invalid choice: 'nope' (choose from {choices})")

    def test_every_suite_parameter_has_one_flag(self):
        assert set(cli._GRID_FLAGS) == {key for _, grid in SUITES.values() for key in grid}
        flags = [flag for flag, _ in cli._GRID_FLAGS.values()]
        assert len(set(flags)) == len(flags)

    def test_decomp_matrix_with_cache(self, capsys, tmp_path):
        assert main(
            ["decomp-matrix", "--l", "2", "--degree", "2", "--cache", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("matrix-cache.schema.json"))
        assert cache_path(tmp_path, 2, 2).exists()

    def test_decomp_matrix_cold_write_builds_payload_once(self, capsys, tmp_path, monkeypatch):
        builds = []
        build = cache_mod._build_payload

        def counted(mat):
            builds.append(mat)
            return build(mat)

        monkeypatch.setattr(cache_mod, "_build_payload", counted)
        argv = ["decomp-matrix", "--l", "3", "--degree", "6", "--cache", str(tmp_path)]
        assert main(argv) == 0
        assert len(builds) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(cache_path(tmp_path, 3, 6).read_bytes())
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == printed

    def test_decomp_matrix_reads_a_valid_file(self, capsys, tmp_path, monkeypatch):
        argv = ["decomp-matrix", "--l", "3", "--degree", "6", "--cache", str(tmp_path)]
        assert main(argv) == 0
        printed = capsys.readouterr().out

        def no_write(*args, **kwargs):
            raise AssertionError("recomputed or rewrote a valid cache file")

        monkeypatch.setattr(cache_mod, "decomposition_matrix", no_write)
        monkeypatch.setattr(cache_mod, "cache_put", no_write)
        assert main(argv) == 0
        assert capsys.readouterr().out == printed

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(lam, m, l):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr("trunksym.classify.is_m_special", broken)
        assert main(["special", "4,2", "--l", "3", "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: invariant violated (input: trunksym special 4,2 --l 3 --m 2)\n"
        )

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_size_errors_are_usage_errors(self, capsys, monkeypatch, error):
        def exhausted(lam, m, l):
            raise error()

        monkeypatch.setattr("trunksym.classify.is_m_special", exhausted)
        assert main(["special", "4,2", "--l", "3", "--m", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {error.__name__}, input too large (input: trunksym special 4,2 --l 3 --m 2)\n"
        )

    def test_decomp_matrix_cap(self, capsys):
        top = degree_cap(2) + 1
        assert main(["decomp-matrix", "--l", "2", "--degree", str(top)]) == 2
        assert f"cap {degree_cap(2)}" in capsys.readouterr().err

    def test_crosscheck_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "crosscheck",
                "--suite",
                "core-residues",
                "--max-degree",
                "4",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        jsonschema.validate(payload, load_schema("suite-report.schema.json"))
        assert payload["failures"] == []

    def test_crosscheck_refuses_unwritable_report_path(self, capsys, tmp_path, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the report path was checked")

        monkeypatch.setattr("trunksym.suites.run_suite", no_suite)
        for path in (tmp_path / "missing" / "report.json", tmp_path):
            assert main(["crosscheck", "--suite", "all", "--json", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write the report to {path}: ")
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_crosscheck_internal_error_leaves_no_new_report(self, capsys, tmp_path, monkeypatch):
        def broken_suite(*args, **kwargs):
            raise RuntimeError("suite invariant broke")

        monkeypatch.setattr("trunksym.suites.run_suite", broken_suite)
        path = tmp_path / "report.json"
        assert main(["crosscheck", "--suite", "all", "--json", str(path)]) == 3
        assert "internal error: suite invariant broke" in capsys.readouterr().err
        assert not path.exists()
        # a report that was there before stays as it was
        path.write_text("old report\n")
        assert main(["crosscheck", "--suite", "all", "--json", str(path)]) == 3
        assert path.read_text() == "old report\n"

    def test_crosscheck_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["crosscheck", "--suite", "nope"])
        assert err.value.code == 2

    def test_crosscheck_refuses_flag_the_suite_does_not_take(self, capsys):
        assert main(["crosscheck", "--suite", "core-residues", "--max-m", "1"]) == 2
        captured = capsys.readouterr()
        assert "--max-m" in captured.err
        assert "running" not in captured.err and captured.out == ""
        assert main(["crosscheck", "--suite", "phi-bijection", "--cache", "x"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_malformed_partition_is_usage_error(self, capsys):
        assert main(["core", "4, 2", "--l", "2"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_grid_override(self, capsys):
        code = main(
            ["crosscheck", "--suite", "mullineux-involution", "--l", "2", "--max-degree", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["ls"] == [2]
        assert payload["params"]["max_degree"] == 6
