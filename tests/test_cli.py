import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from fiberdist.extension import FAULTS

CMD = [sys.executable, "-m", "fiberdist.cli"]
METHODS = ("specialized", "generic", "both")

TWO_POINT = {
    "points": ["x", "y"],
    "matrix": [["0", "5"], ["5", "0"]],
    "mode": "metric",
}

WORDS_SPACE = {
    "points": ["e", "x", "y"],
    "matrix": [["0", "10", "10"], ["10", "0", "1"], ["1", "1", "0"]],
    "mode": "metric",
    "basepoint": "e",
}
WORDS_SPACE["matrix"][2] = ["10", "1", "0"]  # keep the matrix symmetric

EQUILATERAL_WORDS = {
    "points": ["e", "x", "y"],
    "matrix": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    "mode": "metric",
    "basepoint": "e",
}

# fiberdist.sampling.random_metric_space(random.Random(4), 6), basepoint a.
SIX_POINT_WORDS = {
    "points": ["a", "b", "c", "d", "e", "f"],
    "matrix": [
        ["0", "3/2", "2", "5/4", "1", "2"],
        ["3/2", "0", "1", "2", "5/3", "1"],
        ["2", "1", "0", "4/3", "2", "4/3"],
        ["5/4", "2", "4/3", "0", "3/2", "5/3"],
        ["1", "5/3", "2", "3/2", "0", "2"],
        ["2", "1", "4/3", "5/3", "2", "0"],
    ],
    "mode": "metric",
    "basepoint": "a",
}

BAD_TRIANGLE = {
    "points": ["x", "y", "z"],
    "matrix": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    "mode": "metric",
}


# The one selftest check each fault must fail.
FAULT_TARGETS = {
    "transport-solver": "transport-solver-vs-oracle",
    "words-dp": "words-search-vs-naive",
    "hausdorff": "hyperspace-coincidence",
    "power": "power-coincidence",
    "words-search": "words-search-vs-naive",
}


def run_cli(*args):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_space(tmp_path, obj, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


class TestValidate:
    def test_valid_space_round_trips_bytes(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli("validate", "--space", path)
        assert code == 0
        assert out == (tmp_path / "space.json").read_text()

    def test_basepoint_round_trips(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        code, out, _ = run_cli("validate", "--space", path)
        assert code == 0
        assert out == (tmp_path / "space.json").read_text()

    def test_triangle_violation_exits_1_with_witness(self, tmp_path):
        path = write_space(tmp_path, BAD_TRIANGLE)
        code, out, _ = run_cli("validate", "--space", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["axiom"] == "triangle_violation"
        assert payload["witness"] == [0, 1, 2]

    def test_triangle_violation_caught_without_asserts(self, tmp_path):
        path = write_space(tmp_path, BAD_TRIANGLE)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "fiberdist.cli", "validate", "--space", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["axiom"] == "triangle_violation"
        assert payload["witness"] == [0, 1, 2]

    def test_missing_file_exits_1(self):
        code, out, _ = run_cli("validate", "--space", "/nonexistent.json")
        assert code == 1
        assert "error" in json.loads(out)


class TestDist:
    def test_transport_point_masses(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli(
            "dist", "transport", "--space", path, "--a", '{"x":"1"}', "--b", '{"y":"1"}'
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "5"
        assert payload["value_decimal"] == "5"
        assert payload["witness"] == [["x", "y", "1"]]

    def test_hyperspace_method_both(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli(
            "dist",
            "hyperspace",
            "--method",
            "both",
            "--space",
            path,
            "--a",
            '["x"]',
            "--b",
            '["x","y"]',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["specialized"]["value"] == "5"
        assert payload["generic"]["value"] == "5"

    def test_power_finite_p_reports_power_form_and_root(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli(
            "dist",
            "power",
            "--norm",
            "p:2",
            "--space",
            path,
            "--a",
            '["x","x"]',
            "--b",
            '["y","y"]',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "50"
        assert payload["p"] == 2
        assert payload["value_decimal"].startswith("7.07106")

    def test_words_flags(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        code, out, _ = run_cli(
            "dist",
            "words",
            "--variant",
            "swierczkowski",
            "--space",
            path,
            "--a",
            '["x","x"]',
            "--b",
            '["y","y"]',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "1"
        # Two rows on the edge {x, y} attain the Steiner-forest bound.
        assert payload["flags"] == {"search_states": 0, "cap": 6, "cap_limited": False, "certified": "exact"}

    @pytest.mark.parametrize("abelian", [[], ["--abelian"]])
    def test_graev_words_are_exact(self, tmp_path, abelian):
        path = write_space(tmp_path, WORDS_SPACE)
        args = ["dist", "words", "--space", path, "--a", '["x"]', "--b", '["y^-1"]'] + abelian
        code, out, _ = run_cli(*args)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "20"
        assert payload["flags"] == {"search_states": 0, "cap": 4, "cap_limited": False, "certified": "exact"}
        code, out, _ = run_cli(*args, "--method", "both", "--inject-fault", "words-dp")
        assert code == 3
        payload = json.loads(out)
        assert (payload["specialized"]["value"], payload["generic"]["value"]) == ("21", "20")

    def test_search_fault_mismatches_swierczkowski_exit_3(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        both = ("dist", "words", "--method", "both", "--space", path)
        # xy against yx needs four rows to reach the bound 1, so cap 3 leaves
        # the search, which pays both orientations of {x, y}.
        capped = both + ("--variant", "swierczkowski", "--cap", "3", "--a", '["x","y"]', "--b", '["y","x"]')
        code, out, _ = run_cli(*capped)
        assert code == 0
        payload = json.loads(out)
        assert payload["specialized"]["value"] == "2"
        assert payload["specialized"]["flags"]["cap_limited"] is True
        code, out, _ = run_cli(*capped, "--inject-fault", "words-search")
        assert code == 3
        payload = json.loads(out)
        assert (payload["specialized"]["value"], payload["generic"]["value"]) == ("3", "2")
        # Exact answers settle no search state, so the search fault leaves
        # them be, and the exact-path fault flips them.
        common = both + ("--a", '["x","x"]', "--b", '["y","y"]')
        swierczkowski = common + ("--variant", "swierczkowski")
        assert run_cli(*common, "--inject-fault", "words-search")[0] == 0
        assert run_cli(*swierczkowski, "--inject-fault", "words-search")[0] == 0
        code, out, _ = run_cli(*swierczkowski, "--inject-fault", "words-dp")
        assert code == 3
        payload = json.loads(out)
        assert (payload["specialized"]["value"], payload["generic"]["value"]) == ("2", "1")

    def test_words_without_basepoint_exit_1(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli("dist", "words", "--space", path, "--a", '["x"]', "--b", '["y"]')
        assert code == 1

    def test_unbalanced_masses_exit_2(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli(
            "dist", "transport", "--space", path, "--a", '{"x":"1/2"}', "--b", '{"y":"1"}'
        )
        assert code == 2

    def test_words_cap_too_small_exit_2(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        code, out, _ = run_cli(
            "dist", "words", "--cap", "1", "--space", path, "--a", '["x","x"]', "--b", '["y","y"]'
        )
        assert code == 2

    def test_unknown_label_exit_1(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli("dist", "hyperspace", "--space", path, "--a", '["q"]', "--b", '["x"]')
        assert code == 1

    def test_corrupted_solver_mismatch_exit_3(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        code, out, _ = run_cli(
            "dist",
            "transport",
            "--method",
            "both",
            "--inject-fault",
            "transport-solver",
            "--space",
            path,
            "--a",
            '{"x":"1"}',
            "--b",
            '{"y":"1"}',
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["match"] is False
        assert payload["specialized"]["value"] == "6"
        assert payload["generic"]["value"] == "5"
        assert payload["specialized"]["witness"]

    @pytest.mark.parametrize(
        "fault,args",
        [("hausdorff", ("hyperspace", '["x"]', '["x","y"]')), ("power", ("power", '["x","x"]', '["y","x"]'))],
    )
    def test_fault_mismatches_its_instance_exit_3(self, tmp_path, fault, args):
        path = write_space(tmp_path, TWO_POINT)
        functor, a, b = args
        common = ("dist", functor, "--method", "both", "--space", path, "--a", a, "--b", b)
        assert run_cli(*common)[0] == 0
        code, out, _ = run_cli(*common, "--inject-fault", fault)
        assert code == 3
        payload = json.loads(out)
        assert (payload["specialized"]["value"], payload["generic"]["value"]) == ("6", "5")

    def test_deterministic_output(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        args = ("dist", "words", "--space", path, "--a", '["x","y"]', "--b", '["y","x"]')
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


class TestWitnessRoundTrip:
    @pytest.mark.parametrize(
        "functor,a,b,extra",
        [
            ("hyperspace", '["x"]', '["x","y"]', ()),
            ("power", '["x","x"]', '["y","x"]', ("--norm", "p:2")),
            ("transport", '{"x":"1/3","y":"2/3"}', '{"x":"1"}', ()),
            ("words", '["x","x"]', '["y","y"]', ()),
        ],
    )
    def test_witness_relifts_to_value(self, tmp_path, functor, a, b, extra):
        from fractions import Fraction

        from fiberdist.cli import _functor_class
        from fiberdist.core import space_document_from_obj

        space_obj = WORDS_SPACE
        path = write_space(tmp_path, space_obj)
        code, out, _ = run_cli("dist", functor, "--space", path, "--a", a, "--b", b, *extra)
        assert code == 0
        payload = json.loads(out)

        request = {
            "functor": functor,
            "a": json.loads(a),
            "norm": extra[1] if extra else "max",
            "variant": "graev",
            "abelian": False,
            "cap": None,
        }
        instance = _functor_class(functor).from_request(request)
        space, basepoint = space_document_from_obj(space_obj)
        ctx = instance.context(space, basepoint)
        table = space.pair_table()
        elements = [instance.parse_element(json.loads(side), ctx) for side in (a, b)]
        result = instance.distance(ctx, table, *elements)
        assert payload["witness"] == instance.format_coupling(result.witness, ctx)
        assert instance.lift(table, result.witness) == Fraction(payload["value"])


class TestBatch:
    def test_order_and_exit_codes(self, tmp_path):
        space_path = write_space(tmp_path, TWO_POINT)
        requests = [
            {"command": "dist", "functor": "transport", "space": space_path, "a": {"x": "1"}, "b": {"y": "1"}},
            {"command": "validate", "space": space_path},
            {"command": "dist", "functor": "transport", "space": space_path, "a": {"x": "1/2"}, "b": {"y": "1"}},
        ]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        code, out, _ = run_cli("batch", str(batch_path))
        assert code == 2  # first failing entry's code
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0]["value"] == "5"
        assert payload[0]["exit_code"] == 0
        assert payload[1]["exit_code"] == 0
        assert payload[2]["exit_code"] == 2

    def test_malformed_entries_do_not_abort_the_batch(self, tmp_path):
        space_path = write_space(tmp_path, TWO_POINT)
        good = {"command": "dist", "functor": "transport", "space": space_path, "a": {"x": "1"}, "b": {"y": "1"}}
        bad_fields = [
            {"method": "bogus"},
            {"cap": "abc"},
            {"functor": "nope"},
            {"abelian": "yes"},
        ]
        requests = [good] + [{**good, **fields} for fields in bad_fields] + [good]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        code, out, err = run_cli("batch", str(batch_path))
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert len(payload) == 6
        for response in (payload[0], payload[5]):
            assert response["value"] == "5"
            assert response["exit_code"] == 0
        for response, fields in zip(payload[1:5], bad_fields):
            assert set(response) == {"error", "exit_code"}
            assert response["exit_code"] == 1
            assert next(iter(fields)) in response["error"]

    def test_bad_elements_fail_only_their_entries(self, tmp_path):
        space_path = write_space(tmp_path, TWO_POINT)
        good = {"command": "dist", "functor": "transport", "space": space_path, "a": {"x": "1"}, "b": {"y": "1"}}
        negative_mass = {**good, "b": {"x": "-1", "y": "2"}}
        empty_tuple = {**good, "functor": "power", "a": [], "b": []}
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([good, negative_mass, empty_tuple, good]))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert [response["exit_code"] for response in payload] == [0, 1, 1, 0]
        assert all(set(response) == {"error", "exit_code"} for response in payload[1:3])

    def test_space_file_loaded_once_per_batch(self, tmp_path, monkeypatch, capsys):
        from fiberdist import cli

        space_path = write_space(tmp_path, WORDS_SPACE)
        requests = [
            {"command": "dist", "functor": "hyperspace", "space": space_path, "a": ["x"], "b": ["y"]},
            {"command": "validate", "space": space_path},
            {"command": "dist", "functor": "words", "space": space_path, "a": ["x"], "b": ["y"]},
        ]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        loads = []
        real = cli.space_document_from_obj

        def counting(obj):
            loads.append(obj)
            return real(obj)

        monkeypatch.setattr(cli, "space_document_from_obj", counting)
        assert cli.main(["batch", str(batch_path)]) == 0
        assert [r["exit_code"] for r in json.loads(capsys.readouterr().out)] == [0, 0, 0]
        assert len(loads) == 1

    def test_a_reader_that_closes_the_pipe_early(self, tmp_path):
        # About 1 MB of responses, far more than a pipe holds, so the write
        # after the reader closes its end fails; the CLI exits 1 and writes
        # nothing to stderr, however Python buffers stdout.
        space_path = write_space(tmp_path, TWO_POINT)
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([{"command": "validate", "space": space_path}] * 5000))
        proc = subprocess.Popen(CMD + ["batch", str(batch_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestRefusedInvocations:
    """Every invocation the CLI refuses prints one JSON error line on stdout,
    nothing on stderr, and exits 1; a flag value is refused with the same
    message as the batch entry holding that field."""

    ENTRY = {"command": "dist", "functor": "transport", "a": {"x": "1"}, "b": {"y": "1"}}
    # A space path that is never read: each invocation below that names it is refused first.
    DIST = ["dist", "transport", "--space", "unread.json", "--a", '{"x":"1"}', "--b", '{"y":"1"}']

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (["--method", "bogus"], {"method": "bogus"}),
            (["--variant", "foo"], {"variant": "foo"}),
            (["--inject-fault", "nope"], {"inject_fault": "nope"}),
            (["--cap", "1.5"], {"cap": 1.5}),
            (["--cap", '"3"'], {"cap": "3"}),
        ],
        ids=["method", "variant", "inject-fault", "cap-float", "cap-string"],
    )
    def test_bad_flag_value_matches_its_batch_entry(self, tmp_path, flags, fields):
        path = write_space(tmp_path, TWO_POINT)
        args = ["dist", "transport", "--space", path, "--a", '{"x":"1"}', "--b", '{"y":"1"}', *flags]
        entry = {**self.ENTRY, "space": path, **fields}
        self.assert_refused_like_batch(tmp_path, args, entry)

    @pytest.mark.parametrize("omit", ["space", "a", "b"])
    def test_missing_field_matches_its_batch_entry(self, tmp_path, omit):
        path = write_space(tmp_path, TWO_POINT)
        flags = {"space": path, "a": '{"x":"1"}', "b": '{"y":"1"}'}
        args = ["dist", "transport"] + [arg for key, text in flags.items() if key != omit for arg in (f"--{key}", text)]
        entry = {key: value for key, value in {**self.ENTRY, "space": path}.items() if key != omit}
        self.assert_refused_like_batch(tmp_path, args, entry)

    def test_unknown_functor_matches_its_batch_entry(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        args = ["dist", "nope", "--space", path, "--a", "[]", "--b", "[]"]
        entry = {**self.ENTRY, "functor": "nope", "space": path, "a": [], "b": []}
        self.assert_refused_like_batch(tmp_path, args, entry)

    def test_validate_without_space_matches_its_batch_entry(self, tmp_path):
        self.assert_refused_like_batch(tmp_path, ["validate"], {"command": "validate"})

    def assert_refused_like_batch(self, tmp_path, args, entry):
        code, out, err = run_cli(*args)
        assert (code, err) == (1, "")
        assert out.count("\n") == 1
        response = json.loads(out)
        assert set(response) == {"error"}
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([entry]))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        assert json.loads(out) == [{**response, "exit_code": 1}]

    @pytest.mark.parametrize(
        "args, error",
        [
            (DIST + ["--cap", "x"], r"field 'cap' is not valid JSON: .*"),
            (DIST + ["--cap", "03"], r"field 'cap' is not valid JSON: .*"),
            (DIST + ["--cap", "+3"], r"field 'cap' is not valid JSON: .*"),
            (DIST + ["--bogus", "1"], r"unrecognized arguments: --bogus 1"),
            ([], "the following arguments are required: command"),
            (["frobnicate"], r"argument command: invalid choice: 'frobnicate' \(choose from .*\)"),
            (["dist", "--space", "unread.json"], "the following arguments are required: functor"),
            (["batch"], "the following arguments are required: file"),
            (["selftest", "--inject-fault", "nope"],
             r"argument --inject-fault: invalid choice: 'nope' \(choose from .*\)"),
        ],
        ids=["cap-not-json", "cap-leading-zero", "cap-plus-sign", "unknown-flag", "no-command", "unknown-command",
             "no-functor", "no-batch-file", "selftest-fault"],
    )
    def test_usage_errors_and_flags_without_a_batch_form(self, args, error):
        code, out, err = run_cli(*args)
        assert (code, err) == (1, "")
        assert out.count("\n") == 1
        response = json.loads(out)
        assert set(response) == {"error"}
        assert re.fullmatch(error, response["error"])


class TestFlagsAreBatchFields:
    """A `dist` invocation is the batch entry its flags spell: it prints the
    bytes ``handle_request`` gives that entry, with every field set."""

    ELEMENTS = {
        "hyperspace": (["x"], ["x", "y"]),
        "power": (["x", "x"], ["y", "x"]),
        "transport": ({"x": "1/2", "y": "1/2"}, {"y": "1"}),
        "words": (["x", "y^-1"], ["y"]),
    }

    @pytest.mark.parametrize("functor", sorted(ELEMENTS))
    def test_every_field_set(self, tmp_path, functor):
        from fiberdist import cli

        path = write_space(tmp_path, WORDS_SPACE)
        a, b = self.ELEMENTS[functor]
        entry = {
            "command": "dist", "functor": functor, "space": path, "a": a, "b": b, "norm": "p:3",
            "variant": "swierczkowski", "abelian": True, "cap": 4, "method": "both", "inject_fault": "power",
        }
        assert [key for key, _default, _allowed in cli._FIELDS["dist"]] == list(entry)[1:]
        args = ["dist", functor, "--space", path, "--a", json.dumps(a), "--b", json.dumps(b), "--norm", "p:3"]
        args += ["--variant", "swierczkowski", "--abelian", "--cap", "4", "--method", "both", "--inject-fault", "power"]
        response, want_code = cli.handle_request(entry, cli._load_space_document)
        code, out, err = run_cli(*args)
        assert (code, out, err) == (want_code, json.dumps(response) + "\n", "")
        assert want_code == (3 if functor == "power" else 0)


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a clean input error."""

    DEEP = "[" * 100_000 + "]" * 100_000

    def test_dist_element(self, tmp_path):
        path = write_space(tmp_path, WORDS_SPACE)
        deep = "[" * 60_000 + "]" * 60_000  # one argv string holds at most 128 KiB
        code, out, err = run_cli("dist", "words", "--space", path, "--a", deep, "--b", "[]")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "element is nested too deeply to parse"}

    def test_batch_file(self, tmp_path):
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(self.DEEP)
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "batch file is nested too deeply to parse"}

    def test_space_file_fails_only_its_entries(self, tmp_path):
        good = write_space(tmp_path, WORDS_SPACE)
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP)
        requests = [
            {"command": "dist", "functor": "words", "space": good, "a": ["x"], "b": ["y"]},
            {"command": "validate", "space": str(deep)},
            {"command": "dist", "functor": "words", "space": str(deep), "a": ["x"], "b": ["y"]},
            {"command": "validate", "space": good},
        ]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert [r["exit_code"] for r in payload] == [0, 1, 1, 0]
        assert payload[0]["value"] == "1"
        for response in payload[1:3]:
            assert response == {"error": "space file is nested too deeply to parse", "exit_code": 1}


class TestSelftest:
    def test_clean_build_exits_0(self):
        code, out, _ = run_cli("selftest")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines)
        assert any("transport-solver-vs-oracle" in l for l in lines)

    def test_runs_are_identical(self):
        first = run_cli("selftest")
        second = run_cli("selftest")
        assert first == second

    def test_clean_build_exits_0_without_asserts(self):
        proc = subprocess.run([sys.executable, "-O", *CMD[1:], "selftest"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_fails_exactly_its_check(self, fault, flags):
        proc = subprocess.run(
            [sys.executable, *flags, *CMD[1:], "selftest", "--inject-fault", fault], capture_output=True, text=True
        )
        assert proc.returncode == 1
        failed = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
        assert failed == [f"FAIL {FAULT_TARGETS[fault]}", "FAIL overall"]


class TestOversizedInput:
    """Inputs whose exact numbers Python will not convert between int and
    text (``sys.get_int_max_str_digits()``) are refused, not tracebacks."""

    HUGE = {**TWO_POINT, "matrix": [["0", "1" * 5000], ["1" * 5000, "0"]]}
    DIGITS_ERROR = {"error": "rational scalar of 5000 characters has too many digits"}

    def test_long_literal_is_an_input_error(self, tmp_path):
        path = write_space(tmp_path, self.HUGE)
        for args in (("validate",), ("dist", "hyperspace", "--a", '["x"]', "--b", '["y"]')):
            code, out, err = run_cli(*args, "--space", path)
            assert (code, err, json.loads(out)) == (1, "", self.DIGITS_ERROR)

    def test_long_literal_fails_only_its_batch_entries(self, tmp_path):
        good, huge = write_space(tmp_path, TWO_POINT), write_space(tmp_path, self.HUGE, "huge.json")
        entry = {"command": "dist", "functor": "transport", "a": {"x": "1"}, "b": {"y": "1"}}
        requests = [{**entry, "space": good}, {"command": "validate", "space": huge}, {**entry, "space": huge}]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests + requests[:1]))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert [r["exit_code"] for r in payload] == [0, 1, 1, 0]
        assert payload[0]["value"] == payload[3]["value"] == "5"
        assert payload[1] == payload[2] == {**self.DIGITS_ERROR, "exit_code": 1}

    @pytest.mark.parametrize("p", [100_000, 30_000_000])
    def test_huge_norm_exponent_exits_2_at_once(self, tmp_path, p):
        path = write_space(tmp_path, TWO_POINT)
        elements = {"a": ["x", "y"], "b": ["y", "y"]}
        error = (
            f"power[n=2,p{p}]: the exact value may have {math.ceil((3 * p + 2) * math.log10(2))} digits, "
            f"more than the {sys.get_int_max_str_digits()} Python renders"
        )
        args = ["--space", path, "--norm", f"p:{p}", "--a", json.dumps(elements["a"]), "--b", json.dumps(elements["b"])]
        for method in METHODS:
            proc = subprocess.run(CMD + ["dist", "power", "--method", method, *args], capture_output=True, text=True,
                                  timeout=10)
            assert (proc.returncode, proc.stderr, json.loads(proc.stdout)) == (2, "", {"error": error})
        requests = [
            {"command": "dist", "functor": "power", "space": path, "norm": f"p:{n}", "method": method, **elements}
            for n in (2, p)
            for method in METHODS
        ]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        proc = subprocess.run(CMD + ["batch", str(batch_path)], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (2, "")
        payload = json.loads(proc.stdout)
        assert [r["exit_code"] for r in payload] == [0, 0, 0, 2, 2, 2]
        assert payload[0]["value"] == "25"
        assert payload[3:] == [{"error": error, "exit_code": 2}] * 3

    def test_long_norm_exponent_is_an_input_error(self, tmp_path):
        path = write_space(tmp_path, TWO_POINT)
        norm = "p:" + "9" * 5000
        error = {"error": "norm exponent of 5000 characters has too many digits"}
        code, out, err = run_cli("dist", "power", "--space", path, "--norm", norm, "--a", '["x"]', "--b", '["y"]')
        assert (code, err, json.loads(out)) == (1, "", error)
        good = {"command": "dist", "functor": "power", "space": path, "a": ["x"], "b": ["y"]}
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([good, {**good, "norm": norm}, {**good, "norm": "p:2"}]))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert [r["exit_code"] for r in payload] == [0, 1, 0]
        assert (payload[0]["value"], payload[1], payload[2]["value"]) == ("5", {**error, "exit_code": 1}, "25")

    def test_oversized_value_fails_only_its_batch_entries(self, tmp_path):
        # d and the small mass print in about 3,000 digits each; the
        # transport value, their product, needs about 6,000.
        d, m = Fraction(1, 3**6300), Fraction(1, 3**6290)
        path = write_space(tmp_path, {**TWO_POINT, "matrix": [["0", str(d)], [str(d), "0"]]})
        transport = {"command": "dist", "functor": "transport", "space": path,
                     "a": {"x": str(m), "y": str(1 - m)}, "b": {"y": "1"}}
        hyperspace = {"command": "dist", "functor": "hyperspace", "space": path, "a": ["x"], "b": ["y"]}
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([{**transport, "method": method} for method in METHODS] + [hyperspace]))
        code, out, err = run_cli("batch", str(batch_path))
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert [r["exit_code"] for r in payload] == [2, 2, 2, 0]
        error = (f"transport: the answer holds a number with more than the {sys.get_int_max_str_digits()} "
                 "digits Python renders")
        assert payload[:3] == [{"error": error, "exit_code": 2}] * 3
        assert payload[3]["value"] == str(d)


class TestWordStates:
    """Word requests are bounded by ``fiberdist.words.MAX_STATES``: past it
    they exit 2 with a message naming the counter, and large fibers within
    it are folded, not walked."""

    def test_swierczkowski_search_past_the_budget_exits_2(self, tmp_path):
        from fiberdist.words import MAX_STATES

        # No witness on a cheapest Steiner forest fits the default cap 14, so
        # the forest's witness search and then the capped search run out.
        path = write_space(tmp_path, SIX_POINT_WORDS)
        a, b = ["b^-1", "d^-1", "d^-1", "b", "c^-1", "f^-1"], ["d^-1", "f^-1", "f^-1", "d^-1", "c", "b"]
        args = ["dist", "words", "--variant", "swierczkowski", "--space", path]
        args += ["--a", json.dumps(a), "--b", json.dumps(b)]
        proc = subprocess.run(CMD + args, capture_output=True, text=True, timeout=5)
        error = f"word search reached {MAX_STATES + 1} states, over the budget of {MAX_STATES}"
        assert (proc.returncode, proc.stderr, json.loads(proc.stdout)) == (2, "", {"error": error})

    @pytest.mark.parametrize("method", METHODS)
    def test_huge_cap_exits_without_a_traceback(self, tmp_path, method):
        from fiberdist.words import MAX_STATES

        path = write_space(tmp_path, EQUILATERAL_WORDS)
        args = ["dist", "words", "--method", method, "--cap", "1100", "--space", path, "--a", '["x"]', "--b", '["x"]']
        proc = subprocess.run(CMD + args, capture_output=True, text=True, timeout=30)
        payload = json.loads(proc.stdout)
        assert proc.stderr == ""
        if method == "specialized":  # the exact Graev path needs no fiber
            assert (proc.returncode, payload["value"]) == (0, "0")
        else:
            assert proc.returncode == 2
            error = rf"representation DAG reached \d+ states, over the budget of {MAX_STATES}"
            assert re.fullmatch(error, payload["error"])

    def test_large_generic_fiber(self, tmp_path):
        path = write_space(tmp_path, EQUILATERAL_WORDS)
        args = ["dist", "words", "--method", "generic", "--cap", "8", "--space", path]
        code, out, err = run_cli(*args, "--a", '["x"]', "--b", '["x","y^-1"]')
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["value"] == "1"
        assert payload["witness"] == [["e", "e", 1]] * 6 + [["x", "x", 1], ["e", "y", -1]]
        assert payload["flags"] == {
            "fiber_size": 6_153_850, "cap": 8, "cap_limited": True, "certified": "exhaustive_within_cap"
        }


def test_compute_errors_keep_their_builtin_base():
    """Exit 2 is exactly a ComputeError, and each still is what library
    callers caught before."""
    from fiberdist import cli, transport, words
    from fiberdist.extension import ComputeError, EmptyFiberError, FiberCapExceeded, ValueTooLargeError

    bases = {
        EmptyFiberError: RuntimeError,
        FiberCapExceeded: RuntimeError,
        ValueTooLargeError: ValueError,
        transport.UnbalancedMassError: ValueError,
        words.CapTooSmallError: ValueError,
        words.WitnessError: RuntimeError,
    }
    assert set(ComputeError.__subclasses__()) == set(bases)
    for cls, base in bases.items():
        assert issubclass(cls, base)
        assert cli._error_response(cls("boom")) == ({"error": "boom"}, 2)


FUNCTOR_MODULES = ("hyperspace", "power", "transport", "words")


def loaded_modules(*argv):
    """Which of dataclasses, selftest, sampling and the functor modules a
    fresh process loads to import the CLI and, given ``argv``, run it."""
    watched = ["dataclasses", "fiberdist.selftest", "fiberdist.sampling"]
    watched += [f"fiberdist.{name}" for name in FUNCTOR_MODULES]
    probe = (
        "import sys, fiberdist.cli; "
        "code = fiberdist.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
        f"print(sorted(set({watched!r}) & set(sys.modules)), file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    return proc.stderr.strip()


def test_cli_import_leaves_dataclasses_selftest_and_sampling_unloaded(tmp_path):
    path = write_space(tmp_path, WORDS_SPACE)
    assert loaded_modules() == "[]"
    assert loaded_modules("validate", "--space", path) == "[]"
    assert loaded_modules("dist", "hyperspace", "--space", path, "--a", '["x"]', "--b", '["y"]') == str(
        ["fiberdist.hyperspace"]
    )
    assert loaded_modules("dist", "words", "--space", path, "--a", '["x"]', "--b", '["y"]') == str(
        ["fiberdist.transport", "fiberdist.words"]
    )
