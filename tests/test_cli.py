import argparse
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from procnet import bundled_network_path
from procnet.cli import build_parser, main
from builders import one_outcome_cycle_doc

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
BUNDLED = ("triangle", "chsh", "product", "chain")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, doc) -> str:
    path = tmp_path / "case.network"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def triangle_doc():
    return json.loads(bundled_network_path("triangle").read_text(encoding="utf-8"))


def identity_ring_doc(wires: int):
    """A ring of copy nodes with the uniform vector stored as "u"."""
    names = [f"W{k}" for k in range(wires)]
    return {
        "format_version": 1,
        "variables": [{"name": n, "alphabet": ["0", "1"]} for n in names],
        "nodes": [
            {
                "name": f"copy{k}",
                "inputs": [names[k]],
                "internals": [],
                "outputs": [names[(k + 1) % wires]],
                "matrix": [["1", "0"], ["0", "1"]],
            }
            for k in range(wires)
        ],
        "stationary": {"u": [f"1/{2**wires}"] * 2**wires},
    }


@st.composite
def mutated_bundled_bytes(draw):
    data = bytearray(bundled_network_path(draw(st.sampled_from(BUNDLED))).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.integers(0, 255))
        if op == "replace":
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        else:
            del data[pos]
    return bytes(data)


@settings(
    max_examples=100,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=mutated_bundled_bytes())
def test_mutated_bundled_files_exit_with_documented_codes(tmp_path, data):
    path = tmp_path / "mutant.network"
    path.write_bytes(data)
    for command in ("validate", "analyze"):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in (0, 2, 3, 4, 5), command


class TestValidate:
    @pytest.mark.parametrize("name", ["triangle", "chsh", "product", "chain"])
    def test_bundled_files_validate(self, capsys, name):
        code, out, _ = run(capsys, "validate", str(bundled_network_path(name)))
        assert code == 0
        assert "OK" in out

    def test_huge_exponent_entry_exits_quickly_naming_the_limit(self, capsys, tmp_path):
        # like any unreadable matrix entry, it is reported as a semantic issue
        doc = triangle_doc()
        doc["nodes"][0]["matrix"][0][0] = "1e999999999"
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", write(tmp_path, doc))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "MAX_RATIONAL_EXPONENT" in out
        code, _, err = run(capsys, "analyze", write(tmp_path, doc))
        assert code == 3
        assert "MAX_RATIONAL_EXPONENT" in err

    def test_bad_row_sum_exits_3_and_names_the_row(self, capsys, tmp_path):
        doc = triangle_doc()
        doc["nodes"][0]["matrix"] = [["0.5", "0.4"], ["1/2", "1/2"]]
        del doc["stationary"]
        code, out, _ = run(capsys, "validate", write(tmp_path, doc))
        assert code == 3
        assert "row 0" in out

    def test_duplicate_wiring_exits_3_and_names_the_variable(self, capsys, tmp_path):
        doc = triangle_doc()
        del doc["stationary"]
        doc["nodes"].append(
            {
                "name": "rogue",
                "inputs": [],
                "internals": [],
                "outputs": ["Y"],
                "matrix": [["1/2", "1/2"]],
            }
        )
        code, out, _ = run(capsys, "validate", write(tmp_path, doc))
        assert code == 3
        assert "'Y'" in out

    def test_garbage_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.network"
        path.write_text("{", encoding="utf-8")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "deep.network"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert "nested too deeply" in out + err

    @pytest.mark.parametrize(
        "argv", [("validate",), ("analyze",), ("simulate", "--node", "alpha")]
    )
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "utf16.network"
        path.write_bytes(b"\xff\xfe\x00" + bundled_network_path("product").read_bytes())
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert "utf-8" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope.network"))
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("validate",), ("analyze",), ("simulate", "--node", "alpha")]
    )
    def test_directory_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv[0], str(tmp_path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("validate",), ("analyze",), ("simulate", "--node", "alpha")]
    )
    def test_long_path_is_echoed_cut(self, capsys, argv):
        # the OSError's message holds the whole file name
        code, out, err = run(capsys, argv[0], "a" * 5000, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "aaaa" in err
        assert len(err) < 200

    def test_non_string_alphabet_and_boolean_version_exit_2(self, capsys, tmp_path):
        doc = triangle_doc()
        doc["format_version"] = True
        assert run(capsys, "validate", write(tmp_path, doc))[0] == 2
        doc["format_version"] = 1
        doc["variables"][0]["alphabet"] = [0, [1]]
        code, out, _ = run(capsys, "validate", write(tmp_path, doc))
        assert code == 2
        assert "alphabet entries must be strings" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "validate", str(bundled_network_path("triangle")), "--json"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestAnalyze:
    @pytest.mark.parametrize(
        "name, omega",
        [
            ("triangle", "sixcycle"),
            ("chsh", "solve"),
            ("product", "solve"),
            ("chain", "exact"),
        ],
    )
    def test_json_reports_match_the_golden_files(self, capsys, name, omega):
        code, out, _ = run(
            capsys,
            "analyze",
            str(bundled_network_path(name)),
            "--omega",
            omega,
            "--json",
        )
        assert code == 0
        golden = json.loads((GOLDEN_DIR / f"{name}_analyze.json").read_text())
        assert json.loads(out) == golden

    def test_human_report_mentions_the_verdicts(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            str(bundled_network_path("triangle")),
            "--omega",
            "sixcycle",
        )
        assert code == 0
        assert "contextual: yes" in out
        assert "strongly contextual: yes" in out
        assert "Vorobev-regular: no" in out

    def test_human_report_renders_an_applicable_chsh(self, capsys):
        code, out, _ = run(capsys, "analyze", str(bundled_network_path("chsh")))
        assert code == 0
        assert (
            "CHSH: value 4 (labeling A1, A2, B1, B2; classical bound 2, "
            "quantum bound squared 8, box bound 4)\n"
            "  violates classical bound: yes; violates quantum bound: yes\n"
        ) in out

    def test_unknown_omega_name_exits_5(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            str(bundled_network_path("triangle")),
            "--omega",
            "missing",
        )
        assert code == 5
        assert "missing" in err

    def test_non_stationary_omega_exits_5(self, capsys, tmp_path):
        doc = triangle_doc()
        doc["stationary"] = {"drift": ["1", "0", "0", "0", "0", "0", "0", "0"]}
        code, _, err = run(
            capsys, "analyze", write(tmp_path, doc), "--omega", "drift"
        )
        assert code == 5
        assert "not stationary" in err

    def test_open_network_exits_4(self, capsys, tmp_path):
        doc = triangle_doc()
        del doc["stationary"]
        doc["nodes"] = doc["nodes"][:2]  # drop the closing relay
        code, _, err = run(capsys, "analyze", write(tmp_path, doc))
        assert code == 4
        assert "open" in err

    def test_reciprocity_exits_4(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [
                {"name": "X", "alphabet": ["0", "1"]},
                {"name": "Y", "alphabet": ["0", "1"]},
            ],
            "nodes": [
                {
                    "name": "a",
                    "inputs": ["X"],
                    "internals": [],
                    "outputs": ["Y"],
                    "matrix": [["1", "0"], ["0", "1"]],
                },
                {
                    "name": "b",
                    "inputs": ["Y"],
                    "internals": [],
                    "outputs": ["X"],
                    "matrix": [["1", "0"], ["0", "1"]],
                },
            ],
        }
        code, _, err = run(capsys, "analyze", write(tmp_path, doc))
        assert code == 4
        assert "reciprocities" in err

    def test_internal_variable_self_reciprocity_exits_4(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [{"name": "M", "alphabet": ["0", "1"]}],
            "nodes": [
                {
                    "name": "loop",
                    "inputs": [],
                    "internals": ["M"],
                    "outputs": [],
                    "matrix": [["1/2", "1/2"], ["1/2", "1/2"]],
                }
            ],
        }
        code, _, err = run(capsys, "analyze", write(tmp_path, doc))
        assert code == 4
        assert "reciprocities" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("simulate", "--node", "copy0", "--steps", "10"),
            ("simulate", "--node", "copy0", "--omega", "u", "--steps", "10"),
        ],
    )
    def test_state_cap_refuses_before_contraction(self, capsys, tmp_path, argv):
        # 2^11 states; contracting them alone took seconds
        path = write(tmp_path, identity_ring_doc(11))
        start = time.perf_counter()
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "state space of size 2048 exceeds the cap of 1024" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("simulate", "--node", "mix0", "--steps", "10"),
            ("simulate", "--node", "mix0", "--omega", "u", "--steps", "10"),
        ],
    )
    def test_nonzero_cap_refuses_before_contraction(self, capsys, tmp_path, argv):
        # 10 strictly positive wires: 1024 states, each row 1024 nonzeros;
        # contracting them alone took tens of seconds
        doc = identity_ring_doc(10)
        for k, node in enumerate(doc["nodes"]):
            node["name"] = f"mix{k}"
            node["matrix"] = [["1/2", "1/2"], ["1/2", "1/2"]]
        path = write(tmp_path, doc)
        start = time.perf_counter()
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "global process of 1048576 nonzeros exceeds the cap of 262144" in err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize(
        "shape, message",
        [
            ((1000, 1), "structure check: 1000 nodes exceed the cap of 128"),
            ((3, 3000), "structure check: 9000 global variables exceed the cap of 512"),
        ],
        ids=["ring-1000", "cycle-9000-wires"],
    )
    def test_structure_caps_refuse_before_pairwise_work(
        self, capsys, tmp_path, command, shape, message
    ):
        # one state each; without the caps, analyze spent 80 s on the ring
        # and 14 s on the cycle in the pairwise structure checks
        path = write(tmp_path, one_outcome_cycle_doc(*shape))
        argv = ("--node", "relay0", "--steps", "10") if command == "simulate" else ()
        start = time.perf_counter()
        code, _, err = run(capsys, command, path, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert message in err

    def test_structure_caps_admit_a_network_at_both_caps(self, capsys, tmp_path):
        # 128 nodes and 4 wires per arrow: exactly 128 nodes, 512 variables
        code, out, _ = run(capsys, "analyze", write(tmp_path, one_outcome_cycle_doc(128, 4)))
        assert code == 0
        assert "contextual: no" in out


class TestSimulate:
    @pytest.mark.parametrize(
        "name, node, steps",
        [("product", "alpha", "100000"), ("chain", "stage1", "5000")],
    )
    def test_json_reports_match_the_golden_files(self, capsys, name, node, steps):
        # both runs cross many blocks of the lane-parallel random stream
        code, out, _ = run(
            capsys,
            "simulate",
            str(bundled_network_path(name)),
            "--node",
            node,
            "--steps",
            steps,
            "--seed",
            "7",
            "--json",
        )
        assert code == 0
        golden = json.loads((GOLDEN_DIR / f"{name}_simulate.json").read_text())
        assert json.loads(out) == golden

    def test_reproducible_and_reports_bands(self, capsys):
        argv = (
            "simulate",
            str(bundled_network_path("product")),
            "--node",
            "alpha",
            "--steps",
            "2000",
            "--seed",
            "9",
            "--json",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["ergodic"] is True
        assert len(doc["estimates"]) == 4
        assert all("three_sigma_band" in row for row in doc["estimates"])

    def test_periodic_chain_flagged(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            str(bundled_network_path("triangle")),
            "--node",
            "alpha",
            "--steps",
            "600",
            "--seed",
            "3",
            "--omega",
            "sixcycle",
        )
        assert code == 0
        assert "not verified irreducible+aperiodic" in out

    def test_single_step_frequencies_are_zero_or_one(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            str(bundled_network_path("product")),
            "--node",
            "alpha",
            "--steps",
            "1",
            "--seed",
            "4",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert sorted(row["frequency"] for row in doc["estimates"]) == ["0", "0", "0", "1"]

    def test_steps_over_the_cap_exit_3(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "simulate",
            str(bundled_network_path("product")),
            "--node",
            "alpha",
            "--steps",
            "1000000000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "steps exceed the cap of 10000000" in err

    @pytest.mark.parametrize("steps", ["0", "1000000000"])
    def test_bad_steps_refused_before_the_network_is_solved(
        self, capsys, tmp_path, steps
    ):
        path = write(tmp_path, identity_ring_doc(10))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "simulate", path, "--node", "copy0", "--steps", steps
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "steps" in err

    def test_unknown_node_is_semantic_error(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            str(bundled_network_path("product")),
            "--node",
            "nope",
        )
        assert code == 3
        assert "nope" in err

    def test_long_node_name_is_echoed_cut(self, capsys):
        code, out, err = run(
            capsys, "simulate", str(bundled_network_path("product")), "--node", "n" * 5000
        )
        assert code == 3
        assert out == ""
        assert "no node named 'nnn" in err
        assert len(err) < 200

    def test_long_omega_name_is_echoed_cut(self, capsys):
        code, out, err = run(
            capsys,
            "simulate",
            str(bundled_network_path("product")),
            "--node",
            "alpha",
            "--omega",
            "w" * 5000,
        )
        assert code == 5
        assert out == ""
        assert "no stationary distribution named 'www" in err
        assert len(err) < 200

    @pytest.mark.parametrize("option", ["--steps", "--seed"])
    @pytest.mark.parametrize(
        "token", ["9" * 5000, "x" * 5000, "1.5"], ids=["5000-digits", "5000-letters", "float"]
    )
    def test_bad_int_option_exits_2_with_a_cut_echo(self, capsys, option, token):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", str(bundled_network_path("product")), "--node", "alpha",
                  option, token])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"argument {option}: invalid int value: '{token[:10]}" in captured.err
        assert len(captured.err) < 400


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "FILE", "--node", "alpha", "--bogus", "b" * 5000),
        ("c" * 5000,),
        # an error of the simulate parser itself
        ("simulate", "FILE", "--node", "alpha", "--s=" + "s" * 5000),
    ],
    ids=["unknown-argument", "unknown-subcommand", "ambiguous-option"],
)
def test_usage_errors_exit_2_with_a_cut_echo(capsys, argv):
    # argparse echoes an unknown token whole; the parser, and the subcommand
    # parsers built from it, cut the message
    argv = [str(bundled_network_path("product")) if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "error: " in captured.err
    assert len(captured.err) < 400


def readme_synopsis_options() -> dict[str, set[str]]:
    """The --options of each `procnet CMD` line of the README's synopsis."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("procnet "):
            synopsis[line.split()[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return synopsis


def test_readme_synopsis_lists_exactly_the_parser_options():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {
            opt
            for action in p._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, p in sub.choices.items()
    }
    assert readme_synopsis_options() == defined
