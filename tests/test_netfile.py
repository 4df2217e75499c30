import json
import time
from fractions import Fraction

import pytest

from procnet import (
    bundled_network_path,
    check_network_text,
    load_network_file,
    parse_network_text,
    serialize_network_file,
)
from procnet.errors import DomainError, ParseError

BUNDLED = ("triangle", "chsh", "product", "chain")


def bundled_text(name: str) -> str:
    return bundled_network_path(name).read_text(encoding="utf-8")


def minimal_doc():
    return {
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
                "matrix": [["1/2", "1/2"], ["1/2", "1/2"]],
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


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files_roundtrip_identically(self, name):
        first = parse_network_text(bundled_text(name))
        second = parse_network_text(serialize_network_file(first))
        assert first == second

    def test_serialization_is_stable(self):
        nf = parse_network_text(bundled_text("triangle"))
        assert serialize_network_file(nf) == serialize_network_file(nf)


class TestParseErrors:
    def test_invalid_json(self):
        check = check_network_text("{nope")
        assert check.stage == "parse"
        with pytest.raises(ParseError):
            parse_network_text("{nope")

    def test_missing_version(self):
        doc = minimal_doc()
        del doc["format_version"]
        assert check_network_text(json.dumps(doc)).stage == "parse"

    def test_unknown_version(self):
        doc = minimal_doc()
        doc["format_version"] = 99
        assert check_network_text(json.dumps(doc)).stage == "parse"

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_must_be_the_integer_one(self, version):
        doc = minimal_doc()
        doc["format_version"] = version
        check = check_network_text(json.dumps(doc))
        assert check.stage == "parse"
        assert "unsupported format_version" in check.issues[0]

    @pytest.mark.parametrize("alphabet", [[0, 1], ["0", ["1"]], ["0", None]])
    def test_alphabet_entries_must_be_strings(self, alphabet):
        doc = minimal_doc()
        doc["variables"][1]["alphabet"] = alphabet
        check = check_network_text(json.dumps(doc))
        assert check.stage == "parse"
        assert check.issues == ("variable 'Y': alphabet entries must be strings",)

    @pytest.mark.parametrize("role", ["inputs", "internals", "outputs"])
    def test_node_variable_names_must_be_strings(self, role):
        doc = minimal_doc()
        doc["nodes"][0][role] = doc["nodes"][0][role] + [1]
        check = check_network_text(json.dumps(doc))
        assert check.stage == "parse"
        assert check.issues == (f"node 'a': {role} must be a list of names",)

    def test_nodes_must_be_list(self):
        doc = minimal_doc()
        doc["nodes"] = {}
        assert check_network_text(json.dumps(doc)).stage == "parse"

    def test_matrix_rows_must_be_lists(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"] = ["10", "01"]
        assert check_network_text(json.dumps(doc)).stage == "parse"

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        text = json.dumps(minimal_doc()).replace('"1/2"', "1" + "0" * 5000, 1)
        check = check_network_text(text)
        assert check.stage == "parse"
        assert check.issues[0].startswith("invalid JSON")

    def test_long_values_are_cut_in_messages(self):
        doc = minimal_doc()
        doc["format_version"] = "9" * 5000
        check = check_network_text(json.dumps(doc))
        assert check.stage == "parse"
        assert len(check.issues[0]) < 200 and "..." in check.issues[0]


class TestSemanticIssues:
    @pytest.mark.parametrize(
        "edit, issues",
        [
            (
                lambda doc: doc["variables"].append({"name": "X", "alphabet": ["0", "1"]}),
                ("variable 'X' declared twice",),
            ),
            (
                lambda doc: doc["nodes"].append(dict(doc["nodes"][0])),
                ("node 'a' declared twice",),
            ),
            (
                # the structure check admits it; the Variable constructor does
                # not, so the nodes reading Y see it undeclared
                lambda doc: doc["variables"][1].update(alphabet=["0", "0"]),
                (
                    "outcomes of 'Y' must be distinct",
                    "node 'a': undeclared variables ['Y']",
                    "node 'b': undeclared variables ['Y']",
                ),
            ),
            (
                lambda doc: doc["nodes"][0].update(matrix=[["-1/2", "3/2"], ["1/2", "1/2"]]),
                ("process 'a': negative entry -1/2 at (0, 0)",),
            ),
            (
                lambda doc: doc.update(stationary={"w": ["1/4", "1/4", "x", "1/4"]}),
                ("stationary 'w': not a rational: 'x'",),
            ),
            (
                # a node that does not build leaves its wires dangling, which
                # is not a fault of the stationary vector
                lambda doc: doc.update(stationary={"w": ["1/4"] * 4})
                or doc["nodes"][0].update(matrix=[["1/2", "1/2"]]),
                ("process 'a': matrix must be 2x2 for its declared variables",),
            ),
            (
                lambda doc: doc.update(stationary={"w": ["1/4"] * 4})
                or doc["nodes"][0].update(matrix=[["1/2", "2/5"], ["1/2", "1/2"]]),
                ("process 'a': row 0 sums to 9/10, not 1",),
            ),
        ],
        ids=[
            "variable-twice",
            "node-twice",
            "bad-alphabet",
            "negative-entry",
            "bad-weight",
            "wrong-shape-with-stationary",
            "bad-row-with-stationary",
        ],
    )
    def test_each_issue_is_reported(self, edit, issues):
        doc = minimal_doc()
        edit(doc)
        check = check_network_text(json.dumps(doc))
        assert (check.stage, check.issues, check.file) == ("semantic", issues, None)

    def test_row_sum_violation_identifies_the_row(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"] = [["0.5", "0.4"], ["1/2", "1/2"]]
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"
        assert any("row 0" in issue and "9/10" in issue for issue in check.issues)

    def test_duplicate_output_wiring_identified(self):
        doc = minimal_doc()
        doc["nodes"][1] = {
            "name": "b",
            "inputs": [],
            "internals": [],
            "outputs": ["Y"],
            "matrix": [["1/2", "1/2"]],
        }
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"
        assert any("'Y'" in issue and "output of both" in issue for issue in check.issues)

    def test_undeclared_variable_flagged(self):
        doc = minimal_doc()
        doc["nodes"][0]["inputs"] = ["W"]
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"
        assert any("undeclared" in issue for issue in check.issues)

    def test_matrix_shape_flagged(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"] = [["1/2", "1/2"]]
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"

    def test_stationary_wrong_length_flagged(self):
        doc = minimal_doc()
        doc["stationary"] = {"w": ["1/2", "1/2"]}
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"
        assert any("expected 4 weights" in issue for issue in check.issues)

    def test_stationary_on_open_network_flagged(self):
        doc = minimal_doc()
        doc["nodes"][1]["outputs"] = ["Z"]
        doc["variables"].append({"name": "Z", "alphabet": ["0", "1"]})
        doc["stationary"] = {"w": ["1/4", "1/4", "1/4", "1/4"]}
        check = check_network_text(json.dumps(doc))
        assert check.stage == "semantic"
        assert any("closed" in issue for issue in check.issues)

    def test_huge_exponent_entry_is_refused_quickly(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"][0][0] = "1e999999999"
        start = time.perf_counter()
        check = check_network_text(json.dumps(doc))
        assert time.perf_counter() - start < 0.5
        assert not check.ok
        assert any("MAX_RATIONAL_EXPONENT" in issue for issue in check.issues)

    def test_strict_parse_raises_domain_error(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"] = [["0.5", "0.4"], ["1/2", "1/2"]]
        with pytest.raises(DomainError):
            parse_network_text(json.dumps(doc))


class TestInternals:
    def test_node_with_internal_variable_roundtrips(self):
        doc = {
            "format_version": 1,
            "variables": [
                {"name": "I", "alphabet": ["0", "1"]},
                {"name": "M", "alphabet": ["0", "1"]},
                {"name": "O", "alphabet": ["0", "1"]},
            ],
            "nodes": [
                {
                    "name": "stateful",
                    "inputs": ["I"],
                    "internals": ["M"],
                    "outputs": ["O"],
                    "matrix": [["1/4"] * 4] * 4,
                }
            ],
        }
        nf = parse_network_text(json.dumps(doc))
        node = nf.network.node("stateful")
        assert [v.name for v in node.internals] == ["M"]
        assert parse_network_text(serialize_network_file(nf)) == nf


class TestEntryFormats:
    def test_int_and_decimal_entries_are_exact(self):
        doc = minimal_doc()
        doc["nodes"][0]["matrix"] = [[1, 0], ["0.25", "0.75"]]
        nf = parse_network_text(json.dumps(doc))
        node = nf.network.node("a")
        assert node.matrix[1] == (Fraction(1, 4), Fraction(3, 4))

    def test_unknown_bundled_name_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^no bundled network named 'square'$"):
            bundled_network_path("square")

    def test_bundled_files_load_and_expose_stationary(self):
        nf = load_network_file(bundled_network_path("triangle"))
        six = nf.stationary_named("sixcycle")
        assert six.weights[1] == 0 and six.weights[6] == 0
        with pytest.raises(DomainError):
            nf.stationary_named("missing")
