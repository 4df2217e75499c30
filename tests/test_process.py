import ast
import time
from collections import Counter
from pathlib import Path
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import procnet
from oracle import dense_contract, pairwise_find_reciprocities, scan_global_variable_order
from procnet import (
    Network,
    NetworkFile,
    ProcessTensor,
    Variable,
    analyze,
    classify_network,
    contract_network,
    find_reciprocities,
    global_variable_order,
)
from procnet.errors import (
    DomainError,
    ResourceLimitError,
    StructureError,
    WiringError,
)
from builders import deterministic_process, reorder_process, uniform_process
from generators import random_closed_network, random_stochastic_rows
from procnet.scenario import iter_outcome_tuples, section_count

BINARY = ("0", "1")
HALF = Fraction(1, 2)
ONE = Fraction(1)


def var(name, alphabet=BINARY):
    return Variable(name, alphabet)


def copy(t):
    return t


def random_process(rng, name, inputs, outputs):
    matrix = random_stochastic_rows(
        rng, section_count(tuple(inputs)), section_count(tuple(outputs))
    )
    return ProcessTensor.from_matrix(name, tuple(inputs), (), tuple(outputs), matrix)


@st.composite
def variables(draw, name):
    size = draw(st.integers(1, 3))
    return Variable(name, tuple(draw(st.permutations(("0", "1", "2")[:size]))))


@st.composite
def processes(draw, name, inputs, internals, outputs):
    """A process on the given variables, each role in a drawn order; its
    rows are probability rows, and about a quarter of the entries are zero."""
    inputs, internals, outputs = (
        tuple(draw(st.permutations(vs))) for vs in (inputs, internals, outputs)
    )
    rng = Random(draw(st.integers(0, 2**32)))
    n_cols = section_count(internals + outputs)
    rows = []
    for _ in range(section_count(inputs + internals)):
        weights = [rng.randint(0, 3) for _ in range(n_cols)]
        weights[rng.randrange(n_cols)] += 1
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return ProcessTensor.from_matrix(name, inputs, internals, outputs, tuple(rows))


@st.composite
def networks(draw):
    """0-3 nodes over up to 5 variables, each a wire between two nodes (two
    on one pair are parallel arrows), a dangling input or output, or a node
    internal."""
    n_nodes = draw(st.integers(0, 3))
    roles = [([], [], []) for _ in range(n_nodes)]
    for k in range(draw(st.integers(0, 5)) if n_nodes else 0):
        v = draw(variables(f"V{k}"))
        node = draw(st.integers(0, n_nodes - 1))
        kind = draw(st.sampled_from(("wire", "input", "internal", "output")))
        if kind == "wire" and n_nodes > 1:
            other = draw(st.integers(0, n_nodes - 2))
            roles[other + (other >= node)][0].append(v)
            roles[node][2].append(v)
        else:
            roles[node][{"input": 0, "internal": 1}.get(kind, 2)].append(v)
    return Network(tuple(draw(processes(f"n{i}", *roles[i])) for i in range(n_nodes)))


class TestProcessTensor:
    def test_shape_is_enforced(self):
        with pytest.raises(DomainError):
            ProcessTensor.from_matrix("p", (var("I"),), (), (var("O"),), ((HALF, HALF),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            ProcessTensor.from_matrix(
                "p", (var("X"),), (), (var("X"),),
                ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            )

    @pytest.mark.parametrize(
        "matrix",
        [(("1/2", "1/2"), (HALF, HALF)), ((True, False), (HALF, HALF))],
        ids=["str", "bool"],
    )
    def test_matrix_entries_must_be_ints_or_fractions(self, matrix):
        with pytest.raises(DomainError, match="ints or Fractions"):
            ProcessTensor.from_matrix("p", (var("I"),), (), (var("O"),), matrix)

    def test_row_and_col_variables(self):
        p = ProcessTensor.from_matrix(
            "p",
            (var("I"),),
            (var("X"),),
            (var("O"),),
            tuple(
                tuple(Fraction(1, 4) for _ in range(4)) for _ in range(4)
            ),
        )
        assert [v.name for v in p.row_variables] == ["I", "X"]
        assert [v.name for v in p.col_variables] == ["X", "O"]
        assert not p.is_closed

    @settings(max_examples=100, deadline=None)
    @given(processes("p", [var("I")], [var("X")], [var("O")]), st.integers(0, 2**32))
    def test_dense_round_trip_and_equality(self, p, seed):
        matrix = p.matrix
        assert ProcessTensor.from_matrix("p", p.inputs, p.internals, p.outputs, matrix) == p
        # each row over the lcm of its denominators, nonzero numerators only
        expected = []
        for row in matrix:
            common = lcm(*(e.denominator for e in row))
            entries = tuple((c, int(e * common)) for c, e in enumerate(row) if e)
            expected.append((common, entries))
        assert p.rows == tuple(expected)
        # one row replaced by a point mass, by itself reversed, or by itself
        rng = Random(seed)
        changed = [list(row) for row in matrix]
        r, c = rng.randrange(len(changed)), rng.randrange(len(changed[0]))
        point = [Fraction(0)] * len(changed[r])
        point[c] = ONE
        changed[r] = rng.choice((point, changed[r][::-1], changed[r]))
        q = ProcessTensor.from_matrix("p", p.inputs, p.internals, p.outputs, changed)
        assert (q == p) == (q.matrix == matrix)
        assert q.matrix == tuple(map(tuple, changed))

    @pytest.mark.parametrize(
        "rows",
        [
            ((2, ((1, 1), (0, 1))), (1, ((0, 1),))),  # unsorted columns
            ((2, ((0, 1), (0, 1))), (1, ((0, 1),))),  # duplicate column
            ((2, ((0, 1), (2, 1))), (1, ((0, 1),))),  # column out of range
            ((1, ((-1, 1),)), (1, ((0, 1),))),  # negative column
            ((1, ((0, 1), (1, 0))), (1, ((0, 1),))),  # zero numerator
            ((1, ((0, ONE),)), (1, ((0, 1),))),  # Fraction numerator
            ((1, ((0, 1),)),),  # one row short
            ((1, ((0, 1),)), (1, ((0, 1),)), (1, ((0, 1),))),  # one row too many
            ((1, ((0, True),)), (1, ((0, 1),))),  # bool numerator
            ((0, ((0, 1),)), (1, ((0, 1),))),  # l = 0
            ((-1, ((0, -1),)), (1, ((0, 1),))),  # l < 0
            ((True, ((0, 1),)), (1, ((0, 1),))),  # bool l
            ((2, ((0, 2),)), (1, ((0, 1),))),  # gcd(l, numerators) = 2
            ((4, ((0, 2), (1, 2))), (1, ((0, 1),))),  # gcd(l, numerators) = 2
            (((0, ONE),), ((0, ONE),)),  # rows of (column, Fraction) pairs
            ((1,), (1, ((0, 1),))),  # row without entries
            (5, (1, ((0, 1),))),  # row that is not a pair
            ((1, ((0, 1, 7),)), (1, ((0, 1),))),  # entry that is not a pair
            None,  # no rows at all
        ],
    )
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(DomainError):
            ProcessTensor("p", (var("I"),), (), (var("O"),), rows)

    def test_only_process_reads_the_dense_view(self):
        # one representation: outside `process`, only the file writer may
        # read the dense `matrix` view
        readers = []
        for path in sorted(Path(procnet.__file__).parent.glob("*.py")):
            if path.name == "process.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and (path.name, node.name) == (
                    "netfile.py",
                    "serialize_network_file",
                ):
                    allowed |= {id(n) for n in ast.walk(node)}
            readers += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "matrix"
                and id(node) not in allowed
            ]
        assert readers == []

    def test_process_rows_are_read_as_integers(self):
        # one representation: contraction, the stationary solve (its LU,
        # triangular solves and lift steps included) and the sampler build
        # no Fraction, and only `from_matrix` scales a row of Fractions;
        # every other `_scaled` call scales a distribution (once, when it is
        # built), the right-hand side of an LP or a certificate, never a
        # process row; `step` and `verify_stationary` share one integer
        # product of a distribution and the rows
        fraction_free = {
            ("process.py", "contract_network"),
            ("dynamics.py", "find_stationary"),
            ("dynamics.py", "_sampler"),
            ("dynamics.py", "_integer_product"),
            ("exactlp.py", "_lu_mod"),
            ("exactlp.py", "_triangular_solver"),
            ("exactlp.py", "_residual_divider"),
        }
        fraction_calls, scaling, scaled_rows, seen = [], [], [], set()
        for path in sorted(Path(procnet.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = []
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    functions.append((node.name, node))
                elif isinstance(node, ast.ClassDef):
                    functions += [
                        (f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    ]
            for name, function in functions:
                seen.add((path.name, name))
                for call in ast.walk(function):
                    if not isinstance(call, ast.Call):
                        continue
                    called = [call.func, *call.args]
                    named = {n.id for n in called if isinstance(n, ast.Name)}
                    if "Fraction" in named and (path.name, name) in fraction_free:
                        fraction_calls.append(f"{path.name}:{call.lineno}")
                    if "_scaled" in named:
                        # a call of `_scaled`, or a call handing it on (`map`)
                        scaling.append((path.name, name))
                        if name != "ProcessTensor.from_matrix" and any(
                            isinstance(n, ast.Attribute) and n.attr == "rows"
                            for arg in call.args
                            for n in ast.walk(arg)
                        ):
                            scaled_rows.append(f"{path.name}:{call.lineno}")
        assert fraction_free <= seen
        assert fraction_calls == []
        assert scaled_rows == []
        assert sorted(set(scaling)) == [
            ("exactlp.py", "farkas_contradiction"),
            ("exactlp.py", "feasible_point"),
            ("process.py", "ProcessTensor.from_matrix"),
            ("scenario.py", "Distribution.__post_init__"),
        ]


class TestValidateProcess:
    """The constructor checks every row, in order: a negative entry or a
    sum other than 1 is a DomainError naming the row."""

    def test_negation_process_is_stochastic(self, triangle_network):
        # the file's dense rows ((0, 1), (1, 0)), one entry over 1 each
        assert triangle_network.node("alpha").rows == ((1, ((1, 1),)), (1, ((0, 1),)))

    def test_row_summing_to_half_is_flagged(self):
        with pytest.raises(DomainError, match="^process 'bad': row 0 sums to 1/2, not 1$"):
            ProcessTensor.from_matrix(
                "bad", (var("I"),), (), (var("O"),),
                ((HALF, Fraction(0)), (HALF, HALF)),
            )

    def test_degenerate_one_by_one(self):
        p = ProcessTensor.from_matrix("unit", (), (), (), ((Fraction(1),),))
        assert p.rows == ((1, ((0, 1),)),)

    def test_negative_entry_reported(self):
        with pytest.raises(DomainError, match=r"^process 'neg': negative entry -1/2 at \(0, 1\)$"):
            ProcessTensor.from_matrix(
                "neg", (var("I"),), (), (var("O"),),
                ((Fraction(3, 2), Fraction(-1, 2)), (HALF, HALF)),
            )

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                ((1, ((0, 1),)), (2, ((0, 3), (1, -1)))),
                r"negative entry -1/2 at \(1, 1\)",
            ),
            (((3, ((0, 1), (1, 1))), (1, ((0, 1),))), "row 0 sums to 2/3, not 1"),
            (((1, ((0, 1),)), (3, ((0, 2), (1, 2)))), "row 1 sums to 4/3, not 1"),
            (((1, ()), (1, ((0, 1),))), "row 0 sums to 0, not 1"),
            # the rows are checked in order, each before the next
            (((2, ((0, 1),)), (1, ((0, -1), (1, 2)))), "row 0 sums to 1/2, not 1"),
        ],
        ids=["negative-entry", "sum-below-1", "sum-above-1", "empty-row", "in-order"],
    )
    def test_rows_that_are_not_probability_rows_are_refused(self, rows, message):
        with pytest.raises(DomainError, match=f"^process 'p': {message}$"):
            ProcessTensor("p", (var("I"),), (), (var("O"),), rows)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_matrix_accepts_exactly_the_probability_rows(self, data):
        # each row is drawn weights over their sum plus a drawn offset, so
        # rows come stochastic, negative, short, over and all zero
        i, o = data.draw(variables("I")), data.draw(variables("O"))
        matrix = []
        for _ in range(i.size):
            weights = data.draw(st.lists(st.integers(-1, 3), min_size=o.size, max_size=o.size))
            total = sum(weights) + data.draw(st.sampled_from((0, 0, -1, 1))) or 1
            matrix.append([Fraction(w, total) for w in weights])
        stochastic = all(min(row) >= 0 and sum(row) == 1 for row in matrix)
        try:
            ProcessTensor.from_matrix("p", (i,), (), (o,), matrix)
        except DomainError:
            assert not stochastic
        else:
            assert stochastic


class TestCompose:
    """Two processes joined output to input: the two-node network of the
    pair, contracted.  A shared name is the wire, so it becomes internal."""

    def test_two_relay_chain_shape_and_entries(self):
        # i -> p(internal X) -> wire F -> q(internal H) -> o
        rng = Random(5)
        i, x, f = var("I"), var("X"), var("F")
        h, o = var("H"), var("O")
        p = ProcessTensor.from_matrix(
            "p", (i,), (x,), (f,),
            random_stochastic_rows(rng, 4, 4),
        )
        q = ProcessTensor.from_matrix(
            "q", (f,), (h,), (o,),
            random_stochastic_rows(rng, 4, 4),
        )
        c = contract_network(Network((p, q)))
        assert [v.name for v in c.inputs] == ["I"]
        assert [v.name for v in c.internals] == ["X", "F", "H"]
        assert [v.name for v in c.outputs] == ["O"]
        pm, qm, cm = p.matrix, q.matrix, c.matrix
        # every entry is the product of the operand entries
        for r, (iv, xv, fv, hv) in enumerate(iter_outcome_tuples(c.row_variables)):
            for col, (xn, fn, hn, ov) in enumerate(
                iter_outcome_tuples(c.col_variables)
            ):
                p_entry = pm[2 * int(iv) + int(xv)][2 * int(xn) + int(fn)]
                q_entry = qm[2 * int(fv) + int(hv)][2 * int(hn) + int(ov)]
                assert cm[r][col] == p_entry * q_entry

    def test_negation_then_copy_all_sixteen_entries(self):
        # expected values brute-forced from the operand matrices below
        xp, y, z = var("XP"), var("Y"), var("Z")
        negation = deterministic_process(
            "negation", [xp], [y], lambda t: ("1",) if t[0] == "0" else ("0",)
        )
        relay = deterministic_process("relay", [y], [z], lambda t: t)
        c = contract_network(Network((negation, relay)))
        assert [v.name for v in c.inputs] == ["XP"]
        assert [v.name for v in c.internals] == ["Y"]
        assert [v.name for v in c.outputs] == ["Z"]
        nm, rm, cm = negation.matrix, relay.matrix, c.matrix
        for r, (xv, y_prev) in enumerate(iter_outcome_tuples(c.row_variables)):
            for col, (y_new, zv) in enumerate(iter_outcome_tuples(c.col_variables)):
                expected = nm[int(xv)][int(y_new)] * rm[
                    int(y_prev)
                ][int(zv)]
                assert cm[r][col] == expected
                # the two-step behavior: new Y negates the input, Z relays old Y
                assert cm[r][col] == (
                    1 if (y_new != xv and zv == y_prev) else 0
                )

    def test_compose_with_identity_factorizes(self):
        rng = Random(6)
        p = random_process(rng, "p", [var("I")], [var("F")])
        ident = deterministic_process("ident", [var("F")], [var("O")], lambda t: t)
        c = contract_network(Network((p, ident)))
        assert [v.name for v in c.internals] == ["F"]
        pm, cm = p.matrix, c.matrix
        for r, (iv, f_prev) in enumerate(iter_outcome_tuples(c.row_variables)):
            for col, (f_new, ov) in enumerate(iter_outcome_tuples(c.col_variables)):
                expected = pm[int(iv)][int(f_new)] * (1 if ov == f_prev else 0)
                assert cm[r][col] == expected

    def test_alphabet_mismatch_rejected(self):
        p = deterministic_process("p", [var("I")], [var("F")], lambda t: t)
        q = deterministic_process(
            "q", [Variable("F", ("a", "b", "c"))], [Variable("O", ("a", "b", "c"))],
            lambda t: t,
        )
        with pytest.raises(WiringError, match="'F' declared with different alphabets"):
            Network((p, q))

    def test_associativity_on_random_chains(self):
        # a contracted pair is a node again: grouping n1 n2 n3 either way
        # gives the same process up to the order of its variables
        rng = Random(7)
        for _ in range(10):
            n1 = random_process(rng, "n1", [var("I")], [var("F1")])
            n2 = random_process(rng, "n2", [var("F1")], [var("F2")])
            n3 = random_process(rng, "n3", [var("F2")], [var("O")])
            left = contract_network(Network((contract_network(Network((n1, n2))), n3)))
            right = contract_network(Network((n1, contract_network(Network((n2, n3))))))
            canonical = reorder_process(
                right,
                [v.name for v in left.inputs],
                [v.name for v in left.internals],
                [v.name for v in left.outputs],
            )
            assert canonical.inputs == left.inputs
            assert canonical.internals == left.internals
            assert canonical.outputs == left.outputs
            assert canonical.matrix == left.matrix

    def test_empty_link_list_is_a_parallel_product(self):
        rng = Random(16)
        p = random_process(rng, "p", [var("I")], [var("F")])
        q = random_process(rng, "q", [var("G")], [var("O")])
        c = contract_network(Network((p, q)))
        assert [v.name for v in c.inputs] == ["I", "G"]
        assert c.internals == ()
        assert [v.name for v in c.outputs] == ["F", "O"]
        pm, qm, cm = p.matrix, q.matrix, c.matrix
        for r, (iv, gv) in enumerate(iter_outcome_tuples(c.row_variables)):
            for col, (fv, ov) in enumerate(iter_outcome_tuples(c.col_variables)):
                assert cm[r][col] == pm[int(iv)][int(fv)] * qm[
                    int(gv)
                ][int(ov)]

    def test_compose_preserves_stochasticity(self):
        rng = Random(8)
        for _ in range(10):
            p = random_process(rng, "p", [var("I")], [var("F")])
            q = random_process(rng, "q", [var("F"), var("K")], [var("O")])
            c = contract_network(Network((p, q)))
            assert all(sum(a for _, a in row) == common for common, row in c.rows)

    def test_result_over_the_state_cap_is_refused(self):
        # 2^6 * 2^5 = 2048 rows once the dangling inputs of p and q are side
        # by side
        p = uniform_process("p", [var(f"I{k}") for k in range(6)], [var("F")])
        q = uniform_process("q", [var(f"J{k}") for k in range(5)], [var("O")])
        with pytest.raises(ResourceLimitError, match="state space of size 2048"):
            contract_network(Network((p, q)))


class TestNetworkWiring:
    def test_two_producers_rejected(self):
        p = deterministic_process("p", [var("I")], [var("X")], lambda t: t)
        q = deterministic_process("q", [var("J")], [var("X")], lambda t: t)
        with pytest.raises(WiringError):
            Network((p, q))

    def test_two_consumers_rejected(self):
        p = deterministic_process("p", [var("X")], [var("O")], lambda t: t)
        q = deterministic_process("q", [var("X")], [var("P")], lambda t: t)
        with pytest.raises(WiringError):
            Network((p, q))

    def test_wire_alphabets_must_agree(self):
        p = deterministic_process("p", [var("I")], [var("X")], lambda t: t)
        q = deterministic_process(
            "q",
            [Variable("X", ("a", "b"))],
            [Variable("O", ("a", "b"))],
            lambda t: t,
        )
        with pytest.raises(WiringError):
            Network((p, q))


def internal_node(name, internal="M"):
    return ProcessTensor.from_matrix(name, (), (var(internal),), (), [[ONE, 0], [0, ONE]])


def relay(name, inputs, outputs):
    return deterministic_process(name, [var(n) for n in inputs], [var(n) for n in outputs], copy)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: relay("", ["I"], ["O"]), DomainError, "process name must be a nonempty string"),
        (
            lambda: Network((relay("n", ["X"], ["Y"]), relay("n", ["Y"], ["X"]))),
            WiringError,
            "node names must be distinct",
        ),
        (
            lambda: Network((internal_node("a"), internal_node("b"))),
            WiringError,
            "internal variable 'M' appears in two nodes",
        ),
        (
            lambda: Network((internal_node("a"), relay("b", ["I"], ["M"]))),
            WiringError,
            "internal variable 'M' of 'a' collides with an arrow name",
        ),
    ],
    ids=[
        "empty-name",
        "node-names",
        "internal-twice",
        "internal-arrow",
    ],
)
def test_constructor_wiring_and_compose_refusals(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()

class TestClassify:
    def test_triangle_is_closed(self, triangle_network):
        shape = classify_network(triangle_network)
        assert shape.closed
        assert shape.dangling_inputs == ()
        assert shape.dangling_outputs == ()

    def test_open_chain_dangles(self):
        rng = Random(9)
        p = random_process(rng, "p", [var("I")], [var("F")])
        q = random_process(rng, "q", [var("F")], [var("O")])
        shape = classify_network(Network((p, q)))
        assert not shape.closed
        assert shape.dangling_inputs == ("I",)
        assert shape.dangling_outputs == ("O",)

    def test_empty_network_is_closed(self):
        assert classify_network(Network(())).closed

    def test_dangling_wires_keep_node_and_declaration_order(self):
        rng = Random(11)
        a = random_process(rng, "a", [var("I2"), var("I1")], [var("W"), var("O2")])
        b = random_process(rng, "b", [var("W"), var("I3")], [var("O1"), var("O3")])
        net = Network((a, b))
        shape = classify_network(net)
        assert not shape.closed
        assert shape.dangling_inputs == ("I2", "I1", "I3")
        assert shape.dangling_outputs == ("O2", "O1", "O3")
        g_in, g_internal, g_out = global_variable_order(net)
        assert shape.dangling_inputs == tuple(v.name for v in g_in)
        assert shape.dangling_outputs == tuple(v.name for v in g_out)
        with pytest.raises(StructureError) as info:
            analyze(NetworkFile(g_in + g_internal + g_out, net, ()))
        assert str(info.value) == (
            "network is open; dangling inputs ['I2', 'I1', 'I3'], "
            "dangling outputs ['O2', 'O1', 'O3']"
        )


class TestReciprocities:
    def test_mutual_pair(self):
        rng = Random(10)
        a = random_process(rng, "a", [var("X")], [var("Y")])
        b = random_process(rng, "b", [var("Y")], [var("X")])
        assert find_reciprocities(Network((a, b))) == (("a", "b"),)

    def test_internal_variable_is_self_reciprocity(self):
        p = ProcessTensor.from_matrix(
            "loop", (), (var("X"),), (),
            ((HALF, HALF), (HALF, HALF)),
        )
        assert find_reciprocities(Network((p,))) == (("loop", "loop"),)

    def test_directed_three_cycle_has_none(self, triangle_network):
        assert find_reciprocities(triangle_network) == ()


def random_wired_network(rng: Random) -> Network:
    """1-5 nodes, in shuffled order, over up to 6 one- or two-outcome
    variables; each is a wire between two nodes, a dangling input or output,
    or a node internal, so networks come open and closed, and wires both
    ways make a pair reciprocal."""
    n_nodes = rng.randint(1, 5)
    roles = [([], [], []) for _ in range(n_nodes)]
    for k in range(rng.randint(0, 6)):
        v = Variable(f"V{k}", BINARY[: rng.randint(1, 2)])
        node = rng.randrange(n_nodes)
        kind = rng.choice(("wire", "wire", "wire", "input", "internal", "output"))
        if kind == "wire" and n_nodes > 1:
            other = rng.randrange(n_nodes - 1)
            roles[other + (other >= node)][0].append(v)
            roles[node][2].append(v)
        else:
            roles[node][{"input": 0, "internal": 1}.get(kind, 2)].append(v)
    nodes = []
    for i, (inputs, internals, outputs) in enumerate(roles):
        for vs in (inputs, internals, outputs):
            rng.shuffle(vs)
        matrix = random_stochastic_rows(
            rng, section_count(inputs + internals), section_count(internals + outputs),
            allow_zeros=True,
        )
        nodes.append(
            ProcessTensor.from_matrix(f"n{i}", inputs, internals, outputs, matrix)
        )
    rng.shuffle(nodes)
    return Network(tuple(nodes))


def same_wiring_as_a_scan(net: Network):
    """The derived wiring, required equal to the oracle scans of the nodes."""
    order = global_variable_order(net)
    assert order == scan_global_variable_order(net)
    reciprocities = find_reciprocities(net)
    assert reciprocities == pairwise_find_reciprocities(net)
    return order, reciprocities


class TestDerivedWiring:
    def test_equal_to_a_scan_on_networks_of_every_kind(self):
        seen = Counter()
        for seed in range(300):
            net = random_wired_network(Random(seed))
            (g_in, g_internal, g_out), reciprocities = same_wiring_as_a_scan(net)
            seen["open"] += bool(g_in or g_out)
            seen["closed"] += bool(g_internal and not (g_in or g_out))
            seen["node internal"] += any(n.internals for n in net.nodes)
            seen["self pair"] += any(a == b for a, b in reciprocities)
            seen["reciprocal pair"] += any(a != b for a, b in reciprocities)
        kinds = ("open", "closed", "node internal", "self pair", "reciprocal pair")
        assert min(seen[k] for k in kinds) > 0, seen

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_equal_to_a_scan_for_any_seed(self, seed):
        same_wiring_as_a_scan(random_wired_network(Random(seed)))

    def test_the_derived_fields_stay_out_of_init_eq_and_repr(self, triangle_network):
        rebuilt = Network(triangle_network.nodes)
        assert rebuilt == triangle_network and hash(rebuilt) == hash(triangle_network)
        assert "_roles" not in repr(rebuilt) and "_links" not in repr(rebuilt)
        with pytest.raises(TypeError):
            Network(triangle_network.nodes, _roles=())


class TestContract:
    def test_triangle_matches_formula(self, triangle_sigma):
        assert [v.name for v in triangle_sigma.internals] == ["X", "Y", "Z"]
        states = list(iter_outcome_tuples(triangle_sigma.internals))
        matrix = triangle_sigma.matrix
        for r, (x1, y1, z1) in enumerate(states):
            for c, (x, y, z) in enumerate(states):
                expected = 1 if (y != x1 and z == y1 and x == z1) else 0
                assert matrix[r][c] == expected

    def test_chsh_matches_formula(self, chsh_sigma):
        assert [v.name for v in chsh_sigma.internals] == ["A1", "B1", "A2", "B2"]
        states = list(iter_outcome_tuples(chsh_sigma.internals))
        matrix = chsh_sigma.matrix
        for r, (a1p, b1p, a2p, b2p) in enumerate(states):
            for c, (a1, b1, a2, b2) in enumerate(states):
                expected = (
                    1
                    if (a1p != b1 and b1p == a2 and a2p == b2 and b2p == a1)
                    else 0
                )
                assert matrix[r][c] == expected

    def test_permutation_networks_stay_permutations(self, triangle_sigma, chsh_sigma):
        for sigma in (triangle_sigma, chsh_sigma):
            matrix = sigma.matrix
            n = len(matrix)
            for row in matrix:
                assert sum(row) == 1 and all(e in (0, 1) for e in row)
            for c in range(n):
                assert sum(matrix[r][c] for r in range(n)) == 1

    def test_single_node_contracts_to_itself(self):
        rng = Random(12)
        p = ProcessTensor.from_matrix(
            "p", (var("I"),), (var("X"),), (var("O"),),
            random_stochastic_rows(rng, 4, 4),
        )
        sigma = contract_network(Network((p,)))
        assert sigma.inputs == p.inputs
        assert sigma.internals == p.internals
        assert sigma.outputs == p.outputs
        assert sigma.matrix == p.matrix

    def test_contract_preserves_stochasticity(self):
        rng = Random(13)
        for _ in range(8):
            net = random_closed_network(rng, allow_zeros=True)
            sigma = contract_network(net)
            assert all(sum(a for _, a in row) == common for common, row in sigma.rows)

    def test_state_cap_enforced(self):
        # 2^11 states; contracting them took seconds, refusing must not
        wires = [var(f"W{k}") for k in range(11)]
        net = Network(
            tuple(
                deterministic_process(f"copy{k}", [w], [wires[(k + 1) % 11]], copy)
                for k, w in enumerate(wires)
            )
        )
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError, match="state space of size 2048 exceeds the cap of 1024"
        ):
            contract_network(net)
        assert time.perf_counter() - start < 1.0

    def test_nonzero_cap_refuses_before_any_row_is_built(self, monkeypatch):
        # the cap is read at call time, so a small one stands in for 2**18;
        # a uniform node on three wires gives 8 rows of 8 nonzeros
        wires = [var(f"W{k}") for k in range(3)]
        net = Network((uniform_process("mix", wires, [var(f"V{k}") for k in range(3)]),))
        monkeypatch.setattr(procnet.scenario, "DEFAULT_MAX_NONZEROS", 64)
        assert len(contract_network(net).rows) == 8
        monkeypatch.setattr(procnet.scenario, "DEFAULT_MAX_NONZEROS", 63)

        def build_a_row(*values):
            raise AssertionError("a row was built before the nonzero cap")

        # the row loop makes each row a tuple, and nothing before the cap
        # calls `tuple` in `process`
        monkeypatch.setattr(procnet.process, "tuple", build_a_row, raising=False)
        with pytest.raises(
            ResourceLimitError, match="global process of 64 nonzeros exceeds the cap of 63"
        ):
            contract_network(net)

    def test_global_rows_are_reduced(self):
        # (1/3, 2/3) times (1/2, 1/2) over 6: the numerators 2 share a factor
        # with 6, the numerators 1 do not, so the product is in lowest terms
        # with nothing divided out
        p = ProcessTensor("p", (var("I"),), (), (var("F"),), ((3, ((0, 1), (1, 2))),) * 2)
        q = ProcessTensor("q", (var("G"),), (), (var("O"),), ((2, ((0, 1), (1, 1))),) * 2)
        sigma = contract_network(Network((p, q)))
        assert sigma.rows == ((6, ((0, 1), (1, 1), (2, 2), (3, 2))),) * 4
        assert sigma.matrix[0] == (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3))

    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_equals_the_dense_loop(self, net):
        assert contract_network(net) == dense_contract(net)

    def test_reversing_an_open_chain_changes_only_the_variable_order(self):
        # the global entry is a product of node entries, so the node order
        # fixes only the order of the global variables
        rng = Random(7)
        for _ in range(10):
            n1 = random_process(rng, "n1", [var("I")], [var("F1")])
            n2 = ProcessTensor.from_matrix(
                "n2", (var("F1"),), (var("S"),), (var("F2"),),
                random_stochastic_rows(rng, 4, 4),
            )
            n3 = random_process(rng, "n3", [var("F2")], [var("O")])
            forward = contract_network(Network((n1, n2, n3)))
            backward = contract_network(Network((n3, n2, n1)))
            assert [v.name for v in forward.internals] == ["F1", "S", "F2"]
            assert [v.name for v in backward.internals] == ["F2", "F1", "S"]
            for left, right in ((forward, backward), (backward, forward)):
                roles = (left.inputs, left.internals, left.outputs)
                moved = reorder_process(right, *([v.name for v in vs] for vs in roles))
                assert moved.variables == left.variables
                assert moved.matrix == left.matrix

    def test_global_order_is_first_appearance(self, chsh_network):
        g_in, g_internal, g_out = global_variable_order(chsh_network)
        assert g_in == ()
        assert g_out == ()
        assert [v.name for v in g_internal] == ["A1", "B1", "A2", "B2"]


class TestRenameReorder:
    def test_reorder_internals_roundtrip(self):
        rng = Random(17)
        p = ProcessTensor.from_matrix(
            "p",
            (var("I"),),
            (var("X"), var("Y")),
            (),
            random_stochastic_rows(rng, 8, 4),
        )
        swapped = reorder_process(p, ["I"], ["Y", "X"], [])
        back = reorder_process(swapped, ["I"], ["X", "Y"], [])
        assert back.matrix == p.matrix
        # row (i, y, x) and column (y, x) of the swap read the original's
        # (i, x, y) and (x, y)
        sm, pm = swapped.matrix, p.matrix
        for i in range(2):
            for x in range(2):
                for y in range(2):
                    for xn in range(2):
                        for yn in range(2):
                            assert (
                                sm[i * 4 + y * 2 + x][yn * 2 + xn]
                                == pm[i * 4 + x * 2 + y][xn * 2 + yn]
                            )

    def test_reorder_roundtrip(self):
        rng = Random(15)
        p = ProcessTensor.from_matrix(
            "p",
            (var("I"), var("J")),
            (var("X"),),
            (var("O"),),
            random_stochastic_rows(rng, 8, 4),
        )
        swapped = reorder_process(p, ["J", "I"], ["X"], ["O"])
        back = reorder_process(swapped, ["I", "J"], ["X"], ["O"])
        assert back.matrix == p.matrix
        # row (j, i, x) of the swap reads row (i, j, x) of the original
        sm, pm = swapped.matrix, p.matrix
        for i in range(2):
            for j in range(2):
                for x in range(2):
                    assert (
                        sm[j * 4 + i * 2 + x]
                        == pm[i * 4 + j * 2 + x]
                    )


def test_a_deterministic_rule_outside_the_alphabet_names_the_outcome():
    # the builder once made an empty row for it, which the constructor
    # refused as a row summing to 0
    with pytest.raises(KeyError, match=r"\('2',\)"):
        deterministic_process("p", [var("I")], [var("O")], lambda t: ("2",))
