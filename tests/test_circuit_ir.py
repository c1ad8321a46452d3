import pytest

from surfenc.circuit_ir import CHANNELS, KNOWN_NAMES, NOISE_NAMES, Circuit, Instruction


def cx(*targets):
    return Instruction("CX", targets)


def test_instruction_validation():
    with pytest.raises(ValueError):
        Instruction("CZ", (0, 1))
    with pytest.raises(ValueError):
        Instruction("CX", (0, 1, 2))
    with pytest.raises(ValueError):
        Instruction("X_ERROR", (0,))  # missing probability
    with pytest.raises(ValueError):
        Instruction("X_ERROR", (0,), 1.5)
    with pytest.raises(ValueError):
        Instruction("M", (0,), 0.1)  # measurements take no argument
    with pytest.raises(ValueError):
        Instruction("R", ())


@pytest.mark.parametrize("name", ["CX", "DEPOLARIZE2"])
def test_a_pair_must_not_repeat_a_qubit(name):
    arg = 0.1 if name == "DEPOLARIZE2" else None
    with pytest.raises(ValueError, match=r"the pair \(2, 2\) repeats a qubit"):
        Instruction(name, (0, 1, 2, 2), arg)
    text = f"# qubits: 3\nCX 0 1\n{name}{'(0.1)' if arg else ''} 0 1 2 2\n"
    with pytest.raises(ValueError, match=r"^line 3: .*repeats a qubit"):
        Circuit.from_text(text)


@pytest.mark.parametrize("name", sorted(KNOWN_NAMES))
def test_n_sites_counts_the_sites(name):
    arg = 0.1 if name in NOISE_NAMES else None
    for targets in ((0, 1), (0, 1, 2, 3), (5, 1, 4, 2, 0, 3)):
        instr = Instruction(name, targets, arg)
        assert instr.n_sites == len(instr.sites())


def test_layer_exclusivity():
    Circuit(3, [[cx(0, 1), Instruction("R", (2,))]])
    with pytest.raises(ValueError):
        Circuit(3, [[cx(0, 1), cx(1, 2)]])
    # noise is exempt: annotates the gate rather than occupying the slot
    Circuit(4, [[cx(0, 1), Instruction("DEPOLARIZE2", (0, 1), 0.01), cx(2, 3)]])


def test_target_bounds():
    with pytest.raises(ValueError):
        Circuit(2, [[cx(0, 2)]])


def test_counters():
    c = Circuit(
        4,
        [
            [Instruction("R", (0, 1, 2, 3)), Instruction("X_ERROR", (0, 1, 2, 3), 0.0)],
            [cx(0, 1), Instruction("DEPOLARIZE2", (0, 1), 0.0), cx(2, 3)],
            [cx(1, 2)],
            [Instruction("Z_ERROR", (0,), 0.5)],
            [Instruction("M", (0, 1))],
        ],
    )
    assert c.gate_count == 3
    assert c.entangling_depth == 2
    assert c.depth == 4  # noise-only layer does not count


def test_multi_pair_cx_counts_pairwise():
    c = Circuit(4, [[Instruction("CX", (0, 1, 2, 3))]])
    assert c.gate_count == 2
    assert c.entangling_depth == 1


def test_text_roundtrip():
    c = Circuit(
        3,
        [
            [Instruction("RX", (0,)), Instruction("Z_ERROR", (0,), 0.001)],
            [cx(0, 1), Instruction("DEPOLARIZE2", (0, 1), 0.001)],
            [Instruction("MX", (0,))],
        ],
        metadata={"scheme": "ue", "distance": "3"},
    )
    text = c.to_text()
    assert "# qubits: 3" in text
    assert "DEPOLARIZE2(0.001) 0 1" in text
    assert text.count("TICK") == 2
    back = Circuit.from_text(text)
    assert back == c


def test_probability_formatting_survives_roundtrip():
    # repr keeps the float exact, so parsing returns the same bits
    p = 0.1 + 0.2
    c = Circuit(1, [[Instruction("R", (0,)), Instruction("X_ERROR", (0,), p)]])
    back = Circuit.from_text(c.to_text())
    assert back.layers[0][1].arg == p


def test_parse_errors():
    with pytest.raises(ValueError):
        Circuit.from_text("R 0\n")  # missing qubits header
    with pytest.raises(ValueError):
        Circuit.from_text("# qubits: 2\nBADTOKEN 0\n")
    with pytest.raises(ValueError):
        Circuit.from_text("# qubits 2\nR 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("# qubits: x\nR 0\n", r"^line 1: invalid literal for int\(\) with base 10: 'x'"),
        ("# qubits: 2\nR 0\nX_ERROR(1.5) 0\n", r"^line 3: X_ERROR: probability"),
        ("# qubits: 2\nX_ERROR(p) 0\n", r"^line 2: could not convert"),
        ("# qubits: 2\n\nCX 0 1 1\n", r"^line 3: CX: targets must come in pairs"),
        ("# qubits: 2\nM(0.5) 0\n", r"^line 2: M: takes no argument"),
        ("# qubits: 2\nCX 0 1\nDEPOLARIZE2(0.1) 0 0\n", r"^line 3: DEPOLARIZE2: the pair"),
        ("# qubits: 2\nCX 0 5\n", r"^line 2: layer 0: target 5 outside 0\.\.1"),
        ("# qubits: 3\nCX 0 1\nR 1\n", r"^line 3: layer 0: qubit 1 touched by two"),
        ("# qubits: 3\nCX 0 1 1 2\n", r"^line 2: layer 0: qubit 1 touched twice by one CX$"),
        ("# qubits: 2\n# qubits: 3\nCX 0 2\n", r"^line 2: repeated '# qubits' header"),
        ("R 0\n# qubits: 0\n", r"^line 2: n_qubits must be positive"),
        (
            "# qubits: 2\n# variant: rotated\n# variant: unrotated\nR 0\n",
            r"^line 3: repeated '# variant' header",
        ),
    ],
    ids=[
        "qubits", "probability", "float", "odd", "argument", "repeat",
        "bounds", "exclusive", "exclusive-within", "header-twice", "zero-qubits", "metadata-twice",
    ],
)
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=message):
        Circuit.from_text(text)


def test_channels_list_distinct_paulis_that_match_their_labels():
    assert NOISE_NAMES == set(CHANNELS)
    for name, bases in CHANNELS.items():
        width = len(bases[0][0])
        assert all(len(label) == width for label, _, _ in bases), name
        for label, x, z in bases:
            assert 0 < (x | z) < 1 << width, (name, label)
            for i, letter in enumerate(label):
                assert letter == "IXZY"[(x >> i & 1) + 2 * (z >> i & 1)], (name, label)
        assert len({(x, z) for _, x, z in bases}) == len(bases), name
    pairs = {label for label, _, _ in CHANNELS["DEPOLARIZE2"]}
    assert pairs == {a + b for a in "IXYZ" for b in "IXYZ"} - {"II"}
    assert CHANNELS["X_ERROR"] == (("X", 1, 0),)
    assert CHANNELS["Z_ERROR"] == (("Z", 0, 1),)


def test_instructions_iterator_order():
    c = Circuit(2, [[cx(0, 1)], [Instruction("M", (0,)), Instruction("M", (1,))]])
    seq = [(k, i.name) for k, i in c.instructions()]
    assert seq == [(0, "CX"), (1, "M"), (1, "M")]
