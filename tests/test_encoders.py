"""Encoder plans and circuits: orders, counts, depths, noise placement."""

import hashlib

import numpy as np
import pytest

from surfenc.circuit_ir import Circuit
from surfenc.code_model import CodeVariant, build_code
from surfenc.encoders import (
    Scheme,
    Target,
    build_plan,
    gadget_gates,
    generate_circuit,
    plan_to_circuit,
    scramble_plan,
)
from surfenc.stab_sim import BatchTableau, PauliString


def _find_gadget(plan, support):
    for stage in plan.stages:
        for g in stage:
            if set(g.check.support) == set(support):
                return g
    raise AssertionError(f"no gadget with support {support}")


def test_rotated_d3_fan_orders_frozen():
    code = build_code(CodeVariant.ROTATED, 3)
    ue = build_plan(code, Scheme.UE, Target.ZERO)
    g = _find_gadget(ue, {1, 2, 4, 5})
    assert g.pivot == 4 and g.order == (2, 5, 1)
    g2 = _find_gadget(ue, {0, 3})
    assert g2.pivot == 3 and g2.order == (0,)

    uea = build_plan(code, Scheme.UEA, Target.ZERO)
    assert _find_gadget(uea, {1, 2, 4, 5}).order == (1, 2, 5)

    ue_z = build_plan(code, Scheme.UE, Target.PLUS)
    gz = _find_gadget(ue_z, {0, 1, 3, 4})
    assert gz.pivot == 1 and gz.order == (3, 4, 0)
    assert _find_gadget(build_plan(code, Scheme.UEA, Target.PLUS), {0, 1, 3, 4}).order == (0, 3, 4)


def test_unrotated_d3_boundary_fan_orders_frozen():
    code = build_code(CodeVariant.UNROTATED, 3)
    ue = build_plan(code, Scheme.UE, Target.ZERO)
    # left boundary three-qubit fan: the missing arm is on the low-column side
    g = _find_gadget(ue, {0, 3, 5})
    assert g.pivot == 5 and g.order == (0, 3)
    uea = build_plan(code, Scheme.UEA, Target.ZERO)
    assert _find_gadget(uea, {0, 3, 5}).order == (3, 0)


def test_gadget_gate_direction_by_kind():
    code = build_code(CodeVariant.ROTATED, 3)
    ue = build_plan(code, Scheme.UE, Target.ZERO)
    g = _find_gadget(ue, {1, 2, 4, 5})
    assert gadget_gates(g, "X") == [(4, 2), (4, 5), (4, 1)]
    ue_z = build_plan(code, Scheme.UE, Target.PLUS)
    gz = _find_gadget(ue_z, {0, 1, 3, 4})
    assert gadget_gates(gz, "Z") == [(3, 1), (4, 1), (0, 1)]


def test_every_check_has_exactly_one_gadget_and_pivot_in_support():
    for variant in CodeVariant:
        code = build_code(variant, 5)
        for target in Target:
            plan = build_plan(code, Scheme.UE, target)
            gadgets = [g for stage in plan.stages for g in stage]
            checks = code.x_checks if plan.kind == "X" else code.z_checks
            assert len(gadgets) == len(checks)
            for g in gadgets:
                assert g.pivot in g.check.support
                assert set(g.order) | {g.pivot} == set(g.check.support)


GATE_COUNT_CASES = [
    (CodeVariant.ROTATED, Scheme.UE, lambda d: (3 * (d - 1) // 2 + 1) * (d - 1)),
    (CodeVariant.ROTATED, Scheme.UEA, lambda d: (5 * (d - 1) // 2 + 3) * (d - 1)),
    (CodeVariant.ROTATED, Scheme.ME, lambda d: 2 * d * (d - 1)),
    (CodeVariant.UNROTATED, Scheme.UE, lambda d: (3 * d - 2) * (d - 1)),
    (CodeVariant.UNROTATED, Scheme.UEA, lambda d: (5 * d - 2) * (d - 1)),
    (CodeVariant.UNROTATED, Scheme.ME, lambda d: 2 * (2 * d - 1) * (d - 1)),
]


@pytest.mark.parametrize("variant,scheme,formula", GATE_COUNT_CASES)
@pytest.mark.parametrize("d", [3, 5, 7])
def test_entangling_gate_counts(variant, scheme, formula, d):
    for target in Target:
        circ = generate_circuit(variant, d, scheme, target, 0.0)
        assert circ.gate_count == formula(d)


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("variant", list(CodeVariant))
def test_entangling_depths(variant, d):
    assert generate_circuit(variant, d, Scheme.UE, Target.ZERO, 0.0).entangling_depth == 3 * (d - 1)
    assert generate_circuit(variant, d, Scheme.UEA, Target.ZERO, 0.0).entangling_depth == 5 * (d - 1)
    assert generate_circuit(variant, d, Scheme.ME, Target.ZERO, 0.0).entangling_depth == 4


def test_unitary_total_depth_is_entangling_plus_init():
    for scheme, mult in ((Scheme.UE, 3), (Scheme.UEA, 5)):
        circ = generate_circuit(CodeVariant.ROTATED, 5, scheme, Target.ZERO, 1e-3)
        assert circ.depth == mult * 4 + 1


def test_me_total_depth_is_six():
    for variant in CodeVariant:
        circ = generate_circuit(variant, 5, Scheme.ME, Target.PLUS, 1e-3)
        assert circ.depth == 6


def test_ue_never_touches_ancillas():
    for variant in CodeVariant:
        code = build_code(variant, 5)
        circ = generate_circuit(variant, 5, Scheme.UE, Target.ZERO, 1e-3)
        data = set(code.data_ids)
        for _, instr in circ.instructions():
            assert set(instr.targets) <= data, instr


def test_uea_brackets_each_fan_with_ancilla_gates():
    code = build_code(CodeVariant.ROTATED, 3)
    plan = build_plan(code, Scheme.UEA, Target.ZERO)
    g = _find_gadget(plan, {1, 2, 4, 5})
    gates = gadget_gates(g, "X")
    assert gates[0] == (4, g.ancilla) and gates[-1] == (4, g.ancilla)
    assert gates[1:-1] == [(g.ancilla, 1), (g.ancilla, 2), (g.ancilla, 5)]
    # dual direction for the plus target
    plan_z = build_plan(code, Scheme.UEA, Target.PLUS)
    gz = _find_gadget(plan_z, {0, 1, 3, 4})
    gz_gates = gadget_gates(gz, "Z")
    assert gz_gates[0] == (gz.ancilla, 1) and gz_gates[-1] == (gz.ancilla, 1)


def _assert_encodes(variant, d, scheme, target):
    code = build_code(variant, d)
    circ = generate_circuit(variant, d, scheme, target, 0.0)
    sim = BatchTableau(circ.n_qubits, 1, np.random.default_rng(0))
    records = sim.run_circuit(circ)
    outcome = {q: bit for q, bit in records}
    n = circ.n_qubits
    measured = prepared = "X" if target is Target.ZERO else "Z"
    for check in code.x_checks + code.z_checks:
        pauli = PauliString.from_support(n, check.support, check.kind)
        want = 1
        if scheme is Scheme.ME and check.kind == measured:
            want = -1 if outcome[check.ancilla] else 1
        assert sim.expectation(pauli) == want, (check.kind, check.support)
    logical = code.logical_z if target is Target.ZERO else code.logical_x
    kind = "Z" if target is Target.ZERO else "X"
    assert sim.expectation(PauliString.from_support(n, logical, kind)) == 1
    del prepared


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("target", list(Target))
def test_noiseless_encoding_d3(variant, scheme, target):
    _assert_encodes(variant, 3, scheme, target)


def test_noiseless_encoding_d5_spot():
    _assert_encodes(CodeVariant.ROTATED, 5, Scheme.UEA, Target.ZERO)
    _assert_encodes(CodeVariant.UNROTATED, 5, Scheme.ME, Target.PLUS)


def test_uea_ancillas_disentangled_at_end():
    code = build_code(CodeVariant.ROTATED, 3)
    circ = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UEA, Target.ZERO, 0.0)
    sim = BatchTableau(circ.n_qubits, 1, np.random.default_rng(0))
    sim.run_circuit(circ)
    for check in code.x_checks:
        z_anc = PauliString.from_support(circ.n_qubits, [check.ancilla], "Z")
        assert sim.expectation(z_anc) == 1


def test_scramble_changes_exactly_one_fan_order():
    code = build_code(CodeVariant.ROTATED, 3)
    plan = build_plan(code, Scheme.UE, Target.ZERO)
    bad = scramble_plan(plan)
    diffs = []
    for s_orig, s_bad in zip(plan.stages, bad.stages):
        for g_orig, g_bad in zip(s_orig, s_bad):
            if g_orig.order != g_bad.order:
                diffs.append((g_orig, g_bad))
            else:
                assert g_orig == g_bad
    assert len(diffs) == 1
    g_orig, g_bad = diffs[0]
    assert sorted(g_orig.order) == sorted(g_bad.order)
    assert g_orig.order[0] == g_bad.order[0]


def test_scramble_rejects_non_ue():
    code = build_code(CodeVariant.ROTATED, 3)
    with pytest.raises(ValueError):
        scramble_plan(build_plan(code, Scheme.ME, Target.ZERO))


def test_scrambled_circuit_still_encodes_noiselessly():
    # the sabotage only reorders commuting gates, so the p=0 state is intact
    code = build_code(CodeVariant.ROTATED, 3)
    plan = scramble_plan(build_plan(code, Scheme.UE, Target.ZERO))
    circ = plan_to_circuit(plan, 0.0)
    sim = BatchTableau(circ.n_qubits, 1, np.random.default_rng(0))
    sim.run_circuit(circ)
    for check in code.x_checks + code.z_checks:
        pauli = PauliString.from_support(circ.n_qubits, check.support, check.kind)
        assert sim.expectation(pauli) == 1


def test_noise_placement():
    circ = generate_circuit(CodeVariant.ROTATED, 3, Scheme.ME, Target.ZERO, 1e-3)
    for layer in circ.layers:
        for idx, instr in enumerate(layer):
            if instr.name == "CX":
                chaser = layer[idx + 1]
                assert chaser.name == "DEPOLARIZE2"
                assert chaser.targets == instr.targets
                assert chaser.arg == 1e-3
            elif instr.name == "R":
                assert any(
                    other.name == "X_ERROR" and set(instr.targets) <= set(other.targets)
                    for other in layer
                )
            elif instr.name == "RX":
                assert any(
                    other.name == "Z_ERROR" and set(instr.targets) <= set(other.targets)
                    for other in layer
                )
    # final measurement layer carries no noise at all
    last = circ.layers[-1]
    assert all(i.name in ("M", "MX") for i in last)


def test_noise_instructions_present_even_at_zero_strength():
    circ = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 0.0)
    names = {instr.name for _, instr in circ.instructions()}
    assert "DEPOLARIZE2" in names and "X_ERROR" in names


def test_metadata_fields():
    circ = generate_circuit("unrotated", 5, "uea", "plus", 2e-3)
    md = circ.metadata
    assert md["variant"] == "unrotated"
    assert md["distance"] == "5"
    assert md["scheme"] == "uea"
    assert md["target"] == "plus"
    assert md["p"] == repr(2e-3)
    assert "scrambled" not in md
    scr = generate_circuit("rotated", 3, "ue", "zero", 0.0, scrambled=True)
    assert scr.metadata["scrambled"] == "true"


def test_generate_circuit_input_validation():
    with pytest.raises(ValueError):
        generate_circuit("rotated", 4, "ue", "zero", 0.0)
    with pytest.raises(ValueError):
        generate_circuit("rotated", 3, "nope", "zero", 0.0)
    with pytest.raises(ValueError):
        generate_circuit("rotated", 3, "ue", "diag", 0.0)
    with pytest.raises(ValueError):
        generate_circuit("rotated", 3, "ue", "zero", 1.5)


def test_noise_strength_is_stored_as_a_python_float():
    # a numpy float writes the same text as the equal float, which parses back
    text = generate_circuit("rotated", 3, "ue", "zero", 1e-3).to_text()
    numpy_text = generate_circuit("rotated", 3, "ue", "zero", np.float64(1e-3)).to_text()
    assert numpy_text == text
    assert Circuit.from_text(numpy_text).to_text() == text
    for bad in (True, "1e-3", None):
        with pytest.raises(ValueError, match="real number"):
            generate_circuit("rotated", 3, "ue", "zero", bad)


# the largest doubled-grid L1 distance between the two qubits of a CX, per
# variant and scheme: the same at every distance
_CX_REACH = {
    ("rotated", "ue"): 4,
    ("rotated", "uea"): 2,
    ("rotated", "me"): 2,
    ("unrotated", "ue"): 2,
    ("unrotated", "uea"): 1,
    ("unrotated", "me"): 1,
}


@pytest.mark.parametrize("variant, scheme", sorted(_CX_REACH))
def test_gates_are_geometrically_local(variant, scheme):
    for d in (3, 5, 7, 9, 11):
        code = build_code(variant, d)
        for target in Target:
            circuit = generate_circuit(variant, d, scheme, target, 0.0)
            reach = max(
                abs(code.qubits[a].row - code.qubits[b].row)
                + abs(code.qubits[a].col - code.qubits[b].col)
                for _, instr in circuit.instructions()
                if instr.name == "CX"
                for a, b in instr.sites()
            )
            assert reach == _CX_REACH[variant, scheme], (d, target)


# sha256 of generate_circuit(variant, d, scheme, target, 1e-3, scrambled).to_text(),
# keyed by (variant, scheme, target, d, scrambled): the emitted bytes, layer
# order and reset groups included, are part of every seeded result.  Frozen
# anew when each CNOT slot became one CX and one DEPOLARIZE2 instruction;
# test_circuit_sites_are_frozen shows that only the grouping moved.
FROZEN_CIRCUIT_DIGESTS = {
    ("rotated", "ue", "zero", 3, False): "1007ea9dfa17d5aecbf759888c2645e964b30ea6e4b3588bae5fc4aea4c52408",
    ("rotated", "ue", "zero", 5, False): "125f03e227704b33983d7f27576c53928bfa653790aef6d7aba7edba043f1f9e",
    ("rotated", "ue", "plus", 3, False): "d1a1983ad9e94e53901455e3ea584e16a2d9cbfb813d82fd411e921ea58451e2",
    ("rotated", "ue", "plus", 5, False): "00408e938471cf28b014ca9ef4a0c7b026d3d0f324b580b5922162a4b7bf58e8",
    ("rotated", "uea", "zero", 3, False): "98fb82e14fd3c475a3c1ec54175ae46287f9d4429ec8efd700c0043eb8f6ef86",
    ("rotated", "uea", "zero", 5, False): "3cb0662fc0eadb708072864f833e90b6d55232dff8df5f8a8dea488524ab219f",
    ("rotated", "uea", "plus", 3, False): "1c2f9a54aa3d4f9acd304f89569697cc67a209a4202ac286ef732f14969c0d52",
    ("rotated", "uea", "plus", 5, False): "1e915ea992c97b55a668ea589e8a0cdc91a7bc4713ea0d1b1b11e3dc098af9ad",
    ("rotated", "me", "zero", 3, False): "528022f3336a47ee555a9cda93813fc0553159b83da0710977926e0823d79e9b",
    ("rotated", "me", "zero", 5, False): "7f234d83a1f9edb1bea1effdbbd83764e031623e041fdcb3ebfaeef63217424a",
    ("rotated", "me", "plus", 3, False): "29dd0ff4ea082be0234f0b89581074bc17a5c8d48b1fb65dbfb5e0f9ecad8292",
    ("rotated", "me", "plus", 5, False): "632cefdcb43330c353a8e55b05af3eb056382a1a7e14e6f9d511ea8f8ba94839",
    ("unrotated", "ue", "zero", 3, False): "193793855ec5f64e001c14c6cc4646215cd2892de51509580fe146742440bb3f",
    ("unrotated", "ue", "zero", 5, False): "594259b3fea7bdca347d3932179e012a48f2c3bd19ac810ae09d2a2eae4b8c44",
    ("unrotated", "ue", "plus", 3, False): "d27c0ed2bcd096fc34eb39bbcbd85c1638235a57edfaf93ff86643cd13cf1073",
    ("unrotated", "ue", "plus", 5, False): "190cb7c91cc6a5fcf0a99f2c80b5f8692b4c45c888b7a0b25d135fbb24caaa89",
    ("unrotated", "uea", "zero", 3, False): "a6e603050dd57d6e4f7854bb32176a85ab124527e2a615ed3f9d45a1f06fa698",
    ("unrotated", "uea", "zero", 5, False): "d92e4684093c2fd6370a64a49f21051a56f233ee2f59ef47f767b88ba9b180c6",
    ("unrotated", "uea", "plus", 3, False): "0bebeee5db0c072adcc77712dddd90bd9cdccb7b4a6ca4cb64c227a84b3e1bbd",
    ("unrotated", "uea", "plus", 5, False): "4f6b130c7220045cdb394ea6330eef29d9ea543f5fda681490fdb991fb0fabf7",
    ("unrotated", "me", "zero", 3, False): "c9fc7ed08b9f5dd4e7e78e0d8c5e6f40220deffb3d4dc594ddb309ac50f8e688",
    ("unrotated", "me", "zero", 5, False): "f72eab53832713793de05346d2e0f0724d4bcfd396ff03f54b6c95ab02313ed4",
    ("unrotated", "me", "plus", 3, False): "a6fc1396e28c278b0cc4c51557ca702b44e68303200c0ce865c6c8b2adefa8f8",
    ("unrotated", "me", "plus", 5, False): "0e771b5e26e88ff2ccd79083f9002933d8f7d6ba864816202f97f79501527ca5",
    ("rotated", "ue", "zero", 3, True): "b209fe7c5d0fd90f4e6470f9c2687e65462d6894c00ec9745a18bb57a8dc4e0f",
    ("rotated", "ue", "zero", 5, True): "51d0f45824398a9867bd8af964e6438cea046e52c58aebf4bcc3d947646b4af5",
    ("rotated", "ue", "plus", 3, True): "37c16e4464f31795cf433051c0bbec1a5e7ad20a47b0cacc131905bebb389a66",
    ("rotated", "ue", "plus", 5, True): "8552339d90b97adce84b1b73cdfb98dec7baa8976df809e8394a95c9f7b2f382",
    ("unrotated", "ue", "zero", 3, True): "9d85ed7dce98795e9163d813bcfccde661b1cb7abad31fbbcc5eddfeb069042b",
    ("unrotated", "ue", "zero", 5, True): "a2006cd6f1c7e7c9cee1bd39a2619203357ce59fa801a271625443fbae08eb25",
    ("unrotated", "ue", "plus", 3, True): "e4b6e80c253863d3ff811004278d77796b7abeb6f51882051c54aed5fa235513",
    ("unrotated", "ue", "plus", 5, True): "c8df7fee9a8f96035e50bf6110bc4e520cb13868bd67c8d76a533d2220c032f1",
}


@pytest.mark.parametrize(
    "key",
    sorted(FROZEN_CIRCUIT_DIGESTS),
    ids=lambda k: "-".join(map(str, k[:4])) + ("-scrambled" if k[4] else ""),
)
def test_circuit_text_is_frozen(key):
    variant, scheme, target, d, scrambled = key
    text = generate_circuit(variant, d, scheme, target, 1e-3, scrambled=scrambled).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_CIRCUIT_DIGESTS[key]


def test_circuit_sites_are_frozen():
    # one sha256 over every site of the FROZEN_CIRCUIT_DIGESTS circuits as
    # (layer, name, arg, site), ordered by layer and name and otherwise in
    # circuit order: it stays put when a layer's sites move between
    # instructions, and changes when a site, its layer, its channel or the
    # order of one channel's sites does (frozen when every CNOT was its own
    # CX and its own DEPOLARIZE2)
    digest = hashlib.sha256()
    for key in sorted(FROZEN_CIRCUIT_DIGESTS):
        variant, scheme, target, d, scrambled = key
        circuit = generate_circuit(variant, d, scheme, target, 1e-3, scrambled=scrambled)
        sites = [
            (k, instr.name, instr.arg, site)
            for k, instr in circuit.instructions()
            for site in instr.sites()
        ]
        digest.update(repr((key, sorted(sites, key=lambda s: s[:2]))).encode())
    assert digest.hexdigest() == "612ecf3477540a3237aafc83bae5f5e78335d02c73f07acc9529476b497d6294"
