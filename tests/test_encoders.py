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
# order and reset groups included, are part of every seeded result
FROZEN_CIRCUIT_DIGESTS = {
    ("rotated", "ue", "zero", 3, False): "03d7402c516550855a4be36a601abf6d36fe8969036e1ca586c58cff03dd9ff2",
    ("rotated", "ue", "zero", 5, False): "5233ce0c0ec47bb9bb7785177a7eb26161454cfaf49569db73ca740a70685013",
    ("rotated", "ue", "plus", 3, False): "77ccf13cf4cecc20c55a12e2af5bae1dcd2c81f9992f987108ec208f82f6fd38",
    ("rotated", "ue", "plus", 5, False): "fd5808e938304313ce3fdb052789830e460a75e51d9659f0b2987218bff1c1b2",
    ("rotated", "uea", "zero", 3, False): "e2dc6f19b4f25a9653bc9185580aee444cde0e71f1210d567921afe56ac30fa2",
    ("rotated", "uea", "zero", 5, False): "a4f719b1eef92610aa3bd06895323f81e9f10c9cc80ed02babf3b4d45cffba26",
    ("rotated", "uea", "plus", 3, False): "0bb496dbc2013d95a94650c536161e0e14141b5b24771dc6f7d5beee56cec866",
    ("rotated", "uea", "plus", 5, False): "d6ec3a64a7284ea16d7cd3a10e5b64c24714c630e07d7113bd6826481918c997",
    ("rotated", "me", "zero", 3, False): "0086d06093dc86d5d8ad0adc0e4e24e80fe1c6f86f135fc47415ba716ab877b8",
    ("rotated", "me", "zero", 5, False): "ac5642012db0580342166cac5c5674d5a848c03ae620cdbc5b48ea53c6327fc7",
    ("rotated", "me", "plus", 3, False): "b65e5cdc97b415c960468ce5f76a6c83f5c77631a9bf5f3445fc61daddb28e56",
    ("rotated", "me", "plus", 5, False): "c9225aa68b8dfe0e2ce06f50f689911c5ef5846821d02157fe250b2716f600ca",
    ("unrotated", "ue", "zero", 3, False): "389bac2b60f0bd4b20f22b2c0e6012e66a9a1887b56fa035e5db9c25a7e307d9",
    ("unrotated", "ue", "zero", 5, False): "00db49e82e1ab15f8fd2e2ba3eb15b8493c4b5cda442be36001a712d9133db73",
    ("unrotated", "ue", "plus", 3, False): "e4dbe465a60c3d1d0d81894faf5843e47a159066aeb7806990088f084378388e",
    ("unrotated", "ue", "plus", 5, False): "f6e84351a84fd1700617d112e97087f15ebff7a2944cdafd8d71113716bf4a31",
    ("unrotated", "uea", "zero", 3, False): "9ae1680baccb0b0b9871c84096e55a3c82c3b4e9b9a6b5a2c666bf8e32b6632d",
    ("unrotated", "uea", "zero", 5, False): "06f572e4897b62ada893985357cb35dcdf71b6d62b3d130750c7c615263d251e",
    ("unrotated", "uea", "plus", 3, False): "d8c5c2402edec06be61e7f1a30390bac1d1c300f08f834588aeafa818da1777b",
    ("unrotated", "uea", "plus", 5, False): "8ff1bee19ee17a891f2d7c7a92376fb918e4f6b12a476aa29fbdfbf2dddfd13c",
    ("unrotated", "me", "zero", 3, False): "4499b2ee59d7c8fb57aa96768935094e8a5707cc0a60b0a2d0db14a3c635f16a",
    ("unrotated", "me", "zero", 5, False): "954636e74f24abf46d52382990b81f2bfcccb176d4ff123d55e1327e5c14055d",
    ("unrotated", "me", "plus", 3, False): "350302f283dc3f9a9f4d22a2a3696eded694da82334af41a8a97ce028921584e",
    ("unrotated", "me", "plus", 5, False): "0693990f83bd7d5e814c06a6d163847abe41e21e3843c04d229cb9e0534afeab",
    ("rotated", "ue", "zero", 3, True): "fba67d2f130304ca507ea0de8d9d33147c2f076e596f017b12a2f088b9ca0c66",
    ("rotated", "ue", "zero", 5, True): "f9e89b2b2ad4334222b579ffd7908016d38419646029e44ca1379e2a531548d6",
    ("rotated", "ue", "plus", 3, True): "9255c88b7797a6a9a6ec389238cb95dc86c5552ee4c7c11a96842af09ae61797",
    ("rotated", "ue", "plus", 5, True): "a3b5a0c89bdcec02f86848b2f54a2ccebd187dd51ed025b7c3efa2c8dde65dcc",
    ("unrotated", "ue", "zero", 3, True): "f8b63b0c7a08211fefb823452b76f2dd6701c53e9af56a7329c6e3b61e27f92a",
    ("unrotated", "ue", "zero", 5, True): "e84360528a6afc3c2b4d9ef127999fbc9b99c574aacbe469752e77cf263efe38",
    ("unrotated", "ue", "plus", 3, True): "90628ff0c6607510b51b96b9a0e70179b4cf6fbe15f34eec5a1756ea17b81fa6",
    ("unrotated", "ue", "plus", 5, True): "994d1fac1fbe54190d2801566cee61ce681879210f954db5c7a7fa6a7ece2753",
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
