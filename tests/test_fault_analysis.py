"""Fault enumeration: reverse images vs forward propagation, hooks, reports."""

import dataclasses
import functools
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from surfenc.circuit_ir import Circuit, Instruction
from surfenc.code_model import CodeVariant, build_code
from surfenc.encoders import (
    Scheme,
    Target,
    build_plan,
    gadget_gates,
    generate_circuit,
    scramble_plan,
)
from surfenc.decoder import CheckMatrix, SyndromeDecoder
from surfenc.cli import main
from surfenc.fault_analysis import (
    FailingCombinations,
    HookFault,
    analyze_faults,
    backward_images,
    hook_catalogue,
)
from surfenc.harness import _PointEngine
from surfenc.stab_sim import PauliString


def _residuals(circuit):
    """The fault table with unit-mask images: res_x and res_z are residual masks."""
    unit = [1 << q for q in range(circuit.n_qubits)]
    return backward_images(circuit, (unit, unit))


def _forward_sites(circuit):
    """Independent re-derivation of the fault site list and insertion points."""
    flat = list(circuit.instructions())
    sites = []
    for pos, (layer, instr) in enumerate(flat):
        if instr.name == "DEPOLARIZE2":
            for pair in instr.sites():
                sites.append((layer, instr.name, pair, pos))
        elif instr.name in ("X_ERROR", "Z_ERROR"):
            for q in instr.targets:
                sites.append((layer, instr.name, (q,), pos))
    return flat, sites


def _forward_residual(circuit, flat, pos, qubits, basis):
    n = circuit.n_qubits
    x0 = z0 = 0
    for q, letter in zip(qubits, basis):
        if letter in ("X", "Y"):
            x0 |= 1 << q
        if letter in ("Z", "Y"):
            z0 |= 1 << q
    pauli = PauliString(n, x0, z0)
    for _, instr in flat[pos + 1 :]:
        if instr.name == "M":
            keep = pauli.z
            for q in instr.targets:
                keep &= ~(1 << q)
            pauli = PauliString(n, pauli.x, keep)
        elif instr.name == "MX":
            keep = pauli.x
            for q in instr.targets:
                keep &= ~(1 << q)
            pauli = PauliString(n, keep, pauli.z)
        else:
            pauli = pauli.propagate(instr)
    return pauli.x, pauli.z


@pytest.mark.parametrize(
    "variant,scheme,target",
    [
        (CodeVariant.ROTATED, Scheme.UEA, Target.ZERO),
        (CodeVariant.ROTATED, Scheme.ME, Target.ZERO),
        (CodeVariant.UNROTATED, Scheme.UE, Target.PLUS),
        (CodeVariant.UNROTATED, Scheme.ME, Target.PLUS),
    ],
)
def test_backward_images_match_forward_propagation(variant, scheme, target):
    circuit = generate_circuit(variant, 3, scheme, target, 1e-3)
    table = _residuals(circuit)
    flat, sites = _forward_sites(circuit)

    by_site: dict[int, list] = {}
    for f, i in enumerate(table.site):
        by_site.setdefault(i, []).append(f)
    assert len(by_site) == len(sites) == len(table.sites)
    assert table.site == sorted(table.site)

    for idx, (layer, channel, qubits, pos) in enumerate(sites):
        group = by_site[idx]
        assert table.sites[idx] == (layer, channel, qubits)
        assert len(group) == (15 if channel == "DEPOLARIZE2" else 1)
        for f in group:
            want = _forward_residual(circuit, flat, pos, qubits, table.basis[f])
            assert (table.res_x[f], table.res_z[f]) == want, table.describe(f)


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("target", list(Target))
@pytest.mark.parametrize("complementary", [False, True])
def test_key_space_pass_gives_syndrome_and_parity(variant, scheme, target, complementary):
    # the pass in a check matrix's key space equals the unit-mask residuals
    # judged one by one through that matrix
    code = build_code(variant, 3)
    circuit = generate_circuit(variant, 3, scheme, target, 1e-3)
    matrix = CheckMatrix.of(code, target, scheme, complementary)
    m = len(matrix.rows)
    want = []
    plain = _residuals(circuit)
    for x, z in zip(plain.res_x, plain.res_z):
        res = matrix.read(x, z)
        want.append(matrix.syndrome(res) | matrix.logical_parity(res) << m)
    keyed = backward_images(circuit, matrix.key_images(circuit.n_qubits))
    assert (keyed.sites, keyed.site, keyed.basis) == (plain.sites, plain.site, plain.basis)
    assert list(map(matrix.read, keyed.res_x, keyed.res_z)) == want
    assert any(key >> m for key in want) and any(key & ((1 << m) - 1) for key in want)
    if not complementary:
        # the Monte Carlo's key words hold the same keys
        engine = _PointEngine(variant.value, scheme.value, target.value, 3, 1e-3)
        words = np.ascontiguousarray(engine.keys.T)
        assert [int.from_bytes(row.tobytes(), "little") for row in words] == want


def test_single_qubit_flip_sites_have_matching_basis():
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    table = _residuals(circuit)
    for i, basis in zip(table.site, table.basis):
        _, channel, _ = table.sites[i]
        if channel == "X_ERROR":
            assert basis == "X"
        elif channel == "Z_ERROR":
            assert basis == "Z"
        else:
            assert len(basis) == 2 and basis != "II"


def test_site_description_format():
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    table = _residuals(circuit)
    layer, channel, qubits = table.sites[table.site[0]]
    qs = ",".join(map(str, qubits))
    assert table.describe(0) == f"L{layer}:{channel}({qs}):{table.basis[0]}"


def test_check_matrix_me_includes_outcome_bits():
    code = build_code(CodeVariant.ROTATED, 3)
    comp = CheckMatrix.of(code, Target.ZERO, Scheme.ME, complementary=True)
    assert comp.axis == "Z"
    for check, mask in zip(code.x_checks, comp.rows):
        assert mask >> check.ancilla & 1
    prot = CheckMatrix.of(code, Target.ZERO, Scheme.ME)
    for check, mask in zip(code.z_checks, prot.rows):
        assert not mask >> check.ancilla & 1


def test_check_matrix_unitary_has_no_outcome_bits():
    code = build_code(CodeVariant.ROTATED, 3)
    comp = CheckMatrix.of(code, Target.ZERO, Scheme.UE, complementary=True)
    for check, mask in zip(code.x_checks, comp.rows):
        assert not mask >> check.ancilla & 1


def test_single_faults_clean_at_d3():
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    code = build_code(CodeVariant.ROTATED, 3)
    report = analyze_faults(circuit, code, Target.ZERO, Scheme.UE, max_weight=1)
    assert report.failing_combinations == []
    assert report.certified_fault_distance_lower_bound == 2
    assert report.n_basis_faults > report.n_sites
    assert "no failures" in report.summary()


def test_scrambled_single_faults_fail_at_d3():
    circuit = generate_circuit(
        CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3, scrambled=True
    )
    code = build_code(CodeVariant.ROTATED, 3)
    report = analyze_faults(circuit, code, Target.ZERO, Scheme.UE, max_weight=1)
    assert len(report.failing_combinations) > 0
    assert report.certified_fault_distance_lower_bound == 1
    for combo in report.failing_combinations:
        assert len(combo) == 1


def test_fault_pairs_break_d3_but_not_singles():
    # two independent faults exceed what distance 3 can absorb
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    code = build_code(CodeVariant.ROTATED, 3)
    report = analyze_faults(circuit, code, Target.ZERO, Scheme.UE, max_weight=2)
    assert len(report.failing_combinations) > 0
    assert report.certified_fault_distance_lower_bound == 2
    assert all(len(combo) == 2 for combo in report.failing_combinations)


def _failing_by_plain_loop(circuit, code, target, scheme, complementary):
    """Every single fault, then every distinct-site pair, judged one by one."""
    matrix = CheckMatrix.of(code, target, scheme, complementary)
    decoder = SyndromeDecoder(code, matrix.target.value)
    table = _residuals(circuit)
    faults = range(len(table.site))
    rx, rz, site = table.res_x, table.res_z, table.site
    # one call per distinct syndrome: decode_syndrome answers through the
    # decoder's array path, microseconds a call even from its cache
    correction_parity = functools.cache(decoder.decode_syndrome)

    def fails(x, z):
        res = matrix.read(x, z)
        return matrix.logical_parity(res) ^ correction_parity(matrix.syndrome(res))

    failing = [(table.describe(a),) for a in faults if fails(rx[a], rz[a])]
    for a in faults:
        for b in faults[a + 1 :]:
            if site[a] != site[b] and fails(rx[a] ^ rx[b], rz[a] ^ rz[b]):
                failing.append((table.describe(a), table.describe(b)))
    return failing


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("complementary", [False, True])
def test_pair_classes_equal_a_plain_loop_over_pairs(variant, scheme, complementary):
    code = build_code(variant, 3)
    for target in Target:
        circuit = generate_circuit(variant, 3, scheme, target, 1e-3)
        report = analyze_faults(
            circuit, code, target, scheme, max_weight=2, complementary=complementary
        )
        want = _failing_by_plain_loop(circuit, code, target, scheme, complementary)
        assert any(len(c) == 2 for c in want)
        assert report.failing_combinations == want


@pytest.fixture(scope="module")
def pair_report():
    """A d=3 pair report with failing singles and pairs, and the plain loop's list."""
    variant, scheme, target = CodeVariant.ROTATED, Scheme.UE, Target.ZERO
    code = build_code(variant, 3)
    circuit = generate_circuit(variant, 3, scheme, target, 1e-3, scrambled=True)
    report = analyze_faults(circuit, code, target, scheme, max_weight=2)
    want = _failing_by_plain_loop(circuit, code, target, scheme, False)
    assert {len(c) for c in want} == {1, 2}
    return report, want


def test_failing_combinations_read_as_the_list(pair_report):
    report, want = pair_report
    view = report.failing_combinations
    assert isinstance(view, FailingCombinations)
    assert len(view) == len(want) and list(view) == want
    assert view == want and want == view and view != want[:-1] and view != tuple(want)
    assert repr(view) == repr(want)
    assert repr(report) == repr(dataclasses.replace(report, failing_combinations=want))
    assert report.certified_fault_distance_lower_bound == 1
    n = len(want)
    for index in (0, 1, n // 2, n - 1, -1, -2, -n):
        assert view[index] == want[index], index
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            view[index]
    with pytest.raises(TypeError):
        view["0"]
    cuts = [slice(None), slice(2, 9), slice(-5, None), slice(None, None, -3), slice(n, n + 4)]
    for cut in cuts:
        assert view[cut] == want[cut], cut
        assert type(view[cut]) is list
    assert view.index(want[-1]) == n - 1 and want[3] in view
    with pytest.raises(TypeError):
        hash(view)


def test_failing_combinations_build_a_pair_only_when_read():
    reads = []

    class Text(list):
        def __getitem__(self, n):
            reads.append(n)
            return super().__getitem__(n)

    view = FailingCombinations(
        [("s",)], Text(["a", "b", "c"]), np.array([0, 0, 1]), np.array([1, 2, 2])
    )
    assert len(view) == 4 and view and not reads
    assert view[2] == ("a", "c") and reads == [0, 2]
    assert view == [("s",), ("a", "b"), ("a", "c"), ("b", "c")]
    assert FailingCombinations([]) == [] and not FailingCombinations([])


def test_verify_pairs_prints_the_list(pair_report, capsys):
    # the CLI output of a pair report is the one a plain list of the same
    # combinations gives
    report, want = pair_report
    rc = main(["verify", "--variant", "rotated", "-d", "3", "--scheme", "ue",
               "--scrambled", "--pairs"])
    assert rc == 1
    listed = dataclasses.replace(report, failing_combinations=want)
    lines = [listed.summary()] + ["  FAIL " + " + ".join(c) for c in want[:20]]
    lines.append(f"  ... {len(want) - 20} more")
    assert len(want) > 20
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "variant,d,scheme,target,max_weight",
    [
        (CodeVariant.UNROTATED, 9, Scheme.UE, Target.ZERO, 1),
        (CodeVariant.UNROTATED, 9, Scheme.UE, Target.ZERO, 2),
        (CodeVariant.ROTATED, 13, Scheme.ME, Target.PLUS, 1),
    ],
)
def test_analysis_beyond_64_checks(variant, d, scheme, target, max_weight):
    # 72 and 84 detecting checks: syndromes no longer fit in 64 bits
    circuit = generate_circuit(variant, d, scheme, target, 1e-3)
    code = build_code(variant, d)
    assert len(code.x_checks) == len(code.z_checks) > 64
    report = analyze_faults(circuit, code, target, scheme, max_weight=max_weight)
    assert report.failing_combinations == []
    assert report.certified_fault_distance_lower_bound == max_weight + 1


def test_analyze_faults_rejects_decoder_for_other_target():
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    code = build_code(CodeVariant.ROTATED, 3)
    with pytest.raises(ValueError, match="decoder must protect"):
        analyze_faults(
            circuit, code, Target.ZERO, Scheme.UE, decoder=SyndromeDecoder(code, "plus")
        )
    report = analyze_faults(
        circuit, code, Target.ZERO, Scheme.UE, complementary=True,
        decoder=SyndromeDecoder(code, "plus"),
    )
    assert report.analysis == "complementary"


@pytest.mark.parametrize("variant, d", [("unrotated", 5), ("rotated", 3)])
def test_analyze_faults_rejects_decoder_of_another_code(variant, d):
    # an unrotated d=5 decoder reported 199 failing single faults of rotated
    # d=5 ue, and a rotated d=3 one raised on a syndrome outside its checks
    code = build_code(CodeVariant.ROTATED, 5)
    circuit = generate_circuit(CodeVariant.ROTATED, 5, Scheme.UE, Target.ZERO, 1e-3)
    other = SyndromeDecoder(build_code(variant, d), "zero")
    with pytest.raises(ValueError, match=f"check matrix .*: decoder {variant} d={d}, code rotated d=5"):
        analyze_faults(circuit, code, Target.ZERO, Scheme.UE, decoder=other)


def test_analyze_faults_rejects_decoder_of_other_data_qubits():
    code = build_code(CodeVariant.ROTATED, 3)
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    reordered = dataclasses.replace(code, qubits=code.qubits[::-1])
    assert reordered.data_ids != code.data_ids
    with pytest.raises(ValueError, match="data qubits"):
        analyze_faults(
            circuit, code, Target.ZERO, Scheme.UE, decoder=SyndromeDecoder(reordered, "zero")
        )


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("complementary", [False, True])
def test_analyze_faults_accepts_decoder_of_an_equal_code(scheme, complementary):
    # the benchmark builds its own decoder per case and passes it in
    code = build_code(CodeVariant.ROTATED, 5)
    circuit = generate_circuit(CodeVariant.ROTATED, 5, scheme, Target.ZERO, 1e-3)
    target = "plus" if complementary else "zero"
    dec = SyndromeDecoder(build_code(CodeVariant.ROTATED, 5), target)
    given = analyze_faults(
        circuit, code, Target.ZERO, scheme, complementary=complementary, decoder=dec
    )
    assert given == analyze_faults(circuit, code, Target.ZERO, scheme, complementary=complementary)


def test_analyze_faults_rejects_circuit_of_another_code():
    small = build_code(CodeVariant.ROTATED, 3)
    wide = generate_circuit(CodeVariant.ROTATED, 5, Scheme.UE, Target.ZERO, 1e-3)
    with pytest.raises(ValueError, match="qubits"):
        analyze_faults(wide, small, Target.ZERO, Scheme.UE)
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    for key, value in [
        ("variant", "unrotated"), ("distance", "5"), ("scheme", "uea"), ("target", "plus"),
    ]:
        forged = Circuit(circuit.n_qubits, circuit.layers, dict(circuit.metadata, **{key: value}))
        with pytest.raises(ValueError, match=key):
            analyze_faults(forged, small, Target.ZERO, Scheme.UE)
    with pytest.raises(ValueError, match="target"):
        analyze_faults(circuit, small, Target.PLUS, Scheme.UE)
    # a hand-made circuit carries no headers and is judged as given
    bare = Circuit(circuit.n_qubits, circuit.layers)
    assert analyze_faults(bare, small, Target.ZERO, Scheme.UE).failing_combinations == []


def test_readme_library_example_runs(capsys):
    # the README's "Library" snippet passes target and scheme as strings
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(snippet, {})
    assert "no failures" in capsys.readouterr().out


def test_analyze_faults_rejects_bad_weight():
    circuit = generate_circuit(CodeVariant.ROTATED, 3, Scheme.UE, Target.ZERO, 1e-3)
    code = build_code(CodeVariant.ROTATED, 3)
    for bad in (3, 0, True, 1.0, 2.0, "2"):
        with pytest.raises(ValueError, match="max_weight"):
            analyze_faults(circuit, code, Target.ZERO, Scheme.UE, max_weight=bad)


def test_hook_catalogue_frozen_rotated_fan():
    code = build_code(CodeVariant.ROTATED, 3)
    plan = build_plan(code, Scheme.UE, Target.ZERO)
    cat = hook_catalogue(plan)
    check = next(c for c in code.x_checks if set(c.support) == {1, 2, 4, 5})
    entries = cat[check.ancilla]
    assert len(entries) == 3 * 15

    def grab(gi, basis):
        return next(e for e in entries if e.gate_index == gi and e.basis == basis)

    # X on the pivot just after the first fan gate spreads to the whole rest,
    # but is one flip away from the check itself
    assert grab(0, "XI").protected_data == (1, 4, 5)
    assert grab(0, "XI").protected_reduced_weight == 1
    # after the middle gate the residual is the vertical two-qubit hook
    assert grab(1, "XI").protected_data == (1, 4)
    assert grab(1, "XI").protected_reduced_weight == 2
    assert grab(2, "XI").protected_data == (4,)
    # complementary flips on a gate stay put and can pair with the pivot
    assert grab(1, "ZZ").complementary_data == (4, 5)


def _hook_catalogue_forward(plan):
    """hook_catalogue's reference: every two-qubit Pauli after every fan
    gate, pushed forward through the rest of the fan by PauliString.propagate."""
    code = plan.code
    protected = CheckMatrix.of(code, plan.target)
    complementary = CheckMatrix.of(code, plan.target, complementary=True)
    data_mask = sum(1 << q for q in code.data_ids)

    def bits(mask):
        return tuple(q for q in range(code.n_qubits) if mask >> q & 1)

    out = {}
    for g in itertools.chain.from_iterable(plan.stages):
        gates = [gate for gate in gadget_gates(g, plan.kind) if gate is not None]
        cmask = sum(1 << q for q in g.check.support)
        cxs = [Instruction("CX", gate) for gate in gates]
        entries = []
        for gi, (c, t) in enumerate(gates):
            for xa, za, xb, zb in list(itertools.product((0, 1), repeat=4))[1:]:
                basis = PauliString(2, xa | xb << 1, za | zb << 1).label()
                pauli = PauliString(code.n_qubits, xa << c | xb << t, za << c | zb << t)
                for cx in cxs[gi + 1 :]:
                    pauli = pauli.propagate(cx)
                prot = protected.read(pauli.x, pauli.z) & data_mask
                comp = complementary.read(pauli.x, pauli.z) & data_mask
                reduced = min(prot.bit_count(), (prot ^ cmask).bit_count())
                entries.append(HookFault(gi, basis, bits(prot), reduced, bits(comp)))
        out[g.check.ancilla] = entries
    return out


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("variant", list(CodeVariant))
def test_hook_catalogue_equals_forward_propagation(variant, d):
    code = build_code(variant, d)
    for scheme in Scheme:
        for target in Target:
            plan = build_plan(code, scheme, target)
            plans = [plan, scramble_plan(plan)] if scheme is Scheme.UE else [plan]
            for each in plans:
                assert hook_catalogue(each) == _hook_catalogue_forward(each)


def test_hook_catalogue_bounds_all_plans():
    for variant in CodeVariant:
        code = build_code(variant, 5)
        for scheme in Scheme:
            for target in Target:
                plan = build_plan(code, scheme, target)
                cat = hook_catalogue(plan)
                checks = code.checks(plan.kind) if scheme is not Scheme.ME else (
                    code.x_checks if target is Target.ZERO else code.z_checks
                )
                assert set(cat) == {c.ancilla for c in checks}
                worst = max(
                    e.protected_reduced_weight for entries in cat.values() for e in entries
                )
                assert worst <= 2, (variant, scheme, target)


def test_hook_catalogue_scrambled_shows_heavier_hooks():
    code = build_code(CodeVariant.ROTATED, 3)
    plan = build_plan(code, Scheme.UE, Target.ZERO)
    good = hook_catalogue(plan)
    bad = hook_catalogue(scramble_plan(plan))

    def hook_sets(cat):
        out = set()
        for entries in cat.values():
            for e in entries:
                if e.protected_reduced_weight == 2:
                    out.add(e.protected_data)
        return out

    assert hook_sets(good) != hook_sets(bad)


def test_reverse_pass_on_handmade_measure_circuit():
    # X before a Z-basis readout flips it; Z residue there is absorbed
    layers = [
        [Instruction("R", (0, 1)), Instruction("X_ERROR", (0, 1), 0.5)],
        [Instruction("CX", (0, 1)), Instruction("DEPOLARIZE2", (0, 1), 0.5)],
        [Instruction("M", (1,))],
    ]
    circuit = Circuit(2, layers)
    table = _residuals(circuit)
    by_basis = {
        table.basis[f]: (table.res_x[f], table.res_z[f])
        for f, i in enumerate(table.site)
        if table.sites[i][1] == "DEPOLARIZE2"
    }
    assert by_basis["IX"] == (0b10, 0)
    assert by_basis["IZ"] == (0, 0)
    assert by_basis["ZI"] == (0, 0b01)
    assert by_basis["XI"] == (0b01, 0)


# sha256 over the repr of every pair report of the 48 analyses, in this
# loop order; the reports hold the failing combinations themselves
# (2,054,524 in all), so any decoder answer or enumeration change shows
FROZEN_PAIR_REPORTS = "15670ada0718a2dd7490b8d834830d7df8b23d52616f60dd43d01eb843821e5c"


def test_pair_reports_are_frozen():
    digest = hashlib.sha256()
    for variant, scheme, target, d, complementary in itertools.product(
        ("rotated", "unrotated"), ("ue", "uea", "me"), ("zero", "plus"), (3, 5), (False, True)
    ):
        report = analyze_faults(
            generate_circuit(variant, d, scheme, target, 1e-3), build_code(variant, d),
            target, scheme, max_weight=2, complementary=complementary,
        )
        digest.update(repr(report).encode())
    assert digest.hexdigest() == FROZEN_PAIR_REPORTS
