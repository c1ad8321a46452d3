"""End-to-end checks of every CLI subcommand through main()."""

import json

import pytest

from surfenc.circuit_ir import Circuit
from surfenc.cli import main
from surfenc.harness import read_results_csv


def test_generate_roundtrips_through_text(tmp_path, capsys):
    out = tmp_path / "circ.txt"
    rc = main(
        [
            "generate",
            "--variant", "rotated",
            "-d", "3",
            "--scheme", "uea",
            "--target", "zero",
            "--p", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    circ = Circuit.from_text(out.read_text())
    assert circ.metadata["scheme"] == "uea"
    assert circ.gate_count == 16

    rc = main(["generate", "--variant", "rotated", "-d", "3", "--scheme", "ue"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "# qubits: 17"
    assert "TICK" in text


def test_count_reports_sizes(capsys):
    rc = main(["count", "--variant", "unrotated", "-d", "5", "--scheme", "ue"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cnot_count: 52" in out
    assert "entangling_depth: 12" in out
    assert "qubits: 81" in out


def test_simulate_with_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "variant": "rotated",
                "scheme": "ue",
                "target": "zero",
                "distances": [3],
                "noise_strengths": [0.05],
                "shots": 500,
                "seed": 3,
            }
        )
    )
    csv_path = tmp_path / "out.csv"
    rc = main(
        ["simulate", "--config", str(cfg), "--shots", "800", "--csv", str(csv_path)]
    )
    assert rc == 0
    with open(csv_path) as fh:
        results = read_results_csv(fh)
    assert len(results) == 1
    assert results[0].shots == 800  # flag overrides the file value
    assert results[0].variant == "rotated"

    rc = main(
        [
            "simulate",
            "--variant", "rotated",
            "--scheme", "me",
            "--target", "zero",
            "--distances", "3",
            "--noise-strengths", "0.05",
            "--shots", "400",
            "--seed", "1",
        ]
    )
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi"


def test_verify_clean_and_scrambled(capsys):
    rc = main(["verify", "--variant", "rotated", "-d", "3", "--scheme", "ue"])
    assert rc == 0
    assert "no failures" in capsys.readouterr().out

    rc = main(
        ["verify", "--variant", "rotated", "-d", "3", "--scheme", "ue", "--scrambled"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_beyond_64_checks(capsys):
    # unrotated d=9 has 72 detecting checks
    rc = main(["verify", "--variant", "unrotated", "-d", "9", "--scheme", "ue"])
    assert rc == 0
    assert "no failures" in capsys.readouterr().out


_BAD_CIRCUIT_ARGS = [
    (command, ["-d", d]) for command in ("generate", "count", "verify") for d in ("4", "1", "three")
] + [
    (command, ["-d", "3", "--p", p]) for command in ("generate", "verify") for p in ("1.5", "-0.1")
]


@pytest.mark.parametrize("command,extra", _BAD_CIRCUIT_ARGS)
def test_circuit_commands_reject_bad_distance_and_p(command, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--variant", "rotated", "--scheme", "ue", *extra])
    assert exc.value.code == 2
    assert f"surfenc {command}: error: argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,config,needle",
    [
        (["--distances", "4"], None, "distance"),
        (["--shots", "0"], None, "shots"),
        ([], {"distances": [3], "colour": "red"}, "unknown config keys"),
        ([], {"distances": []}, "distances must not be empty"),
        ([], {"distances": 5}, "distances must be a sequence"),
        ([], {"distances": [3], "noise_strengths": 0.01}, "noise_strengths must be a sequence"),
        # a bytes config is written as given
        ([], b"[3, 5]", "cfg.json: a config is a JSON object"),
        ([], b"{distances: [3]}", "cfg.json: a config is a JSON object"),
        ([], b"\xff{", "cfg.json: a config is a JSON object"),
        # every list item goes through the single-value rule
        (["--distances", ""], None, "argument --distances: invalid int value: ''"),
        (["--distances", "3,x"], None, "argument --distances: invalid int value: 'x'"),
        (["--distances", "3,4"], None, "argument --distances: distance must be"),
        (
            ["--distances", "3", "--noise-strengths", "1e-3,abc"], None,
            "argument --noise-strengths: invalid float value: 'abc'",
        ),
        (
            ["--distances", "3", "--noise-strengths", ""], None,
            "argument --noise-strengths: invalid float value: ''",
        ),
        (
            ["--distances", "3", "--noise-strengths", "1e-3,2"], None,
            "argument --noise-strengths: noise strength must be in [0, 1]",
        ),
    ],
)
def test_simulate_rejects_bad_config_in_one_line(tmp_path, capsys, args, config, needle):
    argv = ["simulate", "--variant", "rotated", "--scheme", "ue", *args]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("surfenc: error: ")
    assert needle in lines[0]


def test_verify_pairs_flag(capsys):
    rc = main(
        ["verify", "--variant", "rotated", "-d", "3", "--scheme", "uea", "--pairs"]
    )
    # pairs at distance 3 exceed the code's guarantee, so failures are expected
    assert rc == 1
    assert "checked<=w2" in capsys.readouterr().out


def test_compare_from_csv(tmp_path, capsys):
    rows = "\n".join(
        [
            "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi",
            "rotated,ue,zero,3,1.000000e-03,100000,2,2e-05,5e-06,7e-05",
            "rotated,uea,zero,3,1.000000e-03,100000,20,0.0002,0.00013,0.00031",
        ]
    )
    path = tmp_path / "res.csv"
    path.write_text(rows + "\n")
    rc = main(["compare", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uea/ue" in out

    empty = tmp_path / "empty.csv"
    empty.write_text("variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\n")
    assert main(["compare", str(empty)]) == 1


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["compare", "{tmp}/missing.csv"], "No such file"),
        (["compare", "{tmp}/no_variant.csv"], "'variant'"),
        (["compare", "{tmp}/short_row.csv"], "line 3"),
        (["compare", "{tmp}/long_row.csv"], "line 2 has extra fields"),
        (["compare", "{tmp}/not_a_number.csv"], "line 3, column 'shots'"),
        (["compare", "{tmp}/repeated_point.csv"], "two me results at rotated zero d=3"),
        (
            ["generate", "--variant", "rotated", "-d", "3", "--scheme", "ue",
             "--out", "{tmp}/no_such_dir/circ.txt"],
            "No such file",
        ),
        (
            ["simulate", "--distances", "3", "--noise-strengths", "0.01",
             "--shots", "1000", "--csv", "{tmp}/no_such_dir/out.csv"],
            "No such file",
        ),
    ],
)
def test_io_errors_end_in_one_line(tmp_path, capsys, argv, needle):
    (tmp_path / "no_variant.csv").write_text(
        "scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\nue,zero,3,0.001,100,1,0.01,0.001,0.05\n"
    )
    (tmp_path / "short_row.csv").write_text(
        "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\n"
        "rotated,ue,zero,3,0.001,100,1,0.01,0.001,0.05\n"
        "rotated,uea,zero,3,0.001,100,1\n"
    )
    (tmp_path / "long_row.csv").write_text(
        "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\n"
        "rotated,ue,zero,3,0.001,100,1,0.01,0.001,0.05,7\n"
    )
    (tmp_path / "not_a_number.csv").write_text(
        "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\n"
        "rotated,ue,zero,3,0.001,100,1,0.01,0.001,0.05\n"
        "rotated,uea,zero,3,0.001,many,1,0.01,0.001,0.05\n"
    )
    (tmp_path / "repeated_point.csv").write_text(
        "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi\n"
        "rotated,ue,zero,3,0.01,10000,20,0.002,0.0013,0.0031\n"
        "rotated,me,zero,3,0.01,10000,63,0.0063,0.0049,0.0081\n"
        "rotated,me,zero,3,0.01,10000,56,0.0056,0.0043,0.0073\n"
    )
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("surfenc: error: ")
    assert needle in lines[0]


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("scheme", ["uea", "me"])
def test_scrambled_needs_scheme_ue_in_one_line(command, scheme, capsys):
    argv = [command, "--variant", "rotated", "-d", "3", "--scheme", scheme, "--scrambled"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("surfenc: error: ")
    assert "plain unitary encoder" in lines[0]


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
