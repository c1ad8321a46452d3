"""The traced benchmark's hooks: every package attribute it patches exists."""

from pathlib import Path

import surfenc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/rep.py patches package attributes by name, such as
    # harness.sample_final_frames, harness.build_code and
    # MatchingGraph.decode; a refactor that drops one must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import rep
    import tracer

    owners = (
        surfenc.harness,
        surfenc.code_model,
        surfenc.encoders,
        surfenc.decoder.SyndromeDecoder,
        surfenc.decoder.MatchingGraph,
        surfenc.fault_analysis,
    )
    before = [dict(vars(owner)) for owner in owners]
    tr = tracer.Tracer("t")
    try:
        rep.install_tracer(surfenc, tr)
        assert surfenc.harness.run_experiment is not before[0]["run_experiment"]
        assert surfenc.decoder.MatchingGraph.decode is not before[4]["decode"]
    finally:
        tr.restore()
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items()), owner
