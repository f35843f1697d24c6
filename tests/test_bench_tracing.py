"""The benchmark tracer's patch points still exist and are restored.

perfbench/tracing.py wraps dravlid functions under the names their callers
look them up by (`cli.parse_corpus`, `backends.classify_baseline`, ...). A
rename or move of one of those names breaks the benchmark's trace; this
test runs the tracer in-process over a baseline classify and evaluate.
"""

from pathlib import Path

import dravlid.cli
from dravlid.cli import main
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.taxonomy import TaskLanguage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_point(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    corpus = str(smoke_corpus_path(TaskLanguage.KANNADA))
    preds = str(tmp_path / "p.jsonl")
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert main(["classify", corpus, "--task", "kn", "--backend", "baseline",
                     "--out", preds]) == 0
        assert main(["evaluate", "--gold", corpus, "--pred", preds]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert len(patched) > 10
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    layers = tracer.layer_metrics()
    assert layers["backends.words_in"] == 30
    assert layers["corpus.parse_s"] > 0


def test_traced_sweep_spans_each_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module, so that the patched main records its span.
        assert dravlid.cli.main(
            ["sweep", str(smoke_corpus_path(TaskLanguage.KANNADA)), "--task", "kn",
             "--backend", "replay",
             "--cache", str(replay_fixture_path(TaskLanguage.KANNADA))]
        ) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    runs = [s for s in tracer.spans if s.name == "runner.run_experiment"]
    assert len(runs) == 3
    main_ids = {s.id for s in tracer.spans if s.name == "cli.main"}
    assert all(s.parent in main_ids for s in runs)
