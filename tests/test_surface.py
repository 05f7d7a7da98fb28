"""The library surface: lazy top-level names, records sent between processes, config-file keys."""

from __future__ import annotations

import json
import pickle
from importlib import import_module

import pytest

import depmetrics
from depmetrics import cli
from depmetrics.report import InputFile, RunConfig
from depmetrics.treebank import Rejection, ValencyLexicon

from .conftest import fields, fold, make_sentence

# The settings of a run, in the order of the config echo: the keys a config file may set.
SETTINGS = [
    "inputs", "sl_min", "sl_max", "dist_sls", "min_bucket", "valency_mode", "lexicon_path",
    "entropy_base", "log_base", "output_dir", "drop_punct",
]


def test_every_public_name_resolves_to_its_module_attribute():
    for name in depmetrics.__all__:
        value = getattr(depmetrics, name)
        if name != "__version__":
            assert value is getattr(import_module(f"depmetrics.{depmetrics._HOMES[name]}"), name)


def test_star_import_gives_every_public_name():
    namespace: dict[str, object] = {}
    exec("from depmetrics import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(depmetrics.__all__)
    assert namespace["Sentence"] is depmetrics.Sentence


def test_dir_lists_the_public_names_and_an_unknown_name_is_an_attribute_error():
    assert set(depmetrics.__all__) <= set(dir(depmetrics))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        depmetrics.no_such_name  # noqa: B018


def test_an_input_record_with_a_lexicon_fold_survives_the_worker_pipe():
    sentences = [make_sentence((2, 0, 2), root_lemma="go"), make_sentence((0, 1), root_lemma="stay")]
    record = InputFile("a.cabocha", "cabocha", (1, 2, 3, 4), fold(sentences, (2, 20), ValencyLexicon({"go": 2})))
    record.accepted, record.single_node, record.sha256 = 3, 1, "ab" * 32
    record.rejections.append(Rejection("a.cabocha:9-12", "cycle through node 2", "a.cabocha#4"))
    copy = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    for name in InputFile.__slots__:
        assert fields(getattr(copy, name)) == fields(getattr(record, name))
    assert copy.fold.lexicon.entries == {"go": 2}
    assert copy.fold.by_sl[3].valency == {2: [2, 2, 1]} and copy.fold.by_sl[2].valency == {None: [1, 1, 1]}
    assert copy.rejections[0].sentence_id == "a.cabocha#4"


def test_a_metric_lines_fold_survives_the_worker_pipe(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "METRIC_BATCH", 2)
    lines = cli.MetricLines(str(tmp_path))
    for heads in ((2, 0), (0, 1, 1), (3, 3, 0)):
        lines.add(make_sentence(heads))
    copy = pickle.loads(pickle.dumps(lines, pickle.HIGHEST_PROTOCOL))
    assert (copy.directory, copy.files, copy.lines) == (lines.directory, lines.files, lines.lines)
    assert len(copy.files) == 1 and len(copy.lines) == 1
    assert "".join(copy.texts()) == "".join(lines.texts())


def test_the_config_file_keys_are_the_run_settings_in_order(tmp_path):
    assert list(RunConfig.__annotations__) == SETTINGS
    file_settings = {
        "inputs": [{"path": "a.conllu"}], "sl_min": 3, "sl_max": 9, "dist_sls": [4, 6], "min_bucket": 5,
        "valency_mode": "lexicon", "lexicon_path": "lex.tsv", "entropy_base": "e", "log_base": "10",
        "output_dir": "out", "drop_punct": True,
    }
    assert list(file_settings) == SETTINGS
    path = tmp_path / "run.json"
    path.write_text(json.dumps(file_settings), encoding="utf-8")
    config = cli.build_config(cli.build_parser().parse_args(["report", "--config", str(path)]))
    assert [getattr(config, name) for name in SETTINGS] == [
        [("a.conllu", "conllu")], 3, 9, (4, 6), 5, "lexicon", "lex.tsv", "e", "10", "out", True,
    ]
    assert list(config.to_json_dict()) == [name for name in SETTINGS if name != "output_dir"]
    with pytest.raises(TypeError, match="no setting 'seed'"):
        RunConfig(seed=1)
