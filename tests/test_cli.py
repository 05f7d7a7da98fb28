import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from depmetrics import __version__, errors, treebank
from depmetrics.cli import main
from depmetrics.metrics import metric_record
from depmetrics.randtree import GeneratorConfig, generate, random_tree
from depmetrics.treebank import iter_parse, serialize_canonical

from . import closed_stdout, reference_metrics, reference_treebank
from .command_flags import COMMAND_FLAGS, RUN_CONFIG_FLAGS
from .conftest import DEMO7_HEADS, make_sentence


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLASS4_LENGTHS = range(8, 31)


@pytest.fixture(scope="module")
def class4_corpus(tmp_path_factory):
    """Four random trees and a star for each length 8-30, as canonical JSONL.

    The stars put every length into valency class 4, where a sentence's HD=1
    count, its root's out-degree, grows with its length: the hd1 fit of that
    class has a slope that is not 0.
    """
    path = tmp_path_factory.mktemp("class4") / "class4.jsonl"
    configs = [GeneratorConfig(n=n, seed=n, count=4) for n in CLASS4_LENGTHS]
    configs += [GeneratorConfig(n=n, constraint="star") for n in CLASS4_LENGTHS]
    trees = (serialize_canonical(tree) + "\n" for config in configs for tree in generate(config))
    path.write_text("".join(trees), encoding="utf-8")
    return path


# --- validate -----------------------------------------------------------------


def test_validate_well_formed_file(data_dir, capsys):
    code, out, _ = run(["validate", str(data_dir / "sample_ud.conllu")], capsys)
    assert code == 0
    assert "12 accepted, 0 rejected" in out


def test_validate_all_invalid_file_fails(data_dir, capsys):
    code, out, _ = run(["validate", str(data_dir / "cyclic_only.conllu")], capsys)
    assert code == 1
    assert "TOTAL: 0 accepted, 2 rejected" in out


def test_validate_mixed_counts_sum(data_dir, capsys):
    code, out, _ = run(["validate", str(data_dir / "mixed.conllu")], capsys)
    assert code == 0
    assert "2 accepted, 2 rejected" in out
    assert "cycle" in out


def test_validate_drop_punct_rejects_dependent_bearing_punct(data_dir, capsys):
    code, out, _ = run(["validate", "--drop-punct", str(data_dir / "sample_ud.conllu")], capsys)
    assert code == 0
    assert "11 accepted, 1 rejected" in out


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code, _, err = run(["validate", str(tmp_path / "nope.conllu")], capsys)
    assert code == 1
    assert "input error" in err


def test_unknown_extension_is_config_error(tmp_path, capsys):
    weird = tmp_path / "corpus.txt"
    weird.write_text("x")
    code, _, err = run(["validate", str(weird)], capsys)
    assert code == 2
    assert "infer" in err


def test_no_inputs_is_config_error(capsys):
    for command in ("validate", "metrics", "report"):
        code, out, err = run([command], capsys)
        assert code == 2, command
        assert out == ""
        assert err == "config error: no input files given (pass paths or a config file with 'inputs')\n"


# --- metrics dump ----------------------------------------------------------------


def test_metrics_dump_matches_library(data_dir, tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code, _, _ = run(
        ["metrics", str(data_dir / "sample_ud.conllu"), "-o", str(out_file)], capsys
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert meta["command"] == "metrics"
    sentences = list(iter_parse((data_dir / "sample_ud.conllu").read_bytes(), "conllu", errors="skip", rejections=[]))
    expected = [metric_record(s) for s in sentences if len(s) >= 2]
    assert lines[1:] == [reference_metrics.json_line(record) for record in expected]
    assert [json.loads(line) for line in lines[1:]] == list(map(reference_metrics.json_dict, expected))


# --- report ------------------------------------------------------------------------


def test_report_bundle_on_sample_corpus(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        ["report", str(data_dir / "sample_200.jsonl"), "--output-dir", str(out_dir), "--min-bucket", "3"],
        capsys,
    )
    assert code == 0
    for name in (
        "dist.csv",
        "entropy.csv",
        "trend.csv",
        "corr.csv",
        "valency.csv",
        "valency_fit.csv",
        "report.json",
    ):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["version"]
    assert report["meta"]["inputs"][0]["sha256"]
    # full-corpus histogram covers lengths beyond the window
    assert report["length_histogram"]["21"] == 10
    # window excludes length 21 from every analysis table
    assert all(point["sl"] <= 20 for point in report["trend"])


def test_report_trend_golden_line_for_demo_sentence(tmp_path, capsys):
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(
        serialize_canonical(make_sentence(DEMO7_HEADS, id="demo7")) + "\n", encoding="utf-8"
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(["report", str(corpus), "--output-dir", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "trend.csv").read_text(encoding="utf-8") == (
        "sl,mean_mdd,mean_mhd,n\n7,1.8333,1.6667,1\n"
    )
    # a single sentence is below min_bucket, so entropy/corr points are gated
    assert (out_dir / "entropy.csv").read_text(encoding="utf-8") == "metric,sl,entropy_bits,n\n"
    gated = (out_dir / "entropy_gated.csv").read_text(encoding="utf-8")
    assert "dd,7," in gated
    assert (out_dir / "valency_fit.csv").read_text(encoding="utf-8").count("\n") == 1


def test_report_dist_probabilities_sum_to_one(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        ["report", str(data_dir / "sample_200.jsonl"), "--output-dir", str(out_dir)], capsys
    )
    assert code == 0
    sums: dict[tuple[str, str], float] = {}
    rows = (out_dir / "dist.csv").read_text(encoding="utf-8").splitlines()[1:]
    for row in rows:
        metric, bucket, _, _, probability = row.split(",")
        key = (metric, bucket)
        sums[key] = sums.get(key, 0.0) + float(probability)
    for key, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-4), key


def test_report_fails_on_empty_window(tmp_path, capsys):
    corpus = tmp_path / "tiny.jsonl"
    corpus.write_text('{"id":"one","nodes":[{"index":1,"head":0}]}\n', encoding="utf-8")
    code, _, err = run(["report", str(corpus), "--output-dir", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "input error" in err


# --- single-analysis commands ----------------------------------------------------------


@pytest.mark.parametrize(
    "command,files",
    [
        ("dist", ["dist.csv"]),
        ("entropy", ["entropy.csv", "entropy_gated.csv"]),
        ("trend", ["trend.csv"]),
        ("corr", ["corr.csv", "corr_gated.csv"]),
        ("valency", ["valency.csv", "valency_fit.csv"]),
    ],
)
def test_single_analysis_commands_write_their_tables(command, files, data_dir, tmp_path, capsys):
    out_dir = tmp_path / command
    code, _, _ = run(
        [command, str(data_dir / "sample_200.jsonl"), "--output-dir", str(out_dir)], capsys
    )
    assert code == 0
    for name in files + ["meta.json"]:
        assert (out_dir / name).exists(), name
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == command


@pytest.mark.parametrize("command", ["trend", "report"])
def test_table_command_meta_names_no_rng_and_echoes_no_seed(command, data_dir, tmp_path, capsys):
    code, _, _ = run([command, str(data_dir / "sample_200.jsonl"), "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert "rng" not in meta
    assert "seed" not in meta["config"]


def test_single_analysis_commands_log_only_the_warnings_of_their_tables(data_dir, tmp_path, caplog):
    sample = str(data_dir / "sample_ud.conllu")
    assert main(["trend", sample, "--output-dir", str(tmp_path / "trend")]) == 0
    assert not [r for r in caplog.records if "distribution" in r.getMessage()]
    caplog.clear()
    assert main(["dist", sample, "--output-dir", str(tmp_path / "dist")]) == 0
    lengths = {len(s) for s in iter_parse((data_dir / "sample_ud.conllu").read_bytes(), "conllu", errors="skip",
                                           rejections=[])}
    missing = [sl for sl in (5, 10, 15, 20) if sl not in lengths]  # the defaults inside the window 2-20
    assert [m for m in caplog.messages if "distribution" in m] == [
        "lengths 25, 30 lie outside the window [2, 20]; omitting their dd and hd distributions",
        *(f"no sentences of length {sl}; omitting its dd and hd distributions" for sl in missing),
    ]
    caplog.clear()
    assert main(["valency", str(data_dir / "sample.cabocha"), "--output-dir", str(tmp_path / "valency")]) == 0
    thin = [m.split(" has ")[0] for m in caplog.messages if m.endswith("; dd1 and hd1 fits omitted")]
    assert thin and len(thin) == len(set(thin)) == len(caplog.messages)


def test_valency_lexicon_mode_via_cli(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        [
            "valency",
            str(data_dir / "sample_ud.conllu"),
            "--valency-mode",
            "lexicon",
            "--lexicon",
            str(data_dir / "lexicon.tsv"),
            "--output-dir",
            str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["lexicon_misses"] == 0
    assert (out_dir / "valency.csv").read_text(encoding="utf-8").count("\n") > 1


def test_valency_lexicon_mode_requires_lexicon_path(data_dir, tmp_path, capsys):
    code, _, err = run(
        [
            "valency",
            str(data_dir / "sample_ud.conllu"),
            "--valency-mode",
            "lexicon",
            "--output-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "lexicon" in err


def test_missing_lexicon_fails_before_any_input_is_parsed(data_dir, tmp_path):
    missing = tmp_path / "missing.tsv"
    for command in ("report", "valency"):
        result = subprocess.run(
            [sys.executable, "-m", "depmetrics", command, str(data_dir / "sample.cabocha"),
             "--valency-mode", "lexicon", "--lexicon", str(missing), "--output-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1, command
        assert result.stdout == "", command
        assert result.stderr == f"input error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("command", ["report", "valency"])
def test_malformed_lexicon_fails_before_any_input_is_parsed(
    command, data_dir, tmp_path, capsys, monkeypatch
):
    import depmetrics.report as report_module

    def no_parse(*args, **kwargs):
        raise AssertionError("an input was parsed before the lexicon was read")

    monkeypatch.setattr(report_module, "iter_byte_range", no_parse)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("go\t5\n", encoding="utf-8")
    code, out, err = run(
        [command, str(data_dir / "sample.cabocha"), "--valency-mode", "lexicon",
         "--lexicon", str(lexicon), "--output-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"input error: {lexicon}:1: valency must be 1..4, got 5\n"


@pytest.mark.parametrize("command", ["dist", "entropy", "trend", "corr", "valency", "report"])
def test_empty_lexicon_fails_before_any_input_is_read(command, data_dir, tmp_path, capsys):
    lexicon = tmp_path / "empty.tsv"
    lexicon.write_text("# no entries\n", encoding="utf-8")
    argv = [command, str(data_dir / "sample.cabocha"), str(tmp_path / "absent.cabocha"),
            "--output-dir", str(tmp_path / "out")]
    if "--lexicon" in COMMAND_FLAGS[command]:
        argv += ["--valency-mode", "lexicon", "--lexicon", str(lexicon)]
    else:  # a command without the lexicon flags reads the lexicon that a config file names
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"valency_mode": "lexicon", "lexicon_path": str(lexicon)}), encoding="utf-8"
        )
        argv += ["--config", str(config_path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"input error: {lexicon}: lexicon mode requires a non-empty valency lexicon\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "metrics"])
def test_validate_and_metrics_never_read_a_lexicon(command, data_dir, tmp_path, capsys, monkeypatch):
    import depmetrics.report as report_module

    def no_lexicon(config):
        raise AssertionError("the lexicon was read")

    monkeypatch.setattr(report_module, "load_lexicon", no_lexicon)
    config_path = tmp_path / "run.json"
    config = {
        "inputs": [{"path": str(data_dir / "sample.cabocha")}],
        "valency_mode": "lexicon",
        "lexicon_path": str(tmp_path / "missing.tsv"),
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run([command, "--config", str(config_path)], capsys)
    assert code == 0
    header = json.loads(out.splitlines()[0].removeprefix("# "))
    assert header["config"]["valency_mode"] == "lexicon"  # the echo is the whole RunConfig


def test_lexicon_lemma_with_two_classes_is_an_input_error(data_dir, tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("go\t1\ngo\t3\n", encoding="utf-8")
    code, out, err = run(
        ["valency", str(data_dir / "sample.cabocha"), "--valency-mode", "lexicon",
         "--lexicon", str(lexicon), "--output-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"input error: {lexicon}:2: lemma 'go' has valency 3 here but 1 at line 1\n"
    assert not (tmp_path / "out").exists()


def run_refused_setting(source, paths, flags, settings, tmp_path, capsys, monkeypatch):
    """Run ``report`` with a setting given as flags or in a config file; no input may be read."""
    import depmetrics.report as report_module

    def no_parse(*args, **kwargs):
        raise AssertionError("an input was parsed before the settings were checked")

    monkeypatch.setattr(report_module, "iter_byte_range", no_parse)
    out_dir = str(tmp_path / "out")
    if source == "flags":
        argv = ["report", *paths, *flags, "--output-dir", out_dir]
    else:
        config_path = tmp_path / "run.json"
        config = {"inputs": [{"path": path} for path in paths], **settings, "output_dir": out_dir}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["report", "--config", str(config_path)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize(
    "inputs,refused",
    [
        (["sample.cabocha"], ("sample.cabocha", "cabocha")),
        (["sample_ud.conllu", "sample_200.jsonl"], ("sample_200.jsonl", "canonical")),
    ],
)
def test_drop_punct_on_an_input_that_is_not_conllu_is_refused(
    source, inputs, refused, data_dir, tmp_path, capsys, monkeypatch
):
    paths = [str(data_dir / name) for name in inputs]
    err = run_refused_setting(
        source, paths, ["--drop-punct"], {"drop_punct": True}, tmp_path, capsys, monkeypatch
    )
    name, fmt = refused
    assert err == f"config error: --drop-punct applies to CoNLL-U only, but {data_dir / name} is {fmt}\n"


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("lexicon_exists", [True, False])
def test_lexicon_without_lexicon_mode_is_refused(
    source, lexicon_exists, data_dir, tmp_path, capsys, monkeypatch
):
    lexicon = str(data_dir / "lexicon.tsv" if lexicon_exists else tmp_path / "missing.tsv")
    err = run_refused_setting(
        source,
        [str(data_dir / "sample.cabocha")],
        ["--lexicon", lexicon],
        {"lexicon_path": lexicon},
        tmp_path,
        capsys,
        monkeypatch,
    )
    assert err == "config error: --lexicon needs valency mode 'lexicon', not 'root-out-degree'\n"


# --- config file --------------------------------------------------------------------


def test_config_file_with_flag_override(data_dir, tmp_path, capsys):
    config = {
        "inputs": [{"path": str(data_dir / "sample_200.jsonl"), "format": "canonical"}],
        "sl_max": 12,
        "min_bucket": 5,
        "output_dir": str(tmp_path / "from_config"),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    code, _, _ = run(["report", "--config", str(config_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "from_config" / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["config"]["sl_max"] == 12

    out_dir = tmp_path / "flag_wins"
    code, _, _ = run(
        ["report", "--config", str(config_path), "--sl-max", "9", "--output-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["config"]["sl_max"] == 9
    assert all(point["sl"] <= 9 for point in report["trend"])


def test_config_file_errors(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(["report", "--config", str(bad)], capsys)
    assert code == 2

    code, _, err = run(["report", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "config" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"sl_maximum": 5}', encoding="utf-8")
    code, _, err = run(["report", "--config", str(unknown)], capsys)
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize(
    "command", ["validate", "metrics", "dist", "entropy", "trend", "corr", "valency", "report"]
)
def test_corpus_commands_take_no_seed(command, data_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(data_dir / "sample_200.jsonl"), "--seed", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# flag -> its arguments at a value other than the default, and the corpus on which that value
# changes an output of every command that takes the flag
FLAG_VALUES = {
    "--drop-punct": (["--drop-punct"], "sample_ud.conllu"),
    "--sl-min": (["--sl-min", "10"], "class4.jsonl"),
    "--sl-max": (["--sl-max", "12"], "class4.jsonl"),
    "--output-dir": (["--output-dir", "sub"], "class4.jsonl"),
    "--dist-sls": (["--dist-sls", "9"], "class4.jsonl"),
    "--min-bucket": (["--min-bucket", "3"], "class4.jsonl"),
    "--entropy-base": (["--entropy-base", "e"], "class4.jsonl"),
    "--valency-mode": (["--valency-mode", "lexicon"], "sample.cabocha"),
    "--lexicon": (["--lexicon", "lexicon.tsv"], "sample.cabocha"),
    "--log-base": (["--log-base", "10"], "class4.jsonl"),
}
LEXICON_FLAGS = ("--valency-mode", "--lexicon")  # each needs the other


def _without_config_echo(name, text):
    """An output with its config echo taken out: of ``meta.json``, of report.json's meta, or of a header line."""
    if name.endswith(".json"):
        data = json.loads(text)
        data.get("meta", data).pop("config")
        return data
    lines = text.splitlines()
    if lines and lines[0].startswith("# {"):
        header = json.loads(lines[0].removeprefix("# "))
        header.pop("config")
        lines[0] = header
    return lines


def outputs_beyond_the_echo(argv, workdir, capsys, monkeypatch):
    """Run ``argv`` in the new directory ``workdir``; return its stdout and each file it wrote, without the echo."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(argv) == 0
    texts = {"stdout": capsys.readouterr().out}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            texts[str(path.relative_to(workdir))] = path.read_text(encoding="utf-8")
    return {name: _without_config_echo(name, text) for name, text in texts.items()}


@pytest.mark.parametrize("flag", RUN_CONFIG_FLAGS)
@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_a_corpus_command_takes_exactly_the_flags_its_outputs_read(
    command, flag, class4_corpus, data_dir, tmp_path, capsys, monkeypatch
):
    def given(name):
        args, corpus = FLAG_VALUES[name]
        return [str(data_dir / a) if a.endswith(".tsv") else a for a in args], corpus

    args, corpus = given(flag)
    argv = [command, str(class4_corpus if corpus == "class4.jsonl" else data_dir / corpus)]
    if flag in COMMAND_FLAGS[command]:
        both = [token for name in LEXICON_FLAGS for token in given(name)[0]]
        flagged = [*argv, *(both if flag in LEXICON_FLAGS else args)]
        default = outputs_beyond_the_echo(argv, tmp_path / "default", capsys, monkeypatch)
        assert outputs_beyond_the_echo(flagged, tmp_path / "flagged", capsys, monkeypatch) != default
        return

    import depmetrics.report as report_module

    def refuse(*args, **kwargs):
        raise AssertionError("an input or the lexicon was opened")

    monkeypatch.setattr(report_module, "iter_byte_range", refuse)
    monkeypatch.setattr(report_module, "load_lexicon", refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, *args])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


INTEGER_FLAGS = ("--sl-min", "--sl-max", "--min-bucket", "--dist-sls")  # --dist-sls: a list of them
GENERATE_ARGS = {"--n": "5", "--count": "2", "--seed": "1", "--max-root-out-degree": "2"}
# Forms that int() reads but an integer flag does not take, and one past int()'s digit limit.
NOT_INTEGERS = {"fullwidth": "\uff11\uff12", "plus": "+3", "space": " 3", "underscore": "1_0",
                "arabic-indic": "\u0663", "5001-digits": "1" + "0" * 5000}
INTEGER_FLAG_CASES = [
    pytest.param(command, flag, value, id=f"{command}-{flag}-{name}")
    for command, flags in [*sorted(COMMAND_FLAGS.items()), ("generate", tuple(GENERATE_ARGS))]
    for flag in flags
    if flag in INTEGER_FLAGS or command == "generate"
    for name, value in NOT_INTEGERS.items()
    if not (flag == "--dist-sls" and name == "space")  # a list item may have spaces around it
]


@pytest.mark.parametrize("command, flag, value", INTEGER_FLAG_CASES)
def test_an_integer_flag_takes_an_optional_minus_and_ascii_digits_only(
    command, flag, value, data_dir, tmp_path, capsys, monkeypatch
):
    import depmetrics.report as report_module

    def refuse(*args, **kwargs):
        raise AssertionError("an input or the lexicon was opened")

    monkeypatch.setattr(report_module, "iter_byte_range", refuse)
    monkeypatch.setattr(report_module, "load_lexicon", refuse)
    monkeypatch.chdir(tmp_path)
    if command == "generate":
        others = {name: given for name, given in GENERATE_ARGS.items() if name != flag}
        argv = ["generate", *(token for pair in others.items() for token in pair)]
    else:
        argv = [command, str(data_dir / "sample_200.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, f"5,{value}" if flag == "--dist-sls" else value])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: " in err
    assert list(tmp_path.iterdir()) == []


def test_integer_flags_take_a_minus_and_dist_sls_items_spaces(data_dir, tmp_path, capsys):
    code, out, _ = run(["generate", "--n", "3", "--seed", "-3"], capsys)
    assert code == 0 and json.loads(out.splitlines()[0][2:])["seed"] == -3
    code, _, err = run(["trend", str(data_dir / "sample_200.jsonl"), "--sl-min", "-3"], capsys)
    assert (code, err) == (2, "config error: need 2 <= sl_min <= sl_max, got [-3, 20]\n")
    sample = str(data_dir / "sample_200.jsonl")
    code, _, _ = run(["dist", sample, "--dist-sls", " 5 , 10,", "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))["config"]["dist_sls"] == [5, 10]


def test_config_file_seed_is_an_unknown_key(data_dir, tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config = {"inputs": [{"path": str(data_dir / "sample_200.jsonl")}], "seed": 1}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(["report", "--config", str(config_path), "--output-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"config error: {config_path}: unknown config key 'seed'\n"


@pytest.mark.parametrize("text", ["[]", '"x"', "3"], ids=["list", "string", "number"])
def test_config_file_whose_top_level_is_not_an_object_is_a_config_error(text, data_dir, tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "run.json"
    config_path.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["report", str(data_dir / "sample_200.jsonl"), "--config", str(config_path)], capsys)
    assert (code, out, err) == (2, "", f"config error: {config_path}: top level must be an object\n")
    assert list(tmp_path.iterdir()) == [config_path]


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_bytes(b'{"sl_max": \xff}')
    code, _, err = run(["report", "--config", str(config_path)], capsys)
    assert code == 2
    assert err.startswith(f"config error: {config_path}: 'utf-8' codec can't decode byte 0xff in position 11")


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"sl_max": 1' + "0" * 5000 + "}", "for integer string conversion"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["5000-digit-integer", "100000-deep-nesting"],
)
def test_config_file_past_a_json_limit_is_a_config_error(text, reason, data_dir, tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "run.json"
    config_path.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["report", str(data_dir / "sample_200.jsonl"), "--config", str(config_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {config_path}: ") and reason in err
    assert list(tmp_path.iterdir()) == [config_path]


@pytest.mark.parametrize("command", ["validate", "report", "trend"])
@pytest.mark.parametrize(
    "setting, reason",
    [
        ({"inputs": [{"path": "a\u0000b.jsonl"}]}, "input path 'a\\x00b.jsonl'"),
        ({"valency_mode": "lexicon", "lexicon_path": "lexicon\u0000.tsv"}, "lexicon_path 'lexicon\\x00.tsv'"),
        ({"output_dir": "out\u0000"}, "output_dir 'out\\x00'"),
    ],
    ids=["input", "lexicon", "output_dir"],
)
def test_config_file_path_with_a_nul_is_a_config_error(command, setting, reason, data_dir, tmp_path, capsys,
                                                       monkeypatch):
    config_path = tmp_path / "run.json"
    config = {"inputs": [{"path": str(data_dir / "sample_200.jsonl")}], **setting}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, "--config", str(config_path)], capsys)
    assert (code, out, err) == (2, "", f"config error: {reason} holds a NUL character\n")
    assert list(tmp_path.iterdir()) == [config_path]


def test_config_file_input_entry_with_an_unknown_key_is_a_config_error(data_dir, tmp_path, capsys):
    config_path = tmp_path / "run.json"
    entry = {"path": str(data_dir / "sample_200.jsonl"), "fromat": "conllu"}
    config_path.write_text(json.dumps({"inputs": [entry]}), encoding="utf-8")
    code, _, err = run(["report", "--config", str(config_path), "--output-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"config error: {config_path}: unknown input entry key 'fromat'\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "setting",
    [
        {"sl_min": "2"},
        {"sl_max": 12.0},
        {"min_bucket": True},
        {"dist_sls": "5,10"},
        {"dist_sls": [5, "10"]},
        {"dist_sls": 5},
        {"dist_sls": [5, True]},
        {"drop_punct": "yes"},
        {"drop_punct": 0},
        {"valency_mode": 3},
        {"lexicon_path": ["a.tsv"]},
        {"lexicon_path": 3},
        {"output_dir": None},
        {"entropy_base": 2},
        {"inputs": "corpus.jsonl"},
        {"inputs": 7},
        {"inputs": [{"path": 5}]},
        {"inputs": [{"path": "corpus.jsonl", "format": 1}]},
    ],
    ids=lambda setting: json.dumps(setting),
)
def test_config_file_value_of_wrong_type_is_config_error(data_dir, tmp_path, capsys, setting):
    config = {
        "inputs": [{"path": str(data_dir / "sample_200.jsonl")}],
        "output_dir": str(tmp_path / "out"),
        **setting,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(["report", "--config", str(config_path)], capsys)
    assert code == 2
    assert err.startswith("config error: ")
    assert repr(next(iter(setting))) in err or "'inputs'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting,reason",
    [
        ({"valency_mode": "lexicons"}, "unknown valency mode 'lexicons'"),
        ({"entropy_base": "3"}, "entropy base must be one of ['10', '2', 'e']"),
        ({"log_base": "2"}, "log base must be one of ['10', 'e']"),
        ({"dist_sls": [1, 5]}, "distribution lengths must all be >= 2, got [1, 5]"),
        ({"inputs": "xml"}, "unknown input format 'xml'; expected one of ('canonical', 'cabocha', 'conllu')"),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
)
def test_config_file_value_out_of_range_is_config_error(setting, reason, data_dir, tmp_path, capsys, monkeypatch):
    corpus = str(data_dir / "sample_200.jsonl")
    paths = [corpus]
    if "inputs" in setting:  # the corpus comes from the config file, in the format it names
        setting, paths = {"inputs": [{"path": corpus, "format": setting["inputs"]}]}, []
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(setting), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(["report", *paths, "--config", str(config_path)], capsys) == (2, "", f"config error: {reason}\n")
    assert list(tmp_path.iterdir()) == [config_path]


def test_generate_count_below_zero_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--n", "5", "--seed", "1", "--count", "-1"]
    assert run(argv, capsys) == (2, "", "config error: count must be >= 0, got -1\n")
    assert list(tmp_path.iterdir()) == []


def test_config_file_typed_values_are_accepted(data_dir, tmp_path, capsys):
    config = {
        "inputs": [{"path": str(data_dir / "sample_200.jsonl")}],
        "dist_sls": [5, 10],
        "lexicon_path": None,
        "drop_punct": False,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code, _, _ = run(["report", "--config", str(config_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["config"]["dist_sls"] == [5, 10]


def test_invalid_settings_are_config_errors(data_dir, capsys):
    corpus = str(data_dir / "sample_200.jsonl")
    assert run(["report", corpus, "--min-bucket", "2"], capsys)[0] == 2
    assert run(["report", corpus, "--sl-min", "1"], capsys)[0] == 2
    assert run(["report", corpus, "--sl-min", "10", "--sl-max", "5"], capsys)[0] == 2


def test_validate_skips_canonical_nodes_of_wrong_type(tmp_path, capsys):
    corpus = tmp_path / "typed.jsonl"
    corpus.write_text(
        '{"id": "inf", "nodes": [{"index": 1, "head": 1e400}]}\n'
        '{"id": "bool", "nodes": [{"index": 1, "head": 2}, {"index": 2, "head": true}]}\n'
        '{"id": "lemma", "nodes": [{"index": 1, "head": 0, "lemma": [1]}]}\n'
        '{"id": "ok", "nodes": [{"index": 1, "head": 2}, {"index": 2, "head": 0}]}\n',
        encoding="utf-8",
    )
    code, out, _ = run(["validate", str(corpus)], capsys)
    assert code == 0
    assert "1 accepted, 3 rejected" in out


# --- generate ---------------------------------------------------------------------------


def test_generate_reproducible_and_parseable(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(["generate", "--n", "5", "--count", "3", "--seed", "7", "-o", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    sentences = list(iter_parse(a.read_bytes(), "canonical"))
    assert len(sentences) == 3
    header = a.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# ")
    meta = json.loads(header[2:])
    assert meta["seed"] == 7 and meta["n"] == 5 and meta["count"] == 3


def test_generate_writes_trees_past_the_writer_pieces_as_the_json_dumps_reference(tmp_path, capsys):
    path = tmp_path / "long.jsonl"
    code, _, _ = run(["generate", "--n", "1100", "--count", "3", "--seed", "5", "-o", str(path)], capsys)
    assert code == 0
    config = GeneratorConfig(n=1100, seed=5, count=3)
    want = [reference_treebank.serialize_canonical(random_tree(config, index)) for index in range(3)]
    assert path.read_text(encoding="utf-8").splitlines()[1:] == want


def test_generated_and_json_dumps_lines_are_read_without_the_json_decoder(tmp_path, capsys, monkeypatch):
    """Each line of ``generate``, and lines of good and bad trees as ``json.dumps(..., sort_keys=True)``
    writes them, are read without ``json.loads``; a line with a form is read with it, once."""
    path = tmp_path / "g.jsonl"
    assert run(["generate", "--n", "60", "--count", "20", "--seed", "3", "-o", str(path)], capsys)[0] == 0
    bad = [(2, 1, 0), (1, 0), (0, 0, 1), (2, 0, 7)]
    dumped = "".join(
        json.dumps({"id": f"b{k}", "nodes": [{"head": h, "index": i} for i, h in enumerate(heads, 1)]},
                   sort_keys=True) + "\n"
        for k, heads in enumerate([(2, 0), *bad])
    )
    with_form = '{"id": "f", "nodes": [{"form": "w", "head": 0, "index": 1}]}'
    calls = []
    loads = treebank.json.loads
    monkeypatch.setattr(treebank.json, "loads", lambda text: calls.append(text) or loads(text))
    assert len(list(iter_parse(path.read_bytes(), "canonical"))) == 20
    rejections = []
    assert [s.id for s in iter_parse(dumped, "canonical", errors="skip", rejections=rejections)] == ["b0"]
    assert [r.reason for r in rejections] == [
        "b1: cycle through node 1", "b2: node 1 heads itself", "b3: multiple roots at positions [1, 2]",
        "b4: node 3 head 7 out of range 1..3"]
    assert calls == []
    assert [s.id for s in iter_parse(with_form, "canonical")] == ["f"]
    assert calls == [with_form]


def test_generate_respects_out_degree_cap(tmp_path, capsys):
    path = tmp_path / "capped.jsonl"
    code, _, _ = run(
        ["generate", "--n", "10", "--count", "50", "--seed", "2", "--max-root-out-degree", "4", "-o", str(path)],
        capsys,
    )
    assert code == 0
    for sent in iter_parse(path.read_bytes(), "canonical"):
        assert metric_record(sent).root_out_degree <= 4


def test_generate_constraint_conflicts_and_bad_caps(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--n", "5", "--seed", "1", "--constraint", "chain", "--max-root-out-degree", "2"],
        capsys,
    )
    assert code == 2
    code, _, err = run(["generate", "--n", "5", "--seed", "1", "--max-root-out-degree", "0"], capsys)
    assert code == 2


def test_generate_holds_one_tree_not_the_output(tmp_path):
    def peak(count: int) -> int:
        tracemalloc.start()
        try:
            code = main(["generate", "--n", "40", "--count", str(count), "--seed", "1",
                         "-o", str(tmp_path / f"random{count}.jsonl")])
            _, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return high

    assert peak(8 * 1000) < 2 * peak(1000)


def test_generate_then_report_round_trip(tmp_path, capsys):
    corpus = tmp_path / "gen.jsonl"
    code, _, _ = run(["generate", "--n", "8", "--count", "40", "--seed", "13", "-o", str(corpus)], capsys)
    assert code == 0
    out_dir = tmp_path / "out"
    code, _, _ = run(["report", str(corpus), "--output-dir", str(out_dir), "--min-bucket", "3"], capsys)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["sentence_counts"]["accepted"] == 40
    assert report["meta"]["sentence_counts"]["rejected"] == 0


def test_entropy_base_flag_rescales_series(data_dir, tmp_path, capsys):
    import math

    corpus = str(data_dir / "sample_200.jsonl")
    bits_dir, nats_dir = tmp_path / "bits", tmp_path / "nats"
    assert run(["entropy", corpus, "--output-dir", str(bits_dir), "--min-bucket", "3"], capsys)[0] == 0
    assert run(
        ["entropy", corpus, "--output-dir", str(nats_dir), "--min-bucket", "3", "--entropy-base", "e"],
        capsys,
    )[0] == 0

    def rows(path):
        out = {}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            metric, sl, value, _ = line.split(",")
            out[(metric, int(sl))] = float(value)
        return out

    bits = rows(bits_dir / "entropy.csv")
    nats = rows(nats_dir / "entropy.csv")
    assert bits and bits.keys() == nats.keys()
    for key, value in bits.items():
        assert nats[key] == pytest.approx(value * math.log(2.0), abs=2e-4)


def test_log_base_flag_rescales_hd1_slope(class4_corpus, tmp_path, capsys):
    import math

    corpus = str(class4_corpus)
    e_dir, ten_dir = tmp_path / "e", tmp_path / "ten"
    assert run(["valency", corpus, "--output-dir", str(e_dir)], capsys)[0] == 0
    assert run(["valency", corpus, "--output-dir", str(ten_dir), "--log-base", "10"], capsys)[0] == 0

    def hd1_slopes(path):
        out = {}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            fields = line.split(",")
            if fields[0] == "hd1":
                out[int(fields[1])] = float(fields[3])
        return out

    natural = hd1_slopes(e_dir / "valency_fit.csv")
    base10 = hd1_slopes(ten_dir / "valency_fit.csv")
    assert natural and natural.keys() == base10.keys()
    assert natural[4] != 0  # a slope of 0 is the same in every base
    for valency, slope in natural.items():
        assert base10[valency] == pytest.approx(slope * math.log(10.0), abs=2e-3)


def test_metrics_dump_to_stdout(data_dir, capsys):
    code, out, _ = run(["metrics", str(data_dir / "sample.cabocha")], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    assert json.loads(lines[1])["sl"] == 7


def test_internal_errors_exit_three(data_dir, capsys, monkeypatch):
    import depmetrics.cli as cli_module

    def boom(config, corpus, command):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_module, "compute_analyses", boom)
    code, _, err = run(["report", str(data_dir / "sample_200.jsonl")], capsys)
    assert code == 3
    assert err == "internal error: RuntimeError('synthetic failure')\n"


EXIT_STATUS = {
    errors.InputError: 1,
    errors.InvalidEncoding: 1,
    errors.MalformedLine: 1,
    errors.MalformedChunkHeader: 1,
    errors.MissingEOS: 1,
    errors.InvalidTree: 1,
    errors.MultipleRoots: 1,
    errors.NoRoot: 1,
    errors.CycleDetected: 1,
    errors.SelfLoop: 1,
    errors.EmptySelection: 1,
    errors.EmptyLexicon: 1,
    OSError: 1,
    errors.ConfigError: 2,
    errors.ConstraintUnsatisfiable: 2,
    errors.DepMetricsError: 3,
    errors.TooShort: 3,
    errors.EmptyDistribution: 3,
    errors.DegenerateInput: 3,
    errors.NonPositiveX: 3,
}


def test_exit_status_table_names_every_error_class():
    classes = {value for value in vars(errors).values() if isinstance(value, type)}
    assert classes | {OSError} == set(EXIT_STATUS)


@pytest.mark.parametrize("error", EXIT_STATUS, ids=lambda error: error.__name__)
def test_exit_status_follows_the_error_class(error, data_dir, capsys, monkeypatch):
    import depmetrics.cli as cli_module

    def fail(config, corpus, command):
        raise error("synthetic")

    monkeypatch.setattr(cli_module, "compute_analyses", fail)
    code, out, err = run(["trend", str(data_dir / "sample_200.jsonl")], capsys)
    assert code == EXIT_STATUS[error]
    assert out == ""
    prefix = {1: "input error: synthetic", 2: "config error: synthetic", 3: f"internal error: {error.__name__}("}
    assert err.startswith(prefix[code])


def test_partial_outputs_removed_on_write_failure(tmp_path):
    from depmetrics.report import write_outputs

    files = {"ok.csv": "a,b\n", "sub/dir/broken.csv": "c,d\n"}  # second write fails
    with pytest.raises(OSError):
        write_outputs(str(tmp_path), files)
    assert not (tmp_path / "ok.csv").exists()


def test_main_leaves_the_heap_unfrozen(data_dir, tmp_path, capsys):
    # only the process entry point freezes; a caller of main() keeps its garbage collectable
    before = gc.get_freeze_count()
    code, _, _ = run(["metrics", str(data_dir / "sample_200.jsonl"), "-o", str(tmp_path / "m.jsonl")], capsys)
    assert code == 0
    assert gc.get_freeze_count() == before


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, found out at the first write or only at the flush."""

    def __init__(self, fails_at: str) -> None:
        super().__init__()
        self.fails_at = fails_at

    def write(self, text: str) -> int:
        if self.fails_at == "write":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)

    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("fails_at", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "sample_200.jsonl"],
        ["metrics", "sample_200.jsonl"],
        ["generate", "--n", "5", "--count", "3", "--seed", "1"],
        ["trend", "sample_200.jsonl", "--output-dir"],
    ],
    ids=["validate", "metrics", "generate", "trend"],
)
def test_main_returns_141_on_a_closed_stdout_and_leaves_fd_1_alone(
    argv, fails_at, data_dir, tmp_path, capsys, monkeypatch
):
    def no_dup2(*args):
        raise AssertionError("main touched a file descriptor")

    argv = [str(data_dir / a) if a.endswith(".jsonl") else a for a in argv]
    argv += [str(tmp_path)] if argv[-1] == "--output-dir" else []
    with monkeypatch.context() as patch:  # undone before pytest's own capture needs dup2 again
        patch.setattr(os, "dup2", no_dup2)
        patch.setattr(sys, "stdout", ClosedStdout(fails_at))
        code = main(argv)
    assert code == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("case", sorted(closed_stdout.CASES))
def test_a_closed_stdout_exits_141_silently_and_leaves_no_temporary_file(case, buffering, tmp_path):
    status, stderr, left = closed_stdout.run_case(case, tmp_path, buffering == "buffered")
    assert (status, stderr, left) == (141, [], [])


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "depmetrics", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "depmetrics" in result.stdout


def _child_env(**variables):
    """The environment of a child that imports this checkout's package from any directory."""
    src = os.pathsep.join(filter(None, [str(closed_stdout.ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=src, **variables)


def _run_with_ascii_stdout(argv, cwd):
    """``python -m depmetrics ARGV`` in ``cwd`` with an ASCII stdout whose error handler is strict."""
    return subprocess.run([sys.executable, "-m", "depmetrics", *argv], cwd=cwd,
                          env=_child_env(PYTHONIOENCODING="ascii"), capture_output=True, encoding="ascii")


def test_a_rejection_reason_that_an_ascii_stdout_cannot_encode_is_written_escaped(tmp_path):
    (tmp_path / "bad.cabocha").write_text("* 0 \u3042D\nx\ty,z\nEOS\n", encoding="utf-8")
    result = _run_with_ascii_stdout(["validate", "bad.cabocha"], tmp_path)
    assert result.returncode == 1, result.stderr
    assert "internal error" not in result.stderr
    reason = "line 1: bad chunk header '* 0 \\u3042D'"
    assert result.stdout.splitlines()[-3:] == [
        "bad.cabocha: 0 accepted, 1 rejected", f"  bad.cabocha:1-3: {reason}", "TOTAL: 0 accepted, 1 rejected"]


def test_an_output_path_that_an_ascii_stdout_cannot_encode_is_written_escaped(data_dir, tmp_path):
    result = _run_with_ascii_stdout(["trend", str(data_dir / "sample_ud.conllu"), "--output-dir", "\u51fa\u529b"],
                                    tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "wrote \\u51fa\\u529b/trend.csv\nwrote \\u51fa\\u529b/meta.json\n"
    assert sorted(path.name for path in (tmp_path / "\u51fa\u529b").iterdir()) == ["meta.json", "trend.csv"]


def test_a_lone_surrogate_escape_is_a_counted_rejection(tmp_path):
    """Its rejection reason would quote the string, which report.json and a C-locale stdout
    (surrogateescape) cannot encode; the line is refused without quoting it."""
    lines = ['{"id": "a\\ud800", "nodes": [{"head": 2, "index": 1}, {"head": 1, "index": 2}]}',
             '{"id": "b", "nodes": [{"head": 0, "index": 1}, {"head": 1, "index": 2}]}',
             '{"id": "c", "nodes": [{"head": 2, "index": 1}, {"head": 0, "index": 2}]}']
    (tmp_path / "s.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")
    reason = "line 1: a string holds a lone surrogate, which has no UTF-8 form"
    result = subprocess.run([sys.executable, "-m", "depmetrics", "report", "s.jsonl", "--output-dir", "out"],
                            cwd=tmp_path, env=_child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["meta"]["sentence_counts"] == {"accepted": 2, "rejected": 1, "single_node": 0}
    assert report["rejections"] == [{"reason": reason, "sentence_id": None, "source": "s.jsonl:1"}]
    result = subprocess.run([sys.executable, "-m", "depmetrics", "validate", "s.jsonl"],
                            cwd=tmp_path, env=_child_env(LC_ALL="C"), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-3:] == [
        "s.jsonl: 2 accepted, 1 rejected", f"  s.jsonl:1: {reason}", "TOTAL: 2 accepted, 1 rejected"]


def test_an_input_name_that_is_not_utf8_is_written_as_its_json_escape(data_dir, tmp_path):
    name = os.fsdecode(b"x\xff.jsonl")  # "x\udcff.jsonl"
    (tmp_path / name).write_bytes((data_dir / "sample_200.jsonl").read_bytes())
    result = subprocess.run([sys.executable, "-m", "depmetrics", "report", name, "--output-dir", "out"],
                            cwd=tmp_path, env=_child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    meta = (tmp_path / "out" / "meta.json").read_bytes()
    assert [entry["path"] for entry in json.loads(meta)["inputs"]] == [name]
    assert b'"path": "x\\udcff.jsonl"' in meta


def test_the_entry_point_starts_without_a_stdout():
    result = subprocess.run([sys.executable, "-m", "depmetrics", "--version"], stderr=subprocess.PIPE,
                            preexec_fn=lambda: os.close(1), env=_child_env(), text=True)
    assert (result.returncode, result.stderr) == (0, f"depmetrics {__version__}\n")


@pytest.mark.parametrize("command", ["validate", "metrics"])
def test_a_corpus_command_runs_without_a_stdout(command, data_dir):
    result = subprocess.run([sys.executable, "-m", "depmetrics", command, str(data_dir / "sample_200.jsonl")],
                            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), env=_child_env(), text=True)
    assert result.returncode == 0, result.stderr
    assert "internal error" not in result.stderr


def test_failed_write_keeps_previous_outputs_intact(tmp_path):
    from depmetrics.report import write_outputs

    write_outputs(str(tmp_path), {"a.csv": "old a\n", "b.csv": "old b\n"})
    # a lone surrogate cannot be encoded, so the second file fails mid-run
    with pytest.raises(UnicodeEncodeError):
        write_outputs(str(tmp_path), {"a.csv": "new a\n", "b.csv": "new \ud800\n"})
    assert (tmp_path / "a.csv").read_bytes() == b"old a\n"
    assert (tmp_path / "b.csv").read_bytes() == b"old b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "sample_200.jsonl", "-o"],
        ["generate", "--n", "5", "--count", "3", "--seed", "1", "-o"],
    ],
)
def test_output_file_is_replaced_only_once_written(argv, data_dir, tmp_path, capsys, monkeypatch):
    import os

    target = tmp_path / "previous.txt"
    target.write_text("previous run\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    argv = [str(data_dir / a) if a.endswith(".jsonl") else a for a in argv]
    code, _, err = run([*argv, str(target)], capsys)
    assert code == 1
    assert "rename refused" in err
    assert target.read_text(encoding="utf-8") == "previous run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["previous.txt"]


# --- output targets that are not regular files ---------------------------------------

GENERATE = ["generate", "--n", "5", "--count", "2", "--seed", "1"]


def read_fifo_while(fifo, command):
    """Run ``command()`` while a thread reads the FIFO ``fifo`` to its end; return the bytes read."""
    inode = fifo.with_name(fifo.name + ".inode")
    os.link(fifo, inode)  # the reader keeps the FIFO even if the command renames a file over ``fifo``
    received = []
    reader = threading.Thread(target=lambda: received.append(inode.read_bytes()), daemon=True)
    reader.start()
    try:
        command()
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # the command never opened the FIFO: give the reader an end of file
            os.close(os.open(inode, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert not reader.is_alive()
    return received[0]


@pytest.mark.parametrize("through_symlink", [False, True])
def test_output_onto_a_fifo_is_written_into_it(through_symlink, tmp_path, capsys):
    _, expected, _ = run(GENERATE, capsys)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    target = fifo
    if through_symlink:
        target = tmp_path / "link"
        target.symlink_to(fifo)
    result = []
    received = read_fifo_while(fifo, lambda: result.append(run([*GENERATE, "-o", str(target)], capsys)))
    assert result[0][0] == 0
    assert received == expected.encode("utf-8")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert target.is_symlink() == through_symlink
    names = ["fifo", "fifo.inode", "link"] if through_symlink else ["fifo", "fifo.inode"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_output_through_a_symlink_rewrites_its_target_and_keeps_the_link(tmp_path, capsys):
    from depmetrics.report import write_files

    (tmp_path / "real").mkdir()
    (tmp_path / "links").mkdir()
    target = tmp_path / "real" / "out.jsonl"
    target.write_text("previous run\n", encoding="utf-8")
    link = tmp_path / "links" / "out.jsonl"
    link.symlink_to(target)
    with pytest.raises(UnicodeEncodeError):
        write_files({link: ["new \ud800\n"]})
    assert os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "previous run\n"

    _, expected, _ = run(GENERATE, capsys)
    code, _, _ = run([*GENERATE, "-o", str(link)], capsys)
    assert code == 0
    assert os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == expected
    assert [p.name for p in (tmp_path / "real").iterdir()] == ["out.jsonl"]
    assert [p.name for p in (tmp_path / "links").iterdir()] == ["out.jsonl"]
