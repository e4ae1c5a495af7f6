"""End-to-end runs of every CLI subcommand on a micro corpus."""

import contextlib
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import fields

from charqa.carn import VARIANT_LABELS, ModalityConfig, Model
from charqa.castlist import build_cast_list, count_speakers, scaled_min_count
from charqa.cli import build_parser, main
from charqa.corpus import GenConfig, read_corpus
from charqa.harness import METRICS_COLUMNS, evaluate, metrics_csv_text

TRAIN_JSON = {
    "epochs": 2,
    "batch_size": 8,
    "model": {"d_model": 8, "d_ff": 12, "d_h1": 6, "heads": 2},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, train config, and checkpoint produced through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    rc = main(["gen", "--out", str(d / "corpus.jsonl"), "--k", "2", "--extras", "1",
               "--clips", "6", "--d-f", "12", "--seed", "9"])
    assert rc == 0
    (d / "train.json").write_text(json.dumps(TRAIN_JSON), encoding="utf-8")
    rc = main(["train", "--corpus", str(d / "corpus.jsonl"),
               "--out", str(d / "model.npz"),
               "--metrics", str(d / "train_report.json"),
               "--config", str(d / "train.json")])
    assert rc == 0
    return d


class TestGen:
    def test_writes_corpus(self, workdir, capsys):
        rc = main(["gen", "--out", str(workdir / "again.jsonl"), "--k", "2",
                   "--extras", "1", "--clips", "3", "--d-f", "12", "--seed", "1"])
        assert rc == 0
        assert "wrote 3 clips" in capsys.readouterr().out
        assert len(read_corpus(workdir / "again.jsonl")) == 3

    def test_flags_are_the_config_fields(self, tmp_path):
        # Every GenConfig field has a gen flag whose dest is the field's name.
        args = build_parser().parse_args(["gen", "--out", str(tmp_path / "c.jsonl")])
        dests = set(vars(args)) - {"cmd", "fn", "out", "config"}
        assert dests == {f.name for f in fields(GenConfig)}

    def test_invalid_config_fails(self, workdir, capsys):
        # Every bad --config, for gen and for the training commands, is a
        # one-line error naming what is wrong, never a traceback.
        corpus = str(workdir / "corpus.jsonl")
        commands = {
            "gen": ["gen", "--out", str(workdir / "nope.jsonl")],
            "train": ["train", "--corpus", corpus, "--out", str(workdir / "nope.npz")],
            "ablate": ["ablate", "--corpus", corpus, "--out", str(workdir / "nope.csv")],
        }
        cases = [
            ("gen", json.dumps({"cooccur_rho": 1.5}), "cooccur_rho"),
            ("gen", json.dumps({"n_clipz": 3}), "n_clipz"),
            ("gen", json.dumps([1, 2]), "JSON object"),
            ("gen", "{not json", "malformed JSON"),
            ("gen", json.dumps({"n_clips": "3"}), "n_clips"),
            ("gen", json.dumps({"noise_sigma": True}), "noise_sigma"),
            ("gen", json.dumps({"frames_per_clip": 7}), "frames_per_clip"),
            ("gen", json.dumps({"seed": -1}), "seed"),
            ("gen", json.dumps({"human_words": ["dude"]}), "unknown field 'human_words'"),
            ("gen", json.dumps({"fps": 2.0}), "unknown field 'fps'"),
            ("gen", json.dumps({"object_noise_rate": 0.0}), "unknown field 'object_noise_rate'"),
            ("gen", json.dumps({"qa_templates": ["visual"]}), "unknown field 'qa_templates'"),
            ("train", json.dumps({"epochz": 1}), "epochz"),
            ("train", json.dumps([1, 2]), "JSON object"),
            ("train", json.dumps({"modality": 5}), "modality"),
            ("train", json.dumps({"model": {"d_modl": 8}}), "d_modl"),
            # The network's depth is fixed, not a setting.
            ("train", json.dumps({"model": {"enc_layers": 3}}),
             "model: unknown field 'enc_layers'"),
            ("train", "{not json", "malformed JSON"),
            ("train", json.dumps({"epochs": "2"}), "epochs"),
            ("train", json.dumps({"epochs": True}), "epochs"),
            ("train", json.dumps({"model": {"d_model": 8.0}}), "d_model"),
            ("train", json.dumps({"epsilon": 0.3}), "unknown field 'epsilon'"),
            ("train", json.dumps({"model": {"epsilon": 1.0}}), "epsilon"),
            ("ablate", json.dumps({"epochz": 1}), "epochz"),
            ("ablate", json.dumps({"modality": ["Sub"]}), "modality"),
            ("ablate", "", "malformed JSON"),
        ]
        bad = workdir / "bad_config.json"
        for cmd, text, needle in cases:
            bad.write_text(text, encoding="utf-8")
            rc = main(commands[cmd] + ["--config", str(bad)])
            err = capsys.readouterr().err
            assert rc == 1, (cmd, text)
            assert err.startswith("error: ") and err.count("\n") == 1, (cmd, text, err)
            assert needle in err, (cmd, text, err)
        assert not (workdir / "nope.npz").exists()


@pytest.mark.parametrize("argv, config, field", [
    pytest.param(["train"], '{"model": {"heads": 0}}', "heads", id="heads-0"),
    pytest.param(["train"], '{"learning_rate": NaN}', "learning_rate", id="lr-nan"),
    pytest.param(["train"], '{"learning_rate": Infinity}', "learning_rate", id="lr-inf"),
    pytest.param(["train"], '{"lam": Infinity}', "lam", id="lam-inf"),
    pytest.param(["train"], '{"max_ratio": 2.0}', "max_ratio", id="max-ratio-2"),
    pytest.param(["train", "--max-ratio", "2"], None, "max_ratio", id="max-ratio-flag-2"),
    pytest.param(["train"], '{"min_count": 0}', "min_count", id="min-count-0"),
    # Targets smoothed by 0 make the naming loss infinite; a run without an
    # epoch never reaches it, and must not save a checkpoint either.
    pytest.param(["train", "--epsilon", "0", "--epochs", "0"], None, "epsilon must be in (0, 1)",
                 id="epsilon-0"),
    pytest.param(["ablate", "--epsilon", "0", "--epochs", "0"], None,
                 "epsilon must be in (0, 1)", id="ablate-epsilon-0"),
    pytest.param(["castlist", "--min-count", "0"], None, "min_count",
                 id="castlist-min-count-0"),
    pytest.param(["castlist", "--max-ratio", "2"], None, "max_ratio",
                 id="castlist-max-ratio-2"),
    pytest.param(["gen"], '{"noise_sigma": 1' + "0" * 400 + "}", "noise_sigma",
                 id="noise-sigma-huge-int"),
    # A noisy embedding's squared norm would overflow.
    pytest.param(["gen", "--noise", "1e154", "--d-f", "4"], None, "noise_sigma",
                 id="noise-1e154"),
    # 7.28 TiB of prototypes: refused at the boundary, not by the allocator.
    pytest.param(["gen", "--d-f", "1000000000000"], None, "d_f", id="d-f-huge"),
    # Cast names the generator would list until memory runs out.
    pytest.param(["gen", "--k", "1000000000000"], None, "k_principals", id="k-huge"),
    pytest.param(["gen", "--extras", "1000000000000"], None, "n_extras", id="extras-huge"),
    # Values argparse refuses, and -inf, which it reads as an option.
    pytest.param(["train", "--batch-size", "nan"], None,
                 "argument --batch-size: invalid int value: 'nan'", id="batch-size-nan"),
    pytest.param(["gen", "--rho", "-inf"], None, "argument --rho: expected one argument",
                 id="rho-minus-inf"),
])
def test_out_of_range_setting_is_one_line_error(workdir, tmp_path, capsys, argv, config,
                                                 field):
    # Python's json reads NaN and Infinity; neither, nor a number out of its
    # field's range, gets past the boundary.
    out = tmp_path / "out"
    argv = argv[:1] + (["--out", str(out)] if argv[0] != "castlist" else []) + argv[1:]
    if argv[0] != "gen":
        argv += ["--corpus", str(workdir / "corpus.jsonl")]
    if argv[0] == "train" and "--epochs" not in argv:
        argv += ["--epochs", "1"]  # a value that only poisons the parameters would still save
    if config is not None:
        (tmp_path / "config.json").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert field in err, err
    assert not out.exists()


def test_train_takes_d_f_from_corpus(tmp_path, capsys):
    corpus = str(tmp_path / "corpus.jsonl")
    assert main(["gen", "--out", corpus, "--k", "2", "--extras", "1", "--clips", "4",
                 "--d-f", "16", "--seed", "3"]) == 0
    rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "m.npz"), "--epochs", "1"])
    assert rc == 0, capsys.readouterr().err
    assert Model.load(tmp_path / "m.npz").params["naming.w1"].shape[0] == 16
    # The face size is no setting: a config that sets it, even to the
    # corpus' own size, stops before training.
    (tmp_path / "bad.json").write_text(json.dumps({"model": {"d_f": 16}}), encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "bad.npz"),
               "--config", str(tmp_path / "bad.json")])
    err = capsys.readouterr().err
    assert rc == 1 and err == "error: model: unknown field 'd_f'\n", err
    assert not (tmp_path / "bad.npz").exists()


def test_train_on_a_corpus_without_faces(tmp_path, capsys):
    # No face runs the naming head, so its input size is 1.
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen", "--out", str(corpus), "--k", "2", "--extras", "1", "--clips", "3",
                 "--d-f", "8", "--seed", "3"]) == 0
    records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    for record in records:
        for frame in record["frames"]:
            frame["faces"] = []
        record["truth"] = {}
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_JSON), encoding="utf-8")
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.npz"),
               "--epochs", "1", "--config", str(tmp_path / "train.json")])
    assert rc == 0, capsys.readouterr().err
    assert Model.load(tmp_path / "m.npz").params["naming.w1"].shape[0] == 1


def test_train_out_is_written_as_given(workdir, tmp_path, capsys):
    out = tmp_path / "mdl"
    rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out),
               "--config", str(workdir / "train.json"), "--epochs", "0"])
    assert rc == 0, capsys.readouterr().err
    assert f"checkpoint: {out}\n" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mdl"]
    rc = main(["eval", "--checkpoint", str(out), "--corpus", str(workdir / "corpus.jsonl")])
    assert rc == 0, capsys.readouterr().err


class TestCastlist:
    def test_prints_and_writes(self, workdir, capsys):
        out = workdir / "cast.json"
        rc = main(["castlist", "--corpus", str(workdir / "corpus.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out.read_text(encoding="utf-8"))
        assert payload["names"]
        assert all(isinstance(c, int) for c in payload["counts"])


class TestTrainEval:
    def test_negative_epochs_one_line_error(self, workdir, capsys):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--out", str(workdir / "never.npz"), "--epochs", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epochs" in err
        assert err.count("\n") == 1
        assert not (workdir / "never.npz").exists()

    def test_epsilon_sets_the_model_config(self, workdir, tmp_path, capsys):
        corpus = str(workdir / "corpus.jsonl")
        (tmp_path / "eps.json").write_text(
            json.dumps({**TRAIN_JSON, "epochs": 0,
                        "model": {**TRAIN_JSON["model"], "epsilon": 0.3}}), encoding="utf-8")
        for extra, want in ([], 0.3), (["--epsilon", "0.2"], 0.2):
            out = tmp_path / "eps.npz"
            rc = main(["train", "--corpus", corpus, "--out", str(out),
                       "--config", str(tmp_path / "eps.json")] + extra)
            assert rc == 0, capsys.readouterr().err
            assert Model.load(out).config.epsilon == want

    def test_bad_corpus_record_one_line_error(self, workdir, tmp_path, capsys):
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[1])
        faces = [fc for f in d["frames"] for fc in f["faces"]]
        faces[1]["face_id"] = faces[0]["face_id"]
        bad = tmp_path / "dup.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(d)] + lines[2:]) + "\n",
                       encoding="utf-8")
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.npz"),
                   "--epochs", "0"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: line 2: ") and err.count("\n") == 1, err
        assert "duplicate face_ids" in err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("path, value", [
        (("qas", 0, "ts_interval"), [0]),
        (("truth",), [1]),
        (("qas", 0, "question"), [1, 2]),
        (("frames", 0, "faces", 0, "embedding"), [[1.0], [0.0], [0.0], [0.0]]),
        (("subtitles", 0, "tokens"), "abc"),
        (("frames", 0, "objects", 0, "label"), 7),
        (("qas", 0, "correct_index"), True),
        (("qas", 0, "qtype"), "audio"),
        pytest.param(("frames", 0, "time"), 10 ** 400, id="time-huge"),
        pytest.param(("frames", 0, "time"), math.nan, id="time-nan"),
        pytest.param(("frames", 0, "time"), math.inf, id="time-inf"),
        pytest.param(("frames", 0, "time"), -3, id="time-negative"),
        pytest.param(("subtitles", 0, "t_start"), math.nan, id="t_start-nan"),
        pytest.param(("subtitles", 0, "t_start"), -1, id="t_start-negative"),
        pytest.param(("subtitles", 0, "t_end"), 10 ** 400, id="t_end-huge"),
        # int() reads each of these keys as face 0; only str(face_id) is a key.
        pytest.param(("truth",), {" 0 ": "x"}, id="truth-key-spaces"),
        pytest.param(("truth",), {"+0": "x"}, id="truth-key-plus"),
        pytest.param(("truth",), {"0_0": "x"}, id="truth-key-underscore"),
    ])
    def test_mistyped_corpus_field_one_line_error(self, workdir, tmp_path, capsys,
                                                  path, value):
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        field = record
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.npz"),
                   "--config", str(workdir / "train.json"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert re.match(f"error: line 1: bad clip record: [a-z ]*{path[-1]} must be", err), err

    @pytest.mark.parametrize("command", ["castlist", "semantics", "train"])
    def test_empty_question_or_answer_one_line_error(self, workdir, tmp_path, capsys, command):
        # An empty question or answer is refused as the record is read, not
        # at the first forward of training.
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["qas"][0]["question"] = []
        record["qas"][0]["answers"][2] = []
        bad = tmp_path / "empty.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main({"castlist": ["castlist", "--corpus", str(bad)],
                   "semantics": ["semantics", "dump", "--corpus", str(bad), "--modality",
                                 "objs_nm", "--out", str(out)],
                   "train": ["train", "--corpus", str(bad), "--out", str(out),
                             "--config", str(workdir / "train.json")]}[command])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err == "error: line 1: bad clip record: question must not be empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["face", "human"])
    def test_box_too_large_for_a_float_one_line_error(self, workdir, tmp_path, capsys,
                                                      where):
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        frame = record["frames"][0]
        box = frame["faces"][0]["box"] if where == "face" else frame["human_boxes"][0]["box"]
        box[2] = 10 ** 400
        bad = tmp_path / "huge.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
        rc = main(["castlist", "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: line 1: bad clip record:"), err

    @pytest.mark.parametrize("edit, needle", [
        pytest.param(lambda m: m["config"].update(d_model=8.0), "config: d_model must be",
                     id="d_model-float"),
        pytest.param(lambda m: m["config"].update(heads=2.0), "config: heads must be",
                     id="heads-float"),
        pytest.param(lambda m: m["cast"].update(counts=["x"] * len(m["cast"]["counts"])),
                     "cast count must be", id="cast-counts-string"),
        pytest.param(lambda m: m["cast"].update(names=m["cast"]["names"][:1] * 2,
                                                counts=[3, 3]),
                     "cast names must be unique", id="cast-names-repeat"),
        pytest.param(lambda m: m["cast"]["names"].__setitem__(-1, "UNKNAME"),
                     "UNKNAME is reserved", id="cast-names-unkname"),
        # Refused by the allocation itself, before any memory is touched.
        pytest.param(lambda m: m["config"].update(d_ff=10 ** 15), "Unable to allocate",
                     id="d_ff-too-large"),
    ])
    def test_malformed_checkpoint_meta_one_line_error(self, workdir, tmp_path, capsys, edit,
                                                      needle):
        blob = dict(np.load(workdir / "model.npz", allow_pickle=False))
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        edit(meta)
        blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        ckpt = tmp_path / "meta.npz"
        np.savez(ckpt, **blob)
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workdir / "corpus.jsonl")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "", captured
        assert captured.err.startswith(f"error: {ckpt}: malformed checkpoint meta ({needle}"), \
            captured
        assert captured.err.count("\n") == 1, captured

    def test_checkpoint_of_an_old_format_one_line_error(self, workdir, tmp_path, capsys):
        # A ckpt-3 file records the face size in its config as well as in
        # naming.w1; a ckpt-4 meta must hold the variant and the seed.
        ckpt = tmp_path / "old.npz"
        for edit, want in ((lambda m: m.update(version="charqa-ckpt-3"),
                            "unsupported checkpoint version 'charqa-ckpt-3'"
                            " (expected 'charqa-ckpt-4')"),
                           (lambda m: m.pop("variant"), f"{ckpt}: checkpoint meta lacks 'variant'"),
                           (lambda m: m.pop("seed"), f"{ckpt}: checkpoint meta lacks 'seed'")):
            blob = dict(np.load(workdir / "model.npz", allow_pickle=False))
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            edit(meta)
            blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez(ckpt, **blob)
            rc = main(["eval", "--checkpoint", str(ckpt),
                       "--corpus", str(workdir / "corpus.jsonl")])
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == "", captured
            assert captured.err == f"error: {want}\n"

    @pytest.mark.parametrize("reader", ["corpus", "config", "metrics"])
    def test_bytes_not_utf8_one_line_error(self, workdir, tmp_path, capsys, reader):
        # A 0xff byte opens the second line of each text input the CLI reads.
        corpus = str(workdir / "corpus.jsonl")
        if reader == "config":
            data = b'{"epochs": 1,\n\xff "seed": 2}\n'
        else:
            source = workdir / "corpus.jsonl" if reader == "corpus" else tmp_path / "eval.csv"
            if reader == "metrics":
                assert main(["eval", "--checkpoint", str(workdir / "model.npz"),
                             "--corpus", corpus, "--out", str(source)]) == 0
            first, rest = source.read_bytes().split(b"\n", 1)
            data = first + b"\n\xff" + rest
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        argv = {"corpus": ["castlist", "--corpus", str(bad)],
                "config": ["train", "--corpus", corpus, "--out", str(tmp_path / "m.npz"),
                           "--config", str(bad)],
                "metrics": ["report", "--metrics", str(bad)]}[reader]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        want = f"error: {bad}: not UTF-8" if reader == "config" else "error: line 2: not UTF-8"
        assert err.startswith(want), err

    def test_train_outputs(self, workdir):
        report = json.loads((workdir / "train_report.json").read_text(encoding="utf-8"))
        assert report["variant"]
        assert len(report["losses"]) == TRAIN_JSON["epochs"]
        assert (workdir / "model.npz").exists()

    def test_eval_both_ts_settings(self, workdir, capsys):
        out = workdir / "eval.csv"
        rc = main(["eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "w/ ts" in stdout and "w/o ts" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 3

    def test_eval_single_setting(self, workdir, capsys):
        rc = main(["eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl"), "--no-use-ts"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "w/o ts" in stdout and "w/ ts:" not in stdout

    def test_missing_checkpoint(self, workdir, capsys):
        rc = main(["eval", "--checkpoint", str(workdir / "missing.npz"),
                   "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        # Files that are not checkpoints: a one-line error from every
        # command that loads one.
        (workdir / "text.npz").write_text("not a checkpoint\n", encoding="utf-8")
        np.savez(workdir / "nometa.npz", w=np.zeros(3))
        corpus = str(workdir / "corpus.jsonl")
        for name in ("text.npz", "nometa.npz"):
            ckpt = str(workdir / name)
            for argv in (["eval", "--checkpoint", ckpt, "--corpus", corpus],
                         ["naming", "eval", "--checkpoint", ckpt, "--corpus", corpus],
                         ["semantics", "dump", "--corpus", corpus, "--modality", "objs_nm",
                          "--out", str(workdir / "never.jsonl"), "--checkpoint", ckpt]):
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc == 1, argv
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                assert "not a charqa checkpoint" in err, (argv, err)


    def test_non_finite_checkpoint_one_line_error(self, workdir, tmp_path, capsys):
        corpus = str(workdir / "corpus.jsonl")
        for key, index in (("naming.w1", (0, 0)), ("enc.l0.ffn.w1", ...)):
            blob = dict(np.load(workdir / "model.npz", allow_pickle=False))
            blob[key][index] = np.nan
            ckpt = tmp_path / "nan.npz"
            np.savez(ckpt, **blob)
            for argv in (["eval", "--checkpoint", str(ckpt), "--corpus", corpus],
                         ["naming", "eval", "--checkpoint", str(ckpt), "--corpus", corpus]):
                rc = main(argv)
                captured = capsys.readouterr()
                assert rc == 1, argv
                assert captured.err == (f"error: {ckpt}: tensor {key!r} must hold finite"
                                        " float64 values\n")
                assert captured.out == ""

    @pytest.mark.parametrize("probe", ["eval-huge-weights", "train-lr-1e30", "train-lambda-1e300"])
    def test_numeric_fault_one_line_error(self, workdir, tmp_path, capsys, probe):
        # Finite settings and weights that push activations or Adam's moments
        # out of float range: one error line, and training saves nothing.
        corpus, out = str(workdir / "corpus.jsonl"), tmp_path / "out"
        if probe == "eval-huge-weights":
            blob = dict(np.load(workdir / "model.npz", allow_pickle=False))
            blob["enc.l0.ffn.w1"] *= 1e300
            np.savez(tmp_path / "huge.npz", **blob)
            argv = ["eval", "--checkpoint", str(tmp_path / "huge.npz"), "--out", str(out)]
        else:
            flag, value = {"train-lr-1e30": ("--lr", "1e30"),
                           "train-lambda-1e300": ("--lambda", "1e300")}[probe]
            argv = ["train", "--out", str(out), "--config", str(workdir / "train.json"),
                    flag, value]
        rc = main(argv + ["--corpus", corpus])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: numeric fault") and err.count("\n") == 1, err
        assert not out.exists()

    def test_eval_character_outside_the_table_one_line_error(self, workdir, tmp_path, capsys):
        # A token that cannot embed is refused with its line before any
        # forward, so no clip is scored and nothing is written.
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        record["subtitles"][0]["tokens"] = ["café"]
        bad, out = tmp_path / "cafe.jsonl", tmp_path / "eval.csv"
        bad.write_text("\n".join(lines[:-1] + [json.dumps(record)]) + "\n", encoding="utf-8")
        rc = main(["eval", "--checkpoint", str(workdir / "model.npz"), "--corpus", str(bad),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (f"error: line {len(lines)}: token 'café': character 'é' "
                                "not in character table\n")
        assert captured.out == "" and not out.exists()

    def test_conflicting_modality_parts_one_line_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.npz"
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out),
                   "--config", str(workdir / "train.json"), "--modality", "Sub + Objs + Objs_nm"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: visual runs ('Objs', 'Objs_nm')") and err.count("\n") == 1
        assert not out.exists()

    def test_eval_defaults_to_the_trained_variant(self, workdir, tmp_path, capsys):
        corpus = str(workdir / "corpus.jsonl")
        rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "sub.npz"),
                   "--config", str(workdir / "train.json"), "--modality", "Sub"])
        assert rc == 0
        for name, extra in (("default.csv", []), ("sub.csv", ["--modality", "Sub"])):
            rc = main(["eval", "--checkpoint", str(tmp_path / "sub.npz"), "--corpus", corpus,
                       "--out", str(tmp_path / name)] + extra)
            assert rc == 0
        capsys.readouterr()
        default = (tmp_path / "default.csv").read_text(encoding="utf-8")
        assert default == (tmp_path / "sub.csv").read_text(encoding="utf-8")
        assert [row.split(",")[0] for row in default.splitlines()[1:]] == ["Sub", "Sub"]

    def test_eval_empty_modality_one_line_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        rc = main(["eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl"), "--modality", "",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "", captured.out
        assert captured.err == "error: at least one modality must be enabled\n"
        assert not out.exists()

    def test_eval_labels_the_trained_seed(self, workdir, tmp_path, capsys):
        corpus = str(workdir / "corpus.jsonl")
        rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "s5.npz"),
                   "--config", str(workdir / "train.json"), "--epochs", "1", "--seed", "5",
                   "--metrics", str(tmp_path / "s5.json")])
        assert rc == 0
        assert json.loads((tmp_path / "s5.json").read_text(encoding="utf-8"))["seed"] == 5
        rc = main(["eval", "--checkpoint", str(tmp_path / "s5.npz"), "--corpus", corpus,
                   "--out", str(tmp_path / "s5.csv")])
        assert rc == 0
        capsys.readouterr()
        rows = (tmp_path / "s5.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["5", "5"]

    def test_eval_modality_flag_runs_that_variant(self, workdir, tmp_path, capsys):
        # --modality makes the loaded full-variant model score and label
        # itself as Sub, the same rows as setting the variant on the model.
        ckpt = workdir / "model.npz"
        assert Model.load(ckpt).modality.label() == VARIANT_LABELS[-1]
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workdir / "corpus.jsonl"),
                   "--modality", "Sub", "--out", str(tmp_path / "sub.csv")])
        assert rc == 0
        capsys.readouterr()
        model = Model.load(ckpt)
        model.modality = ModalityConfig.from_label("Sub")
        clips = read_corpus(workdir / "corpus.jsonl")
        want = metrics_csv_text([evaluate(model, clips, use_ts=ts) for ts in (True, False)])
        assert (tmp_path / "sub.csv").read_text(encoding="utf-8") == want
        assert [row.split(",")[0] for row in want.splitlines()[1:]] == ["Sub", "Sub"]


class TestAblateReport:
    def test_grid_csv_and_table(self, workdir, capsys):
        out = workdir / "grid.csv"
        # Zero epochs keeps the 9-variant grid cheap; the pipeline is the point.
        rc = main(["ablate", "--corpus", str(workdir / "corpus.jsonl"),
                   "--out", str(out), "--config", str(workdir / "train.json"),
                   "--epochs", "0"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "wrote 18 rows" in stdout
        rc = main(["report", "--metrics", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "Sub + Objs_nm + Rels_nm" in table

    def test_report_rejects_foreign_header(self, workdir, capsys):
        bad = workdir / "foreign.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        rc = main(["report", "--metrics", str(bad)])
        assert rc == 1
        assert "unexpected metrics columns" in capsys.readouterr().err


    def test_report_bad_rows_one_line_error(self, workdir, capsys):
        header = ",".join(METRICS_COLUMNS)
        good = "Sub,1,0.5,0.5,0.5,0.5,0"
        cases = [
            ("Sub,1,abc,0.5,0.5,0.5,0", "line 3: could not convert"),
            ("Sub,1,0.5,0.5,1.5,0.5,0", "line 3: qa_acc_textual must be in [0, 1], got 1.5"),
            ("Sub,1,0.5,0.5,0.5,0.5", "line 3: 6 columns, expected 7"),
            ("Sub,2,0.5,0.5,0.5,0.5,0", "line 3: use_ts must be 0 or 1"),
            ("Sub,1,0.5,0.5,0.5,0.5,x", "line 3: invalid literal"),
        ]
        bad = workdir / "bad_rows.csv"
        for row, needle in cases:
            bad.write_text("\n".join([header, good, row]) + "\n", encoding="utf-8")
            rc = main(["report", "--metrics", str(bad)])
            err = capsys.readouterr().err
            assert rc == 1, row
            assert err.startswith(f"error: {needle}") and err.count("\n") == 1, (row, err)


    def test_report_keeps_seeds_apart(self, tmp_path, capsys):
        path = tmp_path / "seeds.csv"
        path.write_text("\n".join([",".join(METRICS_COLUMNS), "Sub,1,0.5,0.5,0.5,0.5,0",
                                   "Sub,1,0.7,0.5,0.5,0.5,1", "Sub,0,0.1,0.5,0.5,0.5,0"]) + "\n",
                        encoding="utf-8")
        rc = main(["report", "--metrics", str(path)])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["Sub", "0", "0.5000", "0.1000", "0.5000"],
                        ["Sub", "1", "0.7000", "nan", "0.5000"]]

    def test_report_repeated_row_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "repeat.csv"
        path.write_text("\n".join([",".join(METRICS_COLUMNS), "Sub,1,0.5,0.5,0.5,0.5,1",
                                   "Sub,0,0.5,0.5,0.5,0.5,1", "Sub,1,0.7,0.5,0.5,0.5,1"]) + "\n",
                        encoding="utf-8")
        rc = main(["report", "--metrics", str(path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: line 4: repeats the row of variant 'Sub', use_ts 1, seed 1\n"


class TestGradcheckCli:
    def test_pass(self, capsys):
        rc = main(["gradcheck", "--component", "naming", "--configs", "1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_code(self, capsys):
        rc = main(["gradcheck", "--component", "naming", "--configs", "1",
                   "--tolerance", "1e-18"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, needle", [
        ("--configs", "0", "n_configs must be in [1, inf), got 0"),
        ("--configs", "-3", "n_configs must be in [1, inf), got -3"),
        ("--tolerance", "0", "tolerance must be in (0, inf), got 0.0"),
        ("--tolerance", "nan", "tolerance must be in (0, inf), got NaN"),
        ("--seed", "-1", "seed must be in [0, inf), got -1"),
    ])
    def test_refused_setting_one_line_error(self, capsys, flag, value, needle):
        # A run that checks nothing, or passes nothing, must not print PASS.
        rc = main(["gradcheck", flag, value])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {needle}\n"


class TestSemanticsDump:
    def test_stream_jsonl(self, workdir, capsys):
        out = workdir / "streams.jsonl"
        rc = main(["semantics", "dump", "--corpus", str(workdir / "corpus.jsonl"),
                   "--modality", "objs_nm,rels_nm", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        corpus = read_corpus(workdir / "corpus.jsonl")
        assert len(lines) == sum(len(c.qas) for c in corpus)
        for line in lines:
            rec = json.loads(line)
            assert rec["use_ts"] is False
            assert len(rec["visual_tokens"]) == len(rec["visual_name_flags"])
            assert len(rec["subtitle_tokens"]) == len(rec["subtitle_name_flags"])

    def test_predicted_names_from_checkpoint(self, workdir):
        out = workdir / "streams_pred.jsonl"
        rc = main(["semantics", "dump", "--corpus", str(workdir / "corpus.jsonl"),
                   "--modality", "objs_nm,rels_nm", "--out", str(out),
                   "--checkpoint", str(workdir / "model.npz"), "--use-ts"])
        assert rc == 0
        recs = [json.loads(x) for x in out.read_text(encoding="utf-8").splitlines()]
        assert all(r["use_ts"] is True for r in recs)


    def test_checkpoint_cast_labels_the_streams(self, workdir, tmp_path, capsys):
        # With --max-ratio 1.0 the trained cast leaves out a principal that
        # default thresholds keep; the dump must use the checkpoint's cast.
        corpus = str(workdir / "corpus.jsonl")
        ckpt = tmp_path / "wide.npz"
        rc = main(["train", "--corpus", corpus, "--out", str(ckpt),
                   "--config", str(workdir / "train.json"), "--epochs", "0",
                   "--max-ratio", "1.0"])
        assert rc == 0, capsys.readouterr().err
        model = Model.load(ckpt)
        clips = read_corpus(corpus)
        counts = count_speakers(clips)
        default = build_cast_list(counts, min_count=scaled_min_count(sum(counts.values())))
        dropped = set(default.names) - set(model.cast.names)
        assert dropped
        out = tmp_path / "streams.jsonl"
        rc = main(["semantics", "dump", "--corpus", corpus, "--modality", "objs_nm,rels_nm",
                   "--out", str(out), "--checkpoint", str(ckpt)])
        assert rc == 0
        recs = [json.loads(x) for x in out.read_text(encoding="utf-8").splitlines()]
        labels = set(model.cast.label_names())
        speakers = {tok for r in recs
                    for tok, flag in zip(r["subtitle_tokens"], r["subtitle_name_flags"]) if flag}
        assert speakers <= labels and not speakers & dropped
        for r in recs:
            for tok, flag in zip(r["visual_tokens"], r["visual_name_flags"]):
                assert flag == (tok in model.cast)

    def test_dump_bytes_are_pinned(self, tmp_path, capsys):
        # Digests of the dumps with and without time stamps, recorded before
        # the stream builder was last restructured; the corpus digest tells a
        # changed generator from a changed stream.
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--out", str(corpus), "--clips", "12", "--seed", "4"]) == 0
        digests = {"corpus": hashlib.sha256(corpus.read_bytes()).hexdigest()}
        for flag in ("--use-ts", "--no-use-ts"):
            out = tmp_path / f"{flag}.jsonl"
            rc = main(["semantics", "dump", "--corpus", str(corpus),
                       "--modality", "objs_nm,rels_nm", "--out", str(out), flag])
            assert rc == 0, capsys.readouterr().err
            digests[flag] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "corpus": "c23e81e40048dcd2f04f3db05a73615d605a8f7ddd4d5f96c93cbc2c33165dfb",
            "--use-ts": "e2a1e971b992fe67fa9d678906d7bd6addff29b707b24d7ddedea3ccbe1dc5ab",
            "--no-use-ts": "dc3fe92e2085c3bc5f9613a67b14f49a51d0619b21734594991b19b0eb0b8e8b",
        }


class TestNamingEval:
    def test_prints_accuracy(self, workdir, capsys):
        rc = main(["naming", "eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        report = evaluate(Model.load(workdir / "model.npz"),
                          read_corpus(workdir / "corpus.jsonl"), use_ts=True)
        assert out.startswith(f"face_acc={report.face_acc:.4f} over {report.n_faces} faces")

    def test_names_each_clip_once_without_a_qa_forward(self, workdir, capsys, monkeypatch):
        named = []
        name_assignments = Model.name_assignments
        monkeypatch.setattr(Model, "name_assignments", lambda self, clip: (
            named.append(clip.clip_id) or name_assignments(self, clip)))
        monkeypatch.setattr(Model, "forward_item", None)  # calling it raises
        rc = main(["naming", "eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 0, capsys.readouterr().err
        assert named == [clip.clip_id for clip in read_corpus(workdir / "corpus.jsonl")]


# Flag values at the edges of every type. The flags that scale a run's cost
# take small numbers; every other flag takes the full range.
EDGE_VALUES = ["nan", "inf", "-inf", "1e400", ""]
SMALL_VALUES = st.sampled_from(["-1", "0", "1", "2", *EDGE_VALUES])
FULL_VALUES = st.sampled_from(["-1", "0", str(10 ** 12), *EDGE_VALUES])
SMALL_FLAGS = {"--clips", "--epochs", "--frames", "--configs"}
TRAIN_FLAGS = ["--epochs", "--batch-size", "--lr", "--lambda", "--epsilon", "--seed",
               "--min-count", "--max-ratio", "--modality"]
FUZZED_FLAGS = {
    "gen": ["--k", "--extras", "--clips", "--frames", "--noise", "--rho", "--d-f", "--seed"],
    "castlist": ["--min-count", "--max-ratio"],
    "train": TRAIN_FLAGS,
    "eval": ["--modality"],
    "ablate": TRAIN_FLAGS,
    "gradcheck": ["--tolerance", "--configs", "--seed"],
    "report": ["--metrics"],
    "semantics": ["--modality"],
    "naming": ["--checkpoint", "--corpus"],
}


@st.composite
def flag_edits(draw):
    """A subcommand and one or two of its flags, each with an edge value,
    given as "--flag value" or as "--flag=value"."""
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    args = []
    for flag in draw(st.lists(st.sampled_from(FUZZED_FLAGS[command]), min_size=1, max_size=2,
                              unique=True)):
        value = draw(SMALL_VALUES if flag in SMALL_FLAGS else FULL_VALUES)
        args += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return command, args


class TestFlagFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=flag_edits())
    # Cast sizes the generator would list until memory runs out.
    @example(case=("gen", ["--k", str(10 ** 12)]))
    @example(case=("gen", [f"--extras={10 ** 12}"]))
    def test_any_flag_value_runs_or_is_one_line_error(self, workdir, case):
        # The command exits 0, or 1 with one error line and no output file.
        command, args = case
        corpus, ckpt = str(workdir / "corpus.jsonl"), str(workdir / "model.npz")
        config, out = str(workdir / "train.json"), workdir / "flag_fuzz.out"
        out.unlink(missing_ok=True)
        argv = {
            "gen": ["gen", "--out", str(out), "--clips", "2", "--d-f", "4"],
            "castlist": ["castlist", "--corpus", corpus, "--out", str(out)],
            "train": ["train", "--corpus", corpus, "--out", str(out), "--config", config],
            "eval": ["eval", "--checkpoint", ckpt, "--corpus", corpus, "--out", str(out)],
            "ablate": ["ablate", "--corpus", corpus, "--out", str(out), "--config", config,
                       "--epochs", "0"],
            "gradcheck": ["gradcheck", "--component", "naming"],
            "report": ["report"],
            "semantics": ["semantics", "dump", "--corpus", corpus, "--out", str(out),
                          "--modality", "objs_nm"],
            "naming": ["naming", "eval", "--checkpoint", ckpt, "--corpus", corpus],
        }[command] + args
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        err = err.getvalue()
        assert rc == 0 or (rc == 1 and err.startswith("error: ") and err.count("\n") == 1
                           and not out.exists()), (argv, rc, err)


class TestByteMutationFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_edit_runs_or_is_refused(self, workdir, data):
        # One byte of a written corpus, train config or checkpoint has a bit
        # flipped, or is deleted or duplicated. No such edit grows a size
        # more than about 10x, so no edited input asks for much memory. Each
        # command that reads the input exits 0, or 1 with one error line.
        name = data.draw(st.sampled_from(["corpus.jsonl", "train.json", "model.npz"]))
        raw = (workdir / name).read_bytes()
        if name == "model.npz":
            # Most of a checkpoint is tensor data under a CRC, so the edit
            # lands in the 200 bytes from the start of a zip record: a local
            # header with the npy header after it, a central directory entry
            # or the end record.
            starts = [m.start() for m in re.finditer(rb"PK(\x01\x02|\x03\x04|\x05\x06)", raw)]
            pos = min(data.draw(st.sampled_from(starts)) + data.draw(st.integers(0, 199)),
                      len(raw) - 1)
        else:
            pos = data.draw(st.integers(0, len(raw) - 1))
        edit = data.draw(st.sampled_from(["flip", "delete", "duplicate"]))
        if edit == "flip":
            raw = raw[:pos] + bytes([raw[pos] ^ 1 << data.draw(st.integers(0, 7))]) + raw[pos + 1:]
        elif edit == "delete":
            raw = raw[:pos] + raw[pos + 1:]
        else:
            raw = raw[:pos + 1] + raw[pos:]
        fuzz = workdir / "fuzz"
        fuzz.mkdir(exist_ok=True)
        (fuzz / name).write_bytes(raw)
        corpus, ckpt = str(workdir / "corpus.jsonl"), str(workdir / "model.npz")
        mutated, out = str(fuzz / name), str(fuzz / "out")
        commands = {
            "corpus.jsonl": [["castlist", "--corpus", mutated],
                             ["semantics", "dump", "--corpus", mutated, "--modality",
                              "objs_nm,rels_nm", "--out", out],
                             ["eval", "--checkpoint", ckpt, "--corpus", mutated]],
            "train.json": [["train", "--corpus", corpus, "--out", out, "--config", mutated]],
            "model.npz": [["eval", "--checkpoint", mutated, "--corpus", corpus],
                          ["naming", "eval", "--checkpoint", mutated, "--corpus", corpus]],
        }[name]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            err = err.getvalue()
            assert rc == 0 or (rc == 1 and err.startswith("error: ") and err.count("\n") == 1), \
                (name, edit, pos, argv[0], rc, err)
