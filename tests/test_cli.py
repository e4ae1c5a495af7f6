"""End-to-end runs of every CLI subcommand on a micro corpus."""

import json

import numpy as np
import pytest

from charqa.carn import Model
from charqa.cli import main
from charqa.corpus import read_corpus
from charqa.harness import METRICS_COLUMNS, evaluate

TRAIN_JSON = {
    "epochs": 2,
    "batch_size": 8,
    "model": {"d_model": 8, "d_ff": 12, "d_h1": 6, "heads": 2, "d_f": 12},
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
            ("train", json.dumps({"epochz": 1}), "epochz"),
            ("train", json.dumps([1, 2]), "JSON object"),
            ("train", json.dumps({"modality": 5}), "modality"),
            ("train", json.dumps({"model": {"d_modl": 8}}), "d_modl"),
            ("train", "{not json", "malformed JSON"),
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


class TestNamingEval:
    def test_prints_accuracy(self, workdir, capsys):
        rc = main(["naming", "eval", "--checkpoint", str(workdir / "model.npz"),
                   "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        report = evaluate(Model.load(workdir / "model.npz"),
                          read_corpus(workdir / "corpus.jsonl"), use_ts=True)
        assert out.startswith(f"face_acc={report.face_acc:.4f} over {report.n_faces} faces")
