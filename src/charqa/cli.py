"""Command-line interface.

Subcommands: gen, castlist, train, eval, ablate, gradcheck, report, plus the
inspection tools `semantics dump` and `naming eval`. Training options come
from a JSON config file with individual flag overrides. Any domain error
prints a one-line message and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from . import harness
from .carn import ModalityConfig, Model, clip_tokens, subtitle_stream
from .castlist import DEFAULT_MAX_RATIO, build_cast_list, count_speakers
from .corpus import (GenConfig, clip_view, config_kwargs, generate_corpus, read_corpus,
                     write_corpus)
from .errors import CharqaError, ConfigError, numeric_faults
from .harness import TrainConfig, evaluate, grad_check, train, write_metrics_csv
from .semantics import visual_stream


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) whose errors are main's one-line ConfigErrors."""

    @staticmethod
    def error(message):
        raise ConfigError(message)


def _add_train_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--modality", help='variant label, e.g. "Sub + Objs_nm + Rels_nm"')
    p.add_argument("--use-ts", action=argparse.BooleanOptionalAction, dest="use_ts")
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--max-ratio", type=float, dest="max_ratio")


def _read_config(path):
    """The parsed JSON of a --config file; ConfigError if it is not UTF-8
    or malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 ({e})") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON ({e})") from None


def _train_config(args) -> TrainConfig:
    cfg = TrainConfig.from_dict(_read_config(args.config)) if args.config else TrainConfig()
    # Each field but model has a flag of the same dest; --modality gives a label.
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
                 if getattr(args, f.name, None) is not None}
    if args.modality is not None:
        overrides["modality"] = ModalityConfig.from_label(args.modality)
    if args.epsilon is not None:
        overrides["model"] = replace(cfg.model, epsilon=args.epsilon)
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_gen(args) -> int:
    kw = config_kwargs(GenConfig, _read_config(args.config), "gen config") if args.config else {}
    for f in fields(GenConfig):  # each field has a flag of the same dest
        v = getattr(args, f.name)
        if v is not None:
            kw[f.name] = v
    cfg = GenConfig(**kw)
    clips = generate_corpus(cfg)
    write_corpus(clips, args.out)
    print(f"wrote {len(clips)} clips to {args.out}")
    return 0


def _cmd_castlist(args) -> int:
    clips = read_corpus(args.corpus)
    cast = build_cast_list(count_speakers(clips), min_count=args.min_count,
                           max_ratio=args.max_ratio)
    payload = cast.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload))
    return 0


def _cmd_train(args) -> int:
    clips = read_corpus(args.corpus)
    cfg = _train_config(args)
    model, report = train(clips, cfg)
    model.save(args.out)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"checkpoint: {args.out}")
    print(f"qa_acc={report.qa_acc:.4f} visual={report.qa_acc_visual:.4f} "
          f"textual={report.qa_acc_textual:.4f} face_acc={report.face_acc:.4f}")
    return 0


def _cmd_eval(args) -> int:
    model = Model.load(args.checkpoint)
    # Every token must embed: a character outside the checkpoint's table is
    # refused with its line, before any forward.
    clips = read_corpus(args.corpus, check=lambda clip: model.vocab.check_chars(
        clip_tokens(clip, model.cast)))
    if args.modality is not None:
        model.modality = ModalityConfig.from_label(args.modality)
    settings = [args.use_ts] if args.use_ts is not None else [True, False]
    reports = [evaluate(model, clips, use_ts=ts) for ts in settings]
    if args.out:
        write_metrics_csv(reports, args.out)
    for r in reports:
        tag = "w/ ts" if r.use_ts else "w/o ts"
        print(f"{tag}: qa_acc={r.qa_acc:.4f} visual={r.qa_acc_visual:.4f} "
              f"textual={r.qa_acc_textual:.4f} face_acc={r.face_acc:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    clips = read_corpus(args.corpus)
    cfg = _train_config(args)
    reports = harness.ablate(clips, cfg)
    write_metrics_csv(reports, args.out)
    print(harness.format_report(reports))
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = grad_check(args.component, tolerance=args.tolerance,
                         n_configs=args.configs, seed=args.seed)
    ok = True
    for rep in reports:
        print(rep.format())
        ok = ok and rep.passed
    return 0 if ok else 1


def _cmd_report(args) -> int:
    lines = []
    with open(args.metrics, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                lines.append(raw.decode("utf-8").strip())
            except UnicodeDecodeError as e:
                raise CharqaError(f"line {line_no}: not UTF-8 ({e})") from None
    header = (lines[0] if lines else "").split(",")
    if header != list(harness.METRICS_COLUMNS):
        raise CharqaError(f"unexpected metrics columns: {header}")
    reports = {}  # (variant, use_ts, seed) -> report
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        v = line.split(",")
        if len(v) != len(header):
            raise CharqaError(f"line {line_no}: {len(v)} columns, expected {len(header)}")
        if v[1] not in ("0", "1"):
            raise CharqaError(f"line {line_no}: use_ts must be 0 or 1, got {v[1]!r}")
        try:
            r = harness.MetricsReport(
                variant=v[0], use_ts=v[1] == "1", qa_acc=float(v[2]),
                qa_acc_visual=float(v[3]), qa_acc_textual=float(v[4]),
                face_acc=float(v[5]), seed=int(v[6]))
        except ValueError as e:
            raise CharqaError(f"line {line_no}: {e}") from None
        if reports.setdefault((r.variant, r.use_ts, r.seed), r) is not r:
            raise CharqaError(f"line {line_no}: repeats the row of variant {r.variant!r}, "
                              f"use_ts {v[1]}, seed {r.seed}")
    if not reports:
        raise CharqaError("metrics file has no rows")
    print(harness.format_report(reports.values()))
    return 0


def _cmd_semantics_dump(args) -> int:
    clips = read_corpus(args.corpus)
    modality = ModalityConfig.from_label(args.modality)
    model = Model.load(args.checkpoint) if args.checkpoint else None
    if model is not None:
        cast = model.cast
    else:
        cast = build_cast_list(count_speakers(clips), min_count=None)
    with open(args.out, "w", encoding="utf-8") as fh:
        for clip in clips:
            if model is not None:
                names = model.name_assignments(clip)
            elif clip.truth:
                names = {fid: n for fid, n in clip.truth.items() if n in cast}
            else:
                names = {}
            for qi, qa in enumerate(clip.qas):
                view = clip_view(clip, qa, args.use_ts)
                toks, flags = visual_stream(view.frames, modality.runs, names, cast)
                subs, sub_flags = subtitle_stream(view.subtitles, cast)
                fh.write(json.dumps({
                    "clip_id": clip.clip_id, "qa_index": qi,
                    "modality": modality.label(), "use_ts": args.use_ts,
                    "visual_tokens": toks, "visual_name_flags": flags,
                    "subtitle_tokens": subs, "subtitle_name_flags": sub_flags,
                }, separators=(",", ":")))
                fh.write("\n")
    print(f"wrote streams for {sum(len(c.qas) for c in clips)} items to {args.out}")
    return 0


def _cmd_naming_eval(args) -> int:
    model = Model.load(args.checkpoint)
    counts = [n for *_, n in harness.name_clips(model, read_corpus(args.corpus))]
    correct, total = sum(c for c, _ in counts), sum(n for _, n in counts)
    if total == 0:
        raise CharqaError("corpus has no faces with truth labels")
    print(f"face_acc={correct / total:.4f} over {total} faces")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="charqa", description="character-aware video-story QA")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with GenConfig fields")
    p.add_argument("--k", type=int, dest="k_principals",
                   help="number of principal characters")
    p.add_argument("--extras", type=int, dest="n_extras")
    p.add_argument("--clips", type=int, dest="n_clips")
    p.add_argument("--frames", type=int, dest="frames_per_clip")
    p.add_argument("--noise", type=float, dest="noise_sigma")
    p.add_argument("--rho", type=float, dest="cooccur_rho")
    p.add_argument("--d-f", type=int, dest="d_f")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("castlist", help="build the principal character list")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--max-ratio", type=float, dest="max_ratio", default=DEFAULT_MAX_RATIO)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_castlist)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path, written as given")
    p.add_argument("--metrics", help="write the metrics report as JSON")
    _add_train_overrides(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--modality", help="variant label (default: the checkpoint's)")
    p.add_argument("--use-ts", action=argparse.BooleanOptionalAction, dest="use_ts")
    p.add_argument("--out", help="write metrics CSV")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate all nine variants")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="metrics CSV path")
    _add_train_overrides(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--component", default="all",
                   choices=["all", *sorted(harness.GRAD_CHECKS)])
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--configs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("report", help="format a metrics CSV as a table")
    p.add_argument("--metrics", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("semantics", help="semantic stream tools")
    ssub = p.add_subparsers(dest="subcmd", required=True)
    pd = ssub.add_parser("dump", help="dump per-QA token streams")
    pd.add_argument("--corpus", required=True)
    pd.add_argument("--modality", required=True, help="e.g. objs_nm,rels_nm")
    pd.add_argument("--out", required=True)
    pd.add_argument("--checkpoint", help="use predicted names (default: truth sidecar)")
    pd.add_argument("--use-ts", action=argparse.BooleanOptionalAction,
                    dest="use_ts", default=False)
    pd.set_defaults(fn=_cmd_semantics_dump)

    p = sub.add_parser("naming", help="naming head tools")
    nsub = p.add_subparsers(dest="subcmd", required=True)
    pe = nsub.add_parser("eval", help="face-labeling accuracy vs truth")
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--corpus", required=True)
    pe.set_defaults(fn=_cmd_naming_eval)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with numeric_faults():
            return args.fn(args)
    except (CharqaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
