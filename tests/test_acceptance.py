"""Acceptance gate. One test per criterion; each prints a PASS line with
the measured numbers so a -v run doubles as the scorecard.

Criteria 3-5 share one set of training runs on the reference corpus
(k=4, noise 0.1, rho 0.9, 200 clips): the full variant for naming accuracy
and the time-stamp protocol, plus Sub and Sub + Objs for the ablation
ordering. Medians are over training seeds 0/1/2 on the fixed corpus.
"""

import statistics
import time

import numpy as np
import pytest

from charqa.carn import ModalityConfig, ModelConfig
from charqa.castlist import build_cast_list
from charqa.errors import EmptyCastError
from charqa.corpus import GenConfig, generate_corpus
from charqa.harness import TrainConfig, evaluate, grad_check, metrics_csv_text, train
from charqa.naming import face_table, naming_forward, rkl_loss_with_grad

from oracles import oracle_rkl, random_rkl_instance

SEEDS = (0, 1, 2)
ABLATION_LABELS = ("Sub", "Sub + Objs", "Sub + Objs_nm + Rels_nm")
FULL = "Sub + Objs_nm + Rels_nm"

# Reference protocol for criteria 3-5. Small model + few epochs: the
# point of the ablation band is that the subtitles-only variant has not
# had the room to memorize the training items while the full variant has
# already learned to read the answer out of the windowed scene stream.
REFERENCE_MODEL = ModelConfig(d_model=32, d_ff=64)
REFERENCE_EPOCHS = 5


def reference_config(label, seed):
    return TrainConfig(epochs=REFERENCE_EPOCHS, seed=seed,
                       modality=ModalityConfig.from_label(label),
                       model=REFERENCE_MODEL)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GenConfig(k_principals=4, n_extras=2, n_clips=200,
                                     noise_sigma=0.1, cooccur_rho=0.9, seed=0))


@pytest.fixture(scope="module")
def reference_runs(corpus):
    """(label, seed) -> (model, report); wall time per label in `elapsed`."""
    runs = {}
    elapsed = {}
    for label in ABLATION_LABELS:
        t0 = time.perf_counter()
        for seed in SEEDS:
            runs[label, seed] = train(corpus, reference_config(label, seed))
        elapsed[label] = time.perf_counter() - t0
    runs["elapsed"] = elapsed
    return runs


def test_criterion_1_rkl_matches_triple_loop_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        _, rows, targets, rows_by_face, frame_groups = random_rkl_instance(rng)
        ours, _ = rkl_loss_with_grad(rows, targets)
        ref = oracle_rkl(rows_by_face, frame_groups)
        worst = max(worst, abs(ours - ref))
    dt = time.perf_counter() - t0
    assert worst <= 1e-9, f"rkl deviates from oracle by {worst:.3e}"
    assert dt < 5.0, f"oracle sweep took {dt:.1f}s (budget 5s)"
    print(f"\n[criterion 1] PASS rkl vs oracle: max |diff| {worst:.2e} "
          f"over 100 instances in {dt:.2f}s")


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    reports = grad_check("all", tolerance=1e-4, n_configs=10, seed=0)
    dt = time.perf_counter() - t0
    for rep in reports:
        worst = max(rep.worst.values())
        assert rep.passed, f"{rep.component} worst rel error {worst:.3e}\n{rep.format()}"
    assert dt < 120.0, f"gradient checks took {dt:.1f}s (budget 120s)"
    summary = ", ".join(f"{r.component} {max(r.worst.values()):.1e}" for r in reports)
    print(f"\n[criterion 2] PASS gradient checks (10 configs each, {dt:.1f}s): {summary}")


def test_criterion_3_weak_naming_accuracy(reference_runs):
    accs = [reference_runs[FULL, s][1].face_acc for s in SEEDS]
    med = statistics.median(accs)
    dt = reference_runs["elapsed"][FULL]
    assert med >= 0.85, f"median face accuracy {med:.4f} < 0.85 (seeds {accs})"
    assert dt < 600.0, f"3 joint trainings took {dt:.0f}s (budget 600s)"
    print(f"\n[criterion 3] PASS weak naming: median face acc {med:.4f} "
          f"(per seed {[round(a, 4) for a in accs]}, {dt:.0f}s for 3 seeds)")


def test_criterion_4_ablation_direction(reference_runs):
    acc = {label: [reference_runs[label, s][1].qa_acc_visual for s in SEEDS]
           for label in ABLATION_LABELS}
    med = {label: statistics.median(v) for label, v in acc.items()}
    sub, objs, full = med["Sub"], med["Sub + Objs"], med[FULL]
    # The gap clause states a per-seed quantity, so the median pairs runs
    # that share a training seed (same shuffle stream).
    gap = statistics.median(f - s for f, s in zip(acc[FULL], acc["Sub"]))
    dt = sum(reference_runs["elapsed"].values())
    assert 0.10 <= sub <= 0.30, f"Acc(Sub)={sub:.4f} outside the chance band [0.10, 0.30]"
    assert full >= objs >= sub, f"ordering violated: full {full:.4f}, objs {objs:.4f}, sub {sub:.4f}"
    assert gap >= 0.20, f"median per-seed gap {gap:.4f} < 0.20"
    assert dt < 1800.0, f"3 variants x 3 seeds took {dt:.0f}s (budget 1800s)"
    print(f"\n[criterion 4] PASS ablation direction: visual acc medians "
          f"Sub {sub:.4f} <= Sub+Objs {objs:.4f} <= full {full:.4f}, "
          f"median gap {gap:.4f} ({dt:.0f}s total)")


def test_criterion_5_timestamp_protocol(reference_runs, corpus):
    with_ts, without_ts = [], []
    for seed in SEEDS:
        model, report = reference_runs[FULL, seed]
        with_ts.append(report.qa_acc)  # training protocol evaluates w/ ts
        wo = evaluate(model, corpus, use_ts=False)
        without_ts.append(wo.qa_acc)
    w, wo = statistics.median(with_ts), statistics.median(without_ts)
    diff = statistics.median(a - b for a, b in zip(with_ts, without_ts))
    assert diff >= -0.02, f"median per-seed (w/ ts - w/o ts) {diff:.4f} < -0.02"
    print(f"\n[criterion 5] PASS protocol direction: median w/ ts {w:.4f} "
          f"vs w/o ts {wo:.4f} (median paired diff {diff:+.4f})")


def test_criterion_6_cast_list_rule():
    # Strict "more than 500": 500 lines is out, 501 is in.
    assert build_cast_list({"A": 501, "B": 500}, min_count=500).names == ("A",)
    with pytest.raises(EmptyCastError):
        build_cast_list({"A": 500}, min_count=500)
    # Ratio filter is >= 1/10 of the max over ALL speakers, inclusive.
    assert build_cast_list({"A": 1000, "B": 100, "C": 99},
                           min_count=50).names == ("A", "B")
    assert build_cast_list({"A": 5000, "B": 400, "C": 80},
                           min_count=60).names == ("A",)
    # Count-descending order with lexicographic tie break.
    cast = build_cast_list({"Zed": 700, "Amy": 700, "Bob": 900}, min_count=500)
    assert cast.names == ("Bob", "Amy", "Zed")
    assert cast.unk_index == cast.k == 3
    # The reference table: three principals survive, the guest fails the ratio.
    counts = {"Ted": 900, "Lily": 620, "Marshall": 510, "Guest": 60}
    assert build_cast_list(counts, min_count=500).names == ("Ted", "Lily", "Marshall")
    print("\n[criterion 6] PASS cast-list rule: strict min-count, inclusive "
          "1/10 ratio over all speakers, deterministic ordering")


def test_criterion_7_invariant_suite():
    from charqa import nn
    from charqa.carn import embed
    from charqa.corpus import QAItem
    from charqa.semantics import match_faces_to_humans, replace_names

    checks = []

    # Softmax rows normalize; answer distribution normalizes and is
    # equivariant under candidate permutation.
    small = generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=12,
                                      d_f=16, seed=21))
    cfg = TrainConfig(epochs=2, batch_size=16,
                      model=ModelConfig(d_model=16, d_ff=24, d_h1=8,
                                        heads=2, d_f=16))
    model, _ = train(small, cfg)
    clip = small[0]
    qa = clip.qas[0]
    names = model.name_assignments(clip)
    p_rows = naming_forward(model.params, face_table(clip)[1])
    assert np.allclose(p_rows.sum(axis=1), 1.0, atol=1e-12)
    p_a = model.score(clip, qa, names)
    assert np.isclose(p_a.sum(), 1.0, atol=1e-12)
    checks.append("softmax normalization")

    perm = [3, 0, 4, 1, 2]
    shuffled = QAItem([*qa.question], [qa.answers[j] for j in perm],
                      perm.index(qa.correct_index), qa.ts_interval, qa.qtype)
    p_b = model.score(clip, shuffled, names)
    assert np.allclose(p_a[perm], p_b, atol=1e-9)
    checks.append("answer-permutation equivariance")

    # Pad invariance of the encoder path.
    toks = ["who", "says", "coffee"]
    flags = [False, False, False]
    n_layers = cfg.model.enc_layers
    # A second stream, 4 tokens longer, pads the first by 4 rows.
    x, mask, _ = embed(model.params, model.vocab,
                       [(toks, flags), (toks + toks[:1] * 4, flags + flags[:1] * 4)])
    y_pad = nn.stack_forward(model.params, "enc", n_layers, x[0], key_mask=mask[0])[0][:3]
    x0, _, _ = embed(model.params, model.vocab, [(toks, flags)])
    y0 = nn.stack_forward(model.params, "enc", n_layers, x0[0])[0]
    assert np.max(np.abs(y_pad - y0)) <= 1e-6
    checks.append("pad invariance")

    # replace_names: idempotent, token-count preserving.
    seen = 0
    for c in small[:4]:
        for frame in c.frames:
            if not frame.triples or seen >= 6:
                continue
            seen += 1
            assignment = match_faces_to_humans(frame.faces,
                                               [b for b, _ in frame.human_boxes])
            once = replace_names(frame.triples, assignment, c.truth)
            twice = replace_names(once, assignment, c.truth)
            assert [t.tokens for t in once] == [t.tokens for t in twice]
            assert len(once) == len(frame.triples)
            for a, b in zip(frame.triples, once):
                assert len(a.tokens) == len(b.tokens) == 3
                assert a.predicate == b.predicate
    assert seen == 6
    checks.append("replace_names idempotence + token preservation")

    # Byte-level determinism of train + eval.
    m1, r1 = train(small, cfg)
    m2, r2 = train(small, cfg)
    assert metrics_csv_text([r1]) == metrics_csv_text([r2])
    assert sorted(m1.params) == sorted(m2.params)
    for key in m1.params:
        assert m1.params[key].tobytes() == m2.params[key].tobytes()
    e1 = evaluate(m1, small, use_ts=True)
    e2 = evaluate(m2, small, use_ts=True)
    assert e1.row() == e2.row()
    checks.append("seeded byte-level train/eval determinism")

    print("\n[criterion 7] PASS invariants: " + "; ".join(checks))
