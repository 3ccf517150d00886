"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import random
from fractions import Fraction
from math import isqrt

import numpy as np

from conftest import FIG3_GRID, grid_to_ints, FIG1_GRID, FIG2_GRID
from etfkit.codes import certify_grbe, distance, frame_to_code, grey_rankin_bound
from etfkit.designs import affine_design, kirkman15, round_robin_design, steiner_params
from etfkit.flatmat import AbelianGroup, dft, drop_row_simplex, hadamard
from etfkit.frames import (
    harmonic_etf,
    kirkman_etf,
    mcfarland_as_kirkman,
    mcfarland_set,
    naimark_complement,
    steiner_etf,
)
from etfkit.metrics import certify_etf, coherence, gram_equal, rip_delta, spark, welch_bound

TOL = 1e-9


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


def _fig1():
    return steiner_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0))


def _fig2():
    return kirkman_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0), hadamard(2))


def test_criterion_1_figure1_reproduction():
    frame = _fig1()
    expected = grid_to_ints(FIG1_GRID)
    ok = (
        frame.scale_sq == 3
        and np.array_equal(frame.exact_ints, expected)
        and np.array_equal(frame.entries, expected.astype(np.complex128) / np.sqrt(3))
    )
    _verdict(1, "figure-1 reproduction (exact signs)", ok)


def test_criterion_2_figure2_reproduction():
    frame = _fig2()
    expected = grid_to_ints(FIG2_GRID)
    report = gram_equal(_fig1(), frame)
    ok = (
        frame.scale_sq == 6
        and np.array_equal(frame.exact_ints, expected)
        and report.exact
        and report.max_dev == 0.0
    )
    _verdict(2, "figure-2 reproduction + exact Gram equality", ok)


def test_criterion_3_figure3_reproduction():
    code = frame_to_code(_fig2())
    rows = FIG3_GRID.splitlines()
    expected_words = ["".join(row[n] for row in rows) for n in range(32)]
    expected_file = "\n".join(["# etfkit-code m=6 n=32 selfcomp=1"] + expected_words) + "\n"
    bound = grey_rankin_bound(6, 2)
    ok = (
        code.to_text() == expected_file
        and distance(code) == 2
        and bound.applicable
        and bound.value == 32
        and bound.value == code.count
    )
    _verdict(3, "figure-3 code byte-identical, distance 2, bound 32", ok)


def _corpus_frames():
    """Every constructed ETF in the certification corpus, labeled."""
    cases = [
        ("affine(2,1)", affine_design(2, 1), hadamard(4), hadamard(2)),
        ("affine(3,1)", affine_design(3, 1), dft(5), dft(3)),
        ("affine(2,2)", affine_design(2, 2), hadamard(8), hadamard(4)),
        ("round-robin(4)", round_robin_design(4), hadamard(4), hadamard(2)),
        ("round-robin(6)", round_robin_design(6), dft(6), dft(3)),
        ("round-robin(8)", round_robin_design(8), hadamard(8), hadamard(4)),
        ("kirkman15", kirkman15(), hadamard(8), dft(5)),
    ]
    for name, design, basis_for_simplex, class_basis in cases:
        simplex = drop_row_simplex(basis_for_simplex, 0)
        yield f"steiner {name}", steiner_etf(design, simplex)
        yield f"kirkman {name}", kirkman_etf(design, simplex, class_basis)
    for q, j, factors in [(2, 1, (2, 2)), (2, 1, (4,)), (3, 1, (5,))]:
        dset = mcfarland_set(q, j, AbelianGroup(factors))
        yield f"harmonic({q},{j},{factors})", harmonic_etf(dset.group, dset)


def test_criterion_4_welch_certification_sweep():
    ok = True
    for label, frame in _corpus_frames():
        cert = certify_etf(frame, tol=TOL)
        if not (cert.passed and cert.welch_gap <= TOL and cert.tightness_residual <= TOL):
            print(f"  corpus failure at {label}: gap={cert.welch_gap}, "
                  f"tightness={cert.tightness_residual}")
            ok = False
    _verdict(4, "Welch certification sweep over the corpus", ok)


def test_criterion_5_harmonic_design_crosscheck():
    _, _, rep_a = mcfarland_as_kirkman(2, 1, AbelianGroup((2, 2)))
    _, _, rep_b = mcfarland_as_kirkman(3, 1, AbelianGroup((5,)))
    ok = rep_a.max_entry_dev <= TOL and rep_b.max_entry_dev <= TOL
    _verdict(5, "difference-set vs design construction entrywise match", ok)


def test_criterion_6_spark_and_rip():
    fig1, fig2 = _fig1(), _fig2()
    ok = spark(fig1).spark == 4 and spark(fig2).spark == 4
    for frame in (fig1, fig2):
        ok = ok and rip_delta(frame, 2).delta < 1
        ok = ok and rip_delta(frame, 3).delta < 1
        ok = ok and rip_delta(frame, 4).delta >= 1

    a31 = steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0))
    report = spark(a31)
    # structural witness: the five columns sharing one point span <= 4 rows
    ok = ok and report.structural_witness == (0, 1, 2, 3, 4)
    ok = ok and report.structural_rank is not None and report.structural_rank <= 4
    ok = ok and report.spark == 5 and report.exact
    for size in (2, 3, 4, 5):
        delta = rip_delta(a31, size).delta
        ok = ok and ((delta < 1) == (size <= 4))
    _verdict(6, "spark 4 / RIP cutoffs exact; affine(3,1) spark 5", ok)


def _perturbation_corpus():
    yield frame_to_code(_fig2())
    yield frame_to_code(kirkman_etf(round_robin_design(8),
                                    drop_row_simplex(hadamard(8), 0), hadamard(4)))
    yield frame_to_code(kirkman_etf(affine_design(2, 2),
                                    drop_row_simplex(hadamard(8), 0), hadamard(4)))
    dset = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    yield frame_to_code(harmonic_etf(dset.group, dset))


def test_criterion_7_grbe_etf_verdicts_agree():
    from etfkit.codes import BinaryCode

    rng = random.Random(20260809)
    codes = list(_perturbation_corpus())
    ok = True
    for trial in range(200):
        base = codes[trial % len(codes)]
        half = base.count // 2
        word = rng.randrange(half)
        bit = rng.randrange(base.m)
        words = [list(w) for w in base.words]
        words[word][bit] ^= 1
        words[word + half][bit] ^= 1
        perturbed = BinaryCode(m=base.m, words=tuple(tuple(w) for w in words),
                               self_complementary=True)
        cert = certify_grbe(perturbed)
        if not cert.agrees:
            print(f"  disagreement at trial {trial}: bound={cert.bound_equality}, "
                  f"etf={cert.etf_passed}")
            ok = False
    _verdict(7, "bound-equality and ETF verdicts agree on 200 perturbations", ok)


def test_criterion_8_real_28x64_pipeline():
    frame = kirkman_etf(round_robin_design(8), drop_row_simplex(hadamard(8), 0), hadamard(4))
    mu = coherence(frame)
    code = frame_to_code(frame)
    cert = certify_grbe(code)
    ok = (
        (frame.m, frame.n) == (28, 64)
        and frame.is_sign_matrix
        and abs(mu - Fraction(1, 7)) <= Fraction(1, 10 ** 12)
        and code.count == 128
        and cert.delta == 12
        and cert.bound_value == 128
        and cert.bound_equality
        and cert.etf_passed
    )
    _verdict(8, "28x64 real flat ETF -> 28x128 bound-equality code", ok)


def test_criterion_9_naimark_complement():
    comp = naimark_complement(_fig2())
    mu = float(coherence(comp))
    ok = (comp.m, comp.n) == (10, 16) and abs(mu - 0.2) <= TOL
    ok = ok and certify_etf(comp, tol=TOL).passed
    _verdict(9, "Naimark complement is a 10x16 ETF with coherence 0.2", ok)


def test_criterion_10_integrality_ledger():
    ok = True
    for k in range(2, 7):
        for w in range(1, 21):
            v = w * k * (k - 1) + k
            rep = steiner_params(k, v)
            m, n = rep.m, rep.n
            ok = ok and rep.lam == w * (w * (k - 1) + 1)
            ok = ok and rep.lam * (n - 1) == m * (m - 1)
            ok = ok and isqrt(rep.degree) ** 2 == rep.degree
    _verdict(10, "feasibility arithmetic integral with square degree", ok)


def test_welch_bound_is_sharp_on_corpus():
    # companion check: the certified coherence never undercuts the bound, and
    # the frame potential sits at N^2/M for every tight frame in the corpus
    for label, frame in _corpus_frames():
        mu = float(coherence(frame))
        assert welch_bound(frame.m, frame.n) <= mu + TOL, label
        cert = certify_etf(frame)
        assert cert.potential_residual <= 1e-6 * frame.n ** 2 / frame.m, label
