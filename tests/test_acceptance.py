"""End-to-end acceptance suite.  Each criterion prints one pass/fail line
(run pytest with -s to see them even on success)."""
import random
import time

from surfgroups import (
    KleinElement,
    certify_injectivity_ball,
    cokernel,
    consistency_sweep,
    dim_query,
    induced_sl2,
    ker_phi_mcgk,
    lift_configuration,
    nab_quotient_nonorientable,
    nab_quotient_orientable,
    phi1,
    phi1_closed_form,
    smith_normal_form,
    verify_all_presentations,
)
from surfgroups.dims import SurfaceSpec
from surfgroups.embeddings import DEFAULT_BALL_BOUND, GEN_B, PHI1_HOM, KleinPoint, MAT_I, deck
from surfgroups.klein import E1, MCG_K, klein_rewrite_rules, mcg_compose
from surfgroups.words import oracle_normal_form

from conftest import random_b2t, random_klein
from test_abelian import minor_gcd_invariants, nonorientable_relations, orientable_relations

MINUS_I = type(MAT_I)(-1, 0, 0, -1)


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_presentation_verification():
    reports = verify_all_presentations()
    counts = {name: len(rep.results) for name, rep in reports.items()}
    ok = (
        all(rep.passed for rep in reports.values())
        and counts["surface_generators"] == 8   # 5 relations (one doubled) + 2 useful
        and counts["delta_tau"] == 6            # 4 relations, two doubled
        and counts["full_group"] == 11          # relations (a)-(f), compound ones split
    )
    report(1, "presentation verification", ok)


def test_criterion_2_embedding_certificate():
    ok = PHI1_HOM.verify().passed
    ok = ok and phi1(KleinElement(0, 2)) == GEN_B
    for r in range(-20, 21):
        for s in range(-20, 21):
            if phi1_closed_form(r, s) != PHI1_HOM.evaluate(KleinElement(r, s).to_word()):
                ok = False
    report(2, "embedding certificate", ok)


def test_criterion_3_injectivity_at_desk_scale():
    start = time.perf_counter()
    ball = certify_injectivity_ball(DEFAULT_BALL_BOUND)
    elapsed = time.perf_counter() - start
    ok = ball.count == 16641 and not ball.collisions and elapsed < 5.0
    report(3, f"injectivity ball radius {DEFAULT_BALL_BOUND} ({elapsed:.2f}s)", ok)


def test_criterion_4_mcg_calculus():
    ok = len(set(MCG_K)) == 4
    for e in MCG_K:
        ok = ok and mcg_compose(e, e) == E1
        for f in MCG_K:
            ok = ok and mcg_compose(e, f) in MCG_K
    images = [induced_sl2(e) for e in MCG_K]
    ok = ok and images == [MAT_I, MAT_I, MINUS_I, MINUS_I]
    ok = ok and len(ker_phi_mcgk()) == 2
    report(4, "Klein-bottle mapping class calculus", ok)


def test_criterion_5_abelian_invariants():
    ok = True
    for g in range(1, 11):
        for k in range(1, 11):
            ok = ok and nab_quotient_orientable(g, k) == cokernel(orientable_relations(g, k))
            ok = ok and nab_quotient_nonorientable(g, k) == cokernel(nonorientable_relations(g, k))
    report(5, "abelianised fiber quotients vs SNF of their relations, 100 + 100 instances", ok)


def test_criterion_6_snf_oracle_equivalence():
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if smith_normal_form(mat).diagonal != minor_gcd_invariants(mat):
            ok = False
    report(6, "SNF vs exhaustive minor oracle, 200 matrices", ok)


def test_criterion_7_dimension_oracle():
    ok = True
    for g in range(1, 6):
        for k in range(1, 6):
            ans = dim_query(SurfaceSpec("orientable", g, k), "braid", "cd")
            ok = ok and (ans.kind, ans.value) == ("exact", k + 1)
    for k in range(4, 10):
        ans = dim_query(SurfaceSpec.named("sphere", k), "braid", "vcd")
        ok = ok and (ans.kind, ans.value) == ("exact", k - 3)
    for k in range(1, 10):
        ans = dim_query(SurfaceSpec.named("klein-bottle", k), "mcg", "vcd")
        ok = ok and (ans.kind, ans.value) == ("exact", k)
    for g in range(3, 8):
        for k in range(1, 8):
            ans = dim_query(SurfaceSpec("nonorientable", g, k), "mcg", "vcd")
            ok = ok and (ans.kind, ans.value) == ("bound", 4 * g + k - 8)
    sweep = consistency_sweep(20, 20)
    ok = ok and sweep.passed
    report(7, "dimension oracle and consistency sweep", ok)


def test_criterion_8_engine_laws():
    rng = random.Random(8)
    ok = True
    for _ in range(2000):
        u, v, w = (random_b2t(rng) for _ in range(3))
        ok = ok and (u * v) * w == u * (v * w)
        ok = ok and (u * u.inverse()).is_identity()
    for _ in range(2000):
        u, v, w = (random_klein(rng) for _ in range(3))
        ok = ok and (u * v) * w == u * (v * w)
        ok = ok and (u * u.inverse()).is_identity()
    rules = klein_rewrite_rules()
    for _ in range(2000):
        u, v = random_klein(rng, 12), random_klein(rng, 12)
        oracle = oracle_normal_form(rules, u.to_word() * v.to_word())
        ok = ok and (u * v).to_word() == oracle
    report(8, "engine group laws and rewrite-oracle agreement", ok)


def test_criterion_9_configuration_lifting():
    from fractions import Fraction

    rng = random.Random(9)
    ok = True
    for _ in range(100):
        k = rng.randint(1, 8)
        points = set()
        while len(points) < k:
            den = rng.randint(7, 40)
            points.add(
                KleinPoint(
                    Fraction(rng.randint(0, (den - 1) // 2), den),
                    Fraction(rng.randint(0, den - 1), den),
                )
            )
        lifted = lift_configuration(sorted(points))
        ok = ok and len(lifted) == 2 * k == len(set(lifted))
        ok = ok and {deck(p) for p in lifted} == set(lifted)
    from surfgroups.embeddings import TorusPoint

    for _ in range(1000):
        den = rng.randint(1, 50)
        p = TorusPoint(
            Fraction(rng.randint(0, den - 1), den), Fraction(rng.randint(0, den - 1), den)
        )
        ok = ok and deck(deck(p)) == p
    report(9, "configuration lifting", ok)
