"""Pole counting and seeding, Newton refinement, and ResonancePole invariants."""

import warnings

import numpy as np
import pytest

import superlattice
from conftest import (
    DOUBLE_E1_MEV,
    DOUBLE_G1_MEV,
    DOUBLE_K,
    TRIPLE_E1_MEV,
    TRIPLE_E2_MEV,
    TRIPLE_G1_MEV,
    TRIPLE_G2_MEV,
    TRIPLE_K,
    TRIPLE_TAU1_PS,
)
from qshutter import (
    DomainError,
    OverflowGuardError,
    PoleConvergenceError,
    PoleCountError,
    PoleQualityError,
    QuadrantEscapeError,
    build_profile,
    find_poles,
    make_spectrum,
    pole_condition,
    transmission,
)
from qshutter import poles as poles_module
from qshutter import reference, solve_mode
from qshutter.poles import refine_pole, seed_poles
from qshutter.presets import DOUBLE_LAYERS, MASS_RATIO, TRIPLE_LAYERS, fig3b_layers
from golden import POLE_PROFILES

# Profiles of the perfbench `structures` stream, seed 1, on which Newton on
# m22 failed: it stalled at a root it had found (op 5, pole in the first
# well at Im k ~ -7.4e-7; op 77), accepted a pole the mode solve rejected
# (op 18), or left the quadrant (op 27, Im k ~ -4e-11).
REGRESSION_PROFILES = {
    "op5": ([(9.47, .175), (15.95, 0), (11.98, .343), (3.69, 0), (9.84, .24), (10.2, 0), (11.14, .343)], 1),
    "op18": ([(1.93, .218), (8.71, 0), (2.04, .108), (4.39, 0), (10.18, .164), (8.86, 0), (10.11, .284)], 2),
    "op27": ([(11.48, .163), (7.26, 0), (10.02, .328), (9.16, 0), (9.05, .235), (5.89, 0), (10.82, .177)], 2),
    "op77": ([(10.59, .299), (10.92, 0), (9.91, .301)], 1),
}
# the same profiles plus the two reference structures
LOCKSTEP_PROFILES = {
    **REGRESSION_PROFILES,
    "triple": (list(TRIPLE_LAYERS), 4),
    "double": (list(DOUBLE_LAYERS), 2),
}

# Seeds on the triple barrier that refine_pole cannot bring home: the first
# sits 1e-6 from the saddle point of W between the doublet poles and its
# first step trips the overflow guard; the second runs out of iterations
GUARD_SEED = 0.150123534489 - 0.001646011879j
STALL_SEED = 0.08 - 3.5j
# the seeds the T(E) scan once gave two single barriers (by mass ratio),
# each heading for a zero of W on the negative imaginary axis
ESCAPE_SEEDS = {
    0.1: 2.2744258904099013 - 0.9922601680878274j,
    0.052: 1.121768745390778 - 0.44621042137128386j,
}


class TestPoleCondition:
    def test_unimodular_at_full_transmission(self, triple_profile, triple_poles):
        # at a T = 1 peak of a symmetric structure, |f| = 1/|t| = 1
        from scipy.optimize import minimize_scalar

        p = triple_poles[0]
        res = minimize_scalar(
            lambda E: -transmission(triple_profile, E)[1],
            bounds=(p.E_position - p.Gamma, p.E_position + p.Gamma),
            method="bounded",
        )
        from qshutter.model import wavenumber

        k_peak = wavenumber(res.x, triple_profile).real
        assert abs(pole_condition(triple_profile, k_peak)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_zero_at_pole(self, triple_profile, triple_poles):
        assert abs(pole_condition(triple_profile, triple_poles[0].k)) < 1e-8

    def test_free_profile_never_vanishes(self, free_profile, rng):
        for _ in range(20):
            k = complex(rng.uniform(0.05, 1.0), -rng.uniform(0.0001, 0.1))
            assert abs(pole_condition(free_profile, k)) > 0.5


class TestSeedPoles:
    def test_triple_barrier_doublet(self, triple_profile):
        assert len(seed_poles(triple_profile, 20e-3)) == 2

    def test_double_barrier_single_seed(self, double_profile):
        seeds = seed_poles(double_profile, 100e-3)
        assert len(seeds) == 1
        from qshutter.model import energy_of

        assert energy_of(seeds[0], double_profile).real == pytest.approx(
            80.11e-3, abs=2e-3
        )

    def test_free_profile_no_seeds(self, free_profile):
        assert seed_poles(free_profile, 100e-3) == []

    def test_bad_window_rejected(self, triple_profile):
        for E_max in (0.0, np.inf):
            with pytest.raises(DomainError):
                seed_poles(triple_profile, E_max)

    def test_seeds_sit_in_fourth_quadrant(self, triple_profile):
        for s in seed_poles(triple_profile, 60e-3):
            assert s.real > 0 and s.imag < 0


def _search(profile, N, monkeypatch):
    """(poles, [(box, count, seeds)] in the order find_poles seeds its boxes,
    h points, Newton rounds: the batch's marches of the outgoing pieces)."""
    boxes, points, rounds = [], [], []
    box_seeds, h, outgoing = poles_module._box_seeds, poles_module._h, poles_module._outgoing

    def seeded(profile, *box):
        count, seeds = box_seeds(profile, *box)
        boxes.append((box, count, seeds))
        return count, seeds

    monkeypatch.setattr(poles_module, "_box_seeds", seeded)
    monkeypatch.setattr(poles_module, "_h", lambda p, k: points.append(k.size) or h(p, k))
    monkeypatch.setattr(
        poles_module, "_outgoing", lambda *args: rounds.append(1) or outgoing(*args)
    )
    try:
        poles = find_poles(profile, N)
    finally:
        monkeypatch.undo()
    return poles, boxes, sum(points), len(rounds)


def _found_equals_counted(profile, N, monkeypatch):
    """Every box find_poles seeds finds as many distinct poles inside it as
    it counts: the first boxes' seeds refine to their count, and a box
    that is halved finds its count in its halves."""
    poles, boxes, _, _ = _search(profile, N, monkeypatch)
    found = []
    for box, count, seeds in boxes:
        for seed in seeds:
            k = refine_pole(profile, seed).k
            if not any(abs(k - other) < 1e-9 for other in found):
                found.append(k)
    for (left, right, depth), count, _ in boxes:
        inside = [k for k in found if left <= k.real <= right and -depth <= k.imag]
        assert len(inside) == count
    assert all(-p.k.imag <= p.k.real / 4.0 for p in poles)
    return boxes


class TestContourSeeds:
    @pytest.mark.parametrize("name", sorted(POLE_PROFILES))
    def test_found_equals_counted(self, name, monkeypatch):
        layers, N = POLE_PROFILES[name]
        _found_equals_counted(build_profile(list(layers), MASS_RATIO), N, monkeypatch)

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_superlattice_found_equals_counted(self, nb, monkeypatch):
        layers = superlattice.layers(nb, (3.0, 0.12), 16.0)
        _found_equals_counted(build_profile(layers, MASS_RATIO), nb - 1, monkeypatch)

    def test_cluster_box_is_halved(self, monkeypatch):
        # 16 cells put 22 poles in the first box, whose moments cannot
        # separate the miniband: the box is halved once and its halves
        # count 8 and 14
        layers = superlattice.layers(16, (3.0, 0.12), 16.0)
        boxes = _found_equals_counted(build_profile(layers, MASS_RATIO), 15, monkeypatch)
        assert [count for _, count, _ in boxes] == [22, 8, 14]

    def test_seeds_sit_near_their_poles(self, monkeypatch):
        # measured over the 51 seeds of POLE_PROFILES: largest 1.2e-4
        # (s09), median 8.3e-10
        errors = []
        for layers, N in POLE_PROFILES.values():
            profile = build_profile(list(layers), MASS_RATIO)
            for _, _, seeds in _search(profile, N, monkeypatch)[1]:
                for seed in seeds:
                    k = refine_pole(profile, seed).k
                    errors.append(abs(seed - k) / abs(k))
        assert max(errors) < 5e-4 and np.median(errors) < 1e-8

    @pytest.mark.parametrize(
        "layers, N, points, rounds",
        [(TRIPLE_LAYERS, 4, 200, 3), (DOUBLE_LAYERS, 2, 450, 2)],
    )
    def test_work_counts(self, layers, N, points, rounds, monkeypatch):
        # h points and Newton rounds of the whole search: the triple barrier
        # counts two boxes of 100 points, the double barrier four and two
        # halved panels
        profile = build_profile(list(layers), MASS_RATIO)
        assert _search(profile, N, monkeypatch)[2:] == (points, rounds)

    def test_one_pole_box_seed_is_the_polynomial_root(self, monkeypatch):
        # a box that counts one pole seeds at s_1 itself; np.roots of the
        # polynomial Newton's identities build from s_1 returns it bit for bit
        sums, roots = [], poles_module._roots
        monkeypatch.setattr(poles_module, "_roots", lambda s: sums.append(s) or roots(s))
        for layers, N in POLE_PROFILES.values():
            find_poles(build_profile(list(layers), MASS_RATIO), N)
        # 19 of the 33 boxes count one pole
        ones = [s for s in sums if len(s) == 1]
        assert len(ones) > 10
        for s in ones:
            coefficients = [1.0]
            for m in np.arange(1, len(s) + 1):
                coefficients.append(-np.dot(coefficients[::-1], s[:m]) / m)
            (shortcut,), (root,) = roots(s).tolist(), np.roots(coefficients).tolist()
            assert shortcut.real.hex() == root.real.hex()
            assert shortcut.imag.hex() == root.imag.hex()

    def test_seed_above_the_axis_is_mirrored(self, triple_profile, monkeypatch):
        # a root of the moment polynomial above the real axis seeds at its
        # mirror image below it
        roots = np.array([0.1 + 0.2j, -0.3 - 0.1j])
        monkeypatch.setattr(poles_module.np, "roots", lambda coefficients: roots)
        count, seeds = poles_module._box_seeds(triple_profile, 0.01, 0.2, 0.05)
        centre = 0.105
        above, below = centre + abs(0.01 - 0.05j - centre) * roots
        assert count == 2 and above.imag > 0 > below.imag
        assert seeds == pytest.approx([above.conjugate(), below], abs=1e-15)

    def test_opaque_profile_stays_finite(self):
        # two 290 nm x 0.35 eV barriers: the summed kappa w, 455 at E -> 0 and
        # 385 at 100 meV, puts the layer product near e^455 while each layer
        # stays inside the guard
        profile = build_profile([(290.0, 0.35), (10.0, 0.0), (290.0, 0.35)], MASS_RATIO)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed_poles(profile, 0.1)
            (pole,) = find_poles(profile, 1)
        assert pole.E_position == pytest.approx(35.3832e-3, abs=1e-7)


class TestRefinePole:
    def test_residual_below_tolerance(self, triple_profile, triple_poles):
        for p in triple_poles:
            assert abs(pole_condition(triple_profile, p.k)) < 1e-10

    def test_stability_under_seed_perturbation(self, triple_profile, triple_poles, rng):
        # 10 seeds displaced by a relative 1e-3 must all come home
        k_ref = triple_poles[0].k
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            seed = k_ref * (1.0 + 1e-3 * np.exp(1j * angle))
            p = refine_pole(triple_profile, seed)
            assert abs(p.k - k_ref) < 1e-9

    def test_seed_outside_fourth_quadrant_rejected(self, triple_profile):
        for seed in (0.1 + 0.01j, complex(np.inf, -0.1), complex(0.1, -np.inf)):
            with pytest.raises(DomainError):
                refine_pole(triple_profile, seed)

    def test_free_profile_does_not_converge(self, free_profile):
        # the matched Wronskian is W = 2ik e^{-ikL}, zero-free in the open
        # quadrant: Newton heads for its zero at k = 0, halving the steps
        # that would cross the real axis, and must fail loudly
        with pytest.raises(PoleConvergenceError) as err:
            refine_pole(free_profile, 0.3 - 0.01j)
        assert len(err.value.trace) >= 1

    def test_guard_tripped_by_iterate_is_convergence_error(self, triple_profile):
        # a diverging iterate runs past the overflow guard; the failure must
        # still be a PoleConvergenceError carrying the trace.  On the free
        # two-layer profile W = 2ik e^{-ikL} walks Newton down by ~i/L per
        # step, so it runs out of iterations first; the triple-barrier seed
        # sits 1e-6 from the saddle point of W between the doublet poles,
        # where W' nearly vanishes, and its first step lands at Im k ~ -30,
        # past the guard on the 16 nm wells
        two_layer_free = build_profile([(5.0, 0.0), (3.0, 0.0)], 0.067)
        cases = ((two_layer_free, 0.3 - 0.01j), (triple_profile, 0.150123534489 - 0.001646011879j))
        for profile, seed in cases:
            with pytest.raises(PoleConvergenceError) as err:
                refine_pole(profile, seed)
            assert len(err.value.trace) >= 1
        assert isinstance(err.value.__cause__, OverflowGuardError)

    def test_guard_at_the_seed_names_the_seed(self):
        # the one-seed call fails on its first round, at its own first point
        profile = build_profile([(5, 0.23), (5, 0), (5, 0.23)], 0.067)
        err = _raised(lambda: refine_pole(profile, 0.5 - 50j))
        assert err.trace == [0.5 - 50j]
        assert isinstance(err.__cause__, OverflowGuardError) and err.__cause__.point == 0

    def test_overflowing_march_is_typed(self):
        # every layer passes the per-layer guard (|Im q| w ~ 250 at 0.5 - 50j,
        # ~295 at 0.3 - 59j), but a march across all three multiplies their
        # growth past the double-precision range: the march guard must name
        # it instead of numpy overflowing in the product
        profile = build_profile([(5, 0.23), (5, 0), (5, 0.23)], 0.067)
        with pytest.raises(PoleConvergenceError) as err:
            refine_pole(profile, 0.5 - 50j)
        cause = err.value.__cause__
        assert isinstance(cause, OverflowGuardError) and cause.summed
        assert cause.layer_index == 2 and cause.exponent_magnitude > 600.0
        with pytest.raises(OverflowGuardError) as guard:
            pole_condition(profile, 0.3 - 59j)
        assert guard.value.summed and guard.value.layer_index == 2


def _per_seed_poles(profile, seeds, N):
    """find_poles' result from a refine_pole loop over the seeds it formed."""
    poles = []
    for seed in seeds:
        p = refine_pole(profile, seed)
        if not any(abs(p.k - other.k) < 1e-9 for other in poles):
            poles.append(p)
    poles = sorted((p for p in poles if -p.k.imag <= p.k.real / 4.0), key=lambda p: p.E_position)
    return [(p.k, p.E) for p in poles[:N]]


def _raised(call):
    with pytest.raises(PoleConvergenceError) as err:
        call()
    return err.value


class TestLockstep:
    """find_poles refines every seed of its boxes together; each must end as
    refine_pole alone ends it, bit for bit."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_PROFILES))
    def test_find_poles_matches_per_seed_loop(self, name, monkeypatch):
        layers, N = LOCKSTEP_PROFILES[name]
        profile = build_profile(layers, MASS_RATIO)
        poles, boxes, _, _ = _search(profile, N, monkeypatch)
        seeds = [seed for _, _, box_seeds in boxes for seed in box_seeds]
        assert [(p.k, p.E) for p in poles] == _per_seed_poles(profile, seeds, N)

    @pytest.mark.parametrize(
        "window",
        [("good", GUARD_SEED), (GUARD_SEED, "good"), ("good", STALL_SEED),
         (STALL_SEED, "good"), (STALL_SEED, GUARD_SEED), (GUARD_SEED, STALL_SEED)],
    )
    def test_failing_seed_raises_what_the_loop_raises(
        self, window, triple_profile, monkeypatch
    ):
        # the first failure ends the batch at once: of a loop of refine_pole
        # over the seeds, the error of the seed that fails after the fewest
        # evaluations, even when a lower-index seed would fail later (the
        # guard trips on the second evaluation, the stall ends on the
        # hundredth)
        good = seed_poles(triple_profile, 0.05)[0]
        seeds = [good if s == "good" else s for s in window]
        evaluations, layers = [], poles_module._layers
        monkeypatch.setattr(
            poles_module, "_layers", lambda *a: evaluations.append(1) or layers(*a)
        )
        raised = {}
        for seed in seeds:
            evaluations.clear()
            try:
                refine_pole(triple_profile, seed)
            except PoleConvergenceError as err:
                raised.setdefault(len(evaluations), err)
        first = min(raised)
        expected = raised[first]
        evaluations.clear()
        monkeypatch.setattr(poles_module, "_box_seeds", lambda *args: (len(seeds), seeds))
        got = _raised(lambda: find_poles(triple_profile, 1))
        assert len(evaluations) == first == (2 if GUARD_SEED in seeds else 100)
        assert type(got) is type(expected) and str(got) == str(expected)
        assert got.trace == expected.trace
        cause = got.__cause__
        assert type(cause) is type(expected.__cause__)
        if cause is not None:
            assert vars(cause) == vars(expected.__cause__)


class TestFindPoles:
    def test_triple_barrier_regression_pins(self, triple_poles):
        assert len(triple_poles) == 4
        for p, k_ref in zip(triple_poles, TRIPLE_K):
            assert abs(p.k - k_ref) < 1e-9

    def test_double_barrier_regression_pins(self, double_poles):
        for p, k_ref in zip(double_poles, DOUBLE_K):
            assert abs(p.k - k_ref) < 1e-9

    def test_resonance_parameters(self, triple_poles, double_poles):
        mev = 1e-3
        p1, p2 = triple_poles[0], triple_poles[1]
        assert p1.E_position == pytest.approx(TRIPLE_E1_MEV * mev, abs=1e-9)
        assert p1.Gamma == pytest.approx(TRIPLE_G1_MEV * mev, abs=1e-9)
        assert p2.E_position == pytest.approx(TRIPLE_E2_MEV * mev, abs=1e-9)
        assert p2.Gamma == pytest.approx(TRIPLE_G2_MEV * mev, abs=1e-9)
        assert p1.tau == pytest.approx(TRIPLE_TAU1_PS, abs=1e-6)
        d1 = double_poles[0]
        assert d1.E_position == pytest.approx(DOUBLE_E1_MEV * mev, abs=1e-9)
        assert d1.Gamma == pytest.approx(DOUBLE_G1_MEV * mev, abs=1e-9)

    def test_lifetime_matches_width(self, triple_poles):
        # tau tracks hbar/Gamma with hbar in eV ps against Gamma in eV
        for p in triple_poles:
            assert p.tau == pytest.approx(6.582119569e-4 / p.Gamma, rel=1e-12)

    def test_invariants(self, triple_profile, triple_poles):
        for i, p in enumerate(triple_poles):
            assert p.index == i + 1
            assert p.k.real > 0 and p.k.imag < 0
            assert abs(p.E - p.k**2 * triple_profile.hbar2_over_2m) < 1e-12 * abs(p.E)
            assert p.Gamma > 0
        energies = [p.E_position for p in triple_poles]
        assert energies == sorted(energies)

    def test_second_doublet_above_first(self, triple_poles):
        assert triple_poles[2].E_position > 3 * triple_poles[1].E_position

    def test_mirror_partner_residual(self, triple_profile, triple_poles):
        # pole_condition(-k*) = pole_condition(k)*, so partners are zeros too
        for p in triple_poles:
            assert p.k_mirror == -np.conj(p.k)
            assert abs(pole_condition(triple_profile, p.k_mirror)) < 1e-8

    def test_free_profile_errors_with_count(self, free_profile):
        with pytest.raises(PoleCountError, match="0 poles found"):
            find_poles(free_profile, 1)

    def test_bad_count_rejected(self, triple_profile, monkeypatch):
        # a count below 1 or one operator.index refuses is rejected before
        # any box is counted, and a kept spectrum of 2 poles does not answer
        # for a count of 2.0
        make_spectrum(triple_profile, 2)
        boxes, box_seeds = [], poles_module._box_seeds
        monkeypatch.setattr(
            poles_module, "_box_seeds", lambda *a: boxes.append(a) or box_seeds(*a)
        )
        for N in (0, 2.5, 2.0):
            with pytest.raises(DomainError):
                find_poles(triple_profile, N)
            with pytest.raises(DomainError):
                make_spectrum(triple_profile, N)
        assert boxes == []

    @pytest.mark.parametrize(
        "layers, mass_ratio", [([(1.14, 0.08)], 0.1), ([(2.42, 0.127)], 0.052)]
    )
    def test_seed_heading_for_imaginary_axis_escapes_promptly(self, layers, mass_ratio):
        # the seed a broad T(E) maximum once gave leads Newton toward a zero
        # of W on the negative imaginary axis; halving used to hold Re k at
        # denormals until the 100 rounds ran out (first profile) or certify
        # that zero as a pole with a negative E_position (second).  Neither
        # profile has a pole that obeys the depth rule, so find_poles counts
        # none and refines nothing
        profile = build_profile(layers, mass_ratio)
        with pytest.raises(QuadrantEscapeError) as err:
            refine_pole(profile, ESCAPE_SEEDS[mass_ratio])
        trace = err.value.trace
        assert len(trace) < 40
        assert 0 < trace[-1].real < 16 * np.finfo(float).eps * abs(trace[-1])
        with pytest.raises(PoleCountError, match="0 poles found"):
            find_poles(profile, 1)

    def test_double_barrier_third_pole_is_the_third_lowest(self, double_profile):
        # the pole (385.50 meV, Gamma 143.58 meV) has no T(E) peak of its own
        root = reference.pole(double_profile, 0.8269 - 0.0763j)
        assert abs(find_poles(double_profile, 3)[2].k - root) < 1e-9

    def test_fig3b_doublet_at_seven_nm(self):
        # where the doublet's two T(E) peaks have merged: refine_pole seeded
        # from b2 = 6.85 nm's second pole converges to this pole,
        # 0.153300642 - 0.001570803i (13.3626 meV, Gamma 0.5477 meV)
        profile = build_profile(fig3b_layers(7.0), MASS_RATIO)
        root = reference.pole(profile, 0.153300642 - 0.001570803j)
        assert abs(find_poles(profile, 2)[1].k - root) < 1e-9

    def test_fig3b_keeps_both_doublets(self):
        # the lower doublet lies below 16 meV and the upper one between 40
        # and 60 meV for every b2 from 3 to 8 nm
        for b2 in np.arange(300, 801, 5) / 100.0:
            profile = build_profile(fig3b_layers(b2), MASS_RATIO)
            lower = [p.E_position for p in find_poles(profile, 2)]
            poles = [p.E_position for p in find_poles(profile, 4)]
            assert max(lower) < 16e-3 and max(poles[:2]) < 16e-3, b2
            assert 40e-3 < poles[2] and poles[3] < 60e-3, b2

    def test_fig3b_at_eight_nm_matches_oracle(self):
        # 12.9542, 13.2778, 50.8117 and 52.8071 meV
        profile = build_profile(fig3b_layers(8.0), MASS_RATIO)
        for p in find_poles(profile, 4):
            root = reference.pole(profile, p.k)
            assert abs(p.k - root) < 1e-14 * abs(root)

    def test_count_error_ends_before_the_window_cap(self, monkeypatch):
        # one barrier with four poles that obey the rule below the cap, five
        # requested: six boxes, 600 h points in all
        points = []
        real = poles_module._h
        monkeypatch.setattr(poles_module, "_h", lambda p, k: points.append(k.size) or real(p, k))
        with pytest.raises(PoleCountError, match="4 poles found"):
            find_poles(build_profile([(9.8, 0.269)], MASS_RATIO), 5)
        assert sum(points) <= 600

    def test_count_error_names_the_window_cap(self):
        # one barrier with five poles below 0.3801 eV, the cap energy that the
        # fourth window (0.4 eV) passed; the sixth lies at 0.490 eV
        with pytest.raises(PoleCountError, match=r"^5 poles found, 6 requested; ") as err:
            find_poles(build_profile([(21.6, 0.083)], 0.067), 6)
        assert "reached 0.4 eV, past its 0.3801 eV cap" in str(err.value)
        assert err.value.window == 0.4 and abs(err.value.cap - 0.38012) < 1e-5

    def test_upper_half_plane_pole_raises_quality_error(self):
        # a random profile whose first pole is too sharp for its Im k: Newton
        # certifies it at Im k = +2.86e-20 nm^-1 (Gamma = -1.96e-20 eV)
        layers = [(9.61, 0.142), (20.67, 0.044), (10.66, 0.498), (7.72, 0.0),
                  (26.46, 0.408), (37.07, 0.048), (22.57, 0.432)]
        with pytest.raises(PoleQualityError, match=r"pole n=1: Im k = 2.86e-20 nm\^-1 >= 0"):
            find_poles(build_profile(layers, MASS_RATIO), 5)


def _first_miniband(nb, barrier, well):
    """find_poles(p, nb - 1) on nb barriers with wells between them returns
    the first miniband: each pole below the miniband's top and within 0.1
    Gamma of its T = 1 energy xi(E) = cos(j pi/nb) (tests/superlattice.py)."""
    profile = build_profile(superlattice.layers(nb, barrier, well), MASS_RATIO)
    levels, top = superlattice.full_transmission_energies(profile, nb, barrier, well)
    poles = find_poles(profile, nb - 1)
    for p, level in zip(poles, levels):
        assert p.E_position < top
        assert abs(p.E_position - level) < 0.1 * p.Gamma


class TestSuperlatticePoles:
    # 3 nm x 0.12 eV barriers with 16 nm wells: the poles sit within 0.052
    # Gamma of their T = 1 energies (measured over these nb)
    @pytest.mark.parametrize("nb", [2, 3, 4, 5, 6, 8, 10])
    def test_first_miniband(self, nb):
        _first_miniband(nb, (3.0, 0.12), 16.0)

    @pytest.mark.xfail(
        strict=True,
        reason="the 1 nm miniband's first pole, 6.1934 meV (Gamma 0.480 meV), "
        "lies 0.12 Gamma from its T = 1 energy 6.252 meV, past this test's "
        "0.1 Gamma bound; find_poles returns the whole miniband "
        "(test_first_miniband_of_thin_barriers_matches_oracle)",
    )
    def test_first_miniband_of_thin_barriers(self):
        _first_miniband(5, (1.0, 0.12), 16.0)

    def test_first_miniband_of_thin_barriers_matches_oracle(self):
        # 6.1934, 8.2994, 11.9205 and 16.6884 meV
        profile = build_profile(superlattice.layers(5, (1.0, 0.12), 16.0), MASS_RATIO)
        poles = find_poles(profile, 4)
        expected = [6.1934e-3, 8.2994e-3, 11.9205e-3, 16.6884e-3]
        assert [p.E_position for p in poles] == pytest.approx(expected, abs=1e-7)
        for p in poles:
            root = reference.pole(profile, p.k)
            assert abs(p.k - root) < 1e-14 * abs(root)


@pytest.mark.parametrize("name", sorted(REGRESSION_PROFILES))
def test_regression_profile_matches_oracle(name):
    layers, N = REGRESSION_PROFILES[name]
    profile = build_profile(layers, MASS_RATIO)
    poles = find_poles(profile, N)
    assert len(poles) == N
    for p in poles:
        assert solve_mode(profile, p).outgoing_residual < 1e-6
        root = reference.pole(profile, p.k)
        assert abs(p.k - root) < 1e-12 * abs(root)
