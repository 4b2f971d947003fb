import copy
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from qbm.errors import ConfigurationError, DomainError, EnvelopeError
from qbm.preparation import (
    Box,
    CatProject,
    GaussianLocalize,
    MomentumReset,
    _draw_signed,
    as_intervention,
    cat_wigner,
    gaussian_value,
)


def stream(*entropy):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def cat_wavefunction(x, x0, sigma):
    norm = 2.0 * (1.0 + np.exp(-x0**2 / (2 * sigma**2)))
    g = (2 * np.pi * sigma**2) ** (-0.25)
    return (g * np.exp(-(x + x0) ** 2 / (4 * sigma**2))
            + g * np.exp(-(x - x0) ** 2 / (4 * sigma**2))) / np.sqrt(norm)


class TestGaussianValue:
    def test_peak(self):
        peak = gaussian_value(1.0, 0.0, 0.0, 0.0, 0.0)
        assert peak == pytest.approx(1.0 / (2.0 * (2 * np.pi) ** 2))

    def test_one_sigma_in_momentum(self):
        sigma0 = 1.0
        peak = gaussian_value(sigma0, 0.0, 0.0, 0.0, 0.0)
        val = gaussian_value(sigma0, 0.0, 0.5, 0.0, 0.0)  # p0 - pbar = hbar/(2 sigma0)
        assert val == pytest.approx(peak * np.exp(-0.5), rel=1e-12)

    def test_momentum_marginal_proportional_to_position_gaussian(self):
        # quadrature oracle: integrating the p0 Gaussian leaves exp(-rbar^2/2 sigma0^2)
        sigma0 = 0.8
        p = np.linspace(-8, 8, 4001)
        marg = []
        for rbar in (0.0, 0.5, 1.5):
            marg.append(simpson(gaussian_value(sigma0, rbar, p, rbar, 0.3), x=p))
        marg = np.array(marg)
        expected = np.exp(-np.array([0.0, 0.5, 1.5]) ** 2 / (2 * sigma0**2))
        assert np.allclose(marg / marg[0], expected / expected[0], rtol=1e-8)


class TestCatWigner:
    def test_origin_positive_interference(self):
        assert cat_wigner(2.0, 0.5, 0.0, 0.0) > 0.0

    def test_fringe_negativity(self):
        x0, sigma = 2.0, 0.5
        p_fringe = np.pi / (2.0 * x0)
        assert cat_wigner(x0, sigma, 0.0, p_fringe) < 0.0

    def test_pointwise_against_grid_wigner_transform(self):
        # oracle: W(r, p) = (1/2 pi hbar) int dq e^{-ipq/hbar} psi(r+q/2) psi(r-q/2)
        x0, sigma = 2.0, 0.5
        r = np.linspace(-5, 5, 101)
        p = np.linspace(-6, 6, 101)
        q = np.linspace(-16, 16, 3201)
        prod = cat_wavefunction(r[:, None] + q[None, :] / 2, x0, sigma) \
            * cat_wavefunction(r[:, None] - q[None, :] / 2, x0, sigma)
        w_num = np.empty((len(r), len(p)))
        for j, pp in enumerate(p):
            w_num[:, j] = simpson(np.cos(pp * q)[None, :] * prod, x=q) / (2 * np.pi)
        w_lib = cat_wigner(x0, sigma, r[:, None], p[None, :])
        assert np.abs(w_lib - w_num).max() <= 1e-6

    def test_normalised_over_phase_space(self):
        x0, sigma = 1.0, 0.4
        r = np.linspace(-8, 8, 1201)
        p = np.linspace(-20, 20, 1201)
        w = cat_wigner(x0, sigma, r[:, None], p[None, :])
        total = simpson(simpson(w, x=p, axis=1), x=r)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_hbar_threads_through_phase(self):
        x0, sigma, hbar = 1.0, 0.4, 2.0
        p_fringe = np.pi * hbar / (2.0 * x0)
        assert cat_wigner(x0, sigma, 0.0, p_fringe, hbar=hbar) < 0.0


class TestEnvelope:
    def test_cat_box_covers_both_packets(self):
        c = CatProject(2.0, 0.5)
        box = c.box
        assert box.half_r == pytest.approx(5.0)
        assert box.half_p == pytest.approx(6.0)

    def test_six_sigma_truncation_mass(self):
        # mass of |lambda| outside the box is below 1e-8 (Gaussian tail bound)
        from scipy.special import erfc
        assert erfc(6.0 / np.sqrt(2.0)) < 1e-8


class TestSampling:
    def test_momentum_reset(self):
        r0, p0, w = MomentumReset(0.0).sample(0.7, -1.1, stream(0))
        assert (r0, p0, w) == (0.7, 0.0, 1.0)

    def test_gaussian_keeps_position_and_blurs_momentum(self):
        g = GaussianLocalize(1.0)
        rng = stream(1)
        draws = np.array([g.sample(0.4, 1.0, rng) for _ in range(100000)])
        assert np.all(draws[:, 0] == 0.4)
        sd = draws[:, 1].std(ddof=1)
        se = sd / np.sqrt(2 * len(draws))
        assert abs(sd - 0.5) <= 3.0 * se  # hbar/(2 sigma0)
        assert draws[:, 1].mean() == pytest.approx(1.0, abs=3 * sd / np.sqrt(len(draws)))

    def test_gaussian_lab_draw_is_the_closed_form(self):
        # p0 is the stream's next normal scaled by sigma_p; the weight is
        # lambda's momentum integral at rbar, drawn p0 or not
        g = GaussianLocalize(0.8)
        sigma_p = 0.5 / 0.8
        for i, rbar in enumerate((0.4, -1.3, 0.0, 1e3)):
            rng = stream(12, i)
            z = copy.deepcopy(rng).standard_normal()
            lam_integral = (np.exp(-rbar**2 / (2.0 * 0.8**2)) * np.sqrt(2.0 * np.pi) * sigma_p
                            / (2.0 * (2.0 * np.pi) ** 2))
            r0, p0, w = g.sample(rbar, -0.3, rng)
            assert r0 == rbar and p0 == -0.3 + sigma_p * z
            assert w == pytest.approx(lam_integral, rel=1e-14, abs=0.0)
        assert g.sample(1e3, 0.0, stream(13))[2] == 0.0
        # sigma0 = 1, rbar = 0.4: the untruncated momentum integral
        assert GaussianLocalize(1.0).sample(0.4, 0.0, stream(14))[2] == pytest.approx(
            0.0146530033056, rel=1e-11)

    def test_cat_samples_negative_weights(self):
        c = CatProject(2.0, 0.5)  # x0 = 4 sigma: strong interference fringes
        rng = stream(2)
        ws = np.array([c.sample(0.0, 0.0, rng)[2] for _ in range(2000)])
        assert np.mean(ws < 0) > 0.0

    def test_sampling_deterministic_per_stream(self):
        c = CatProject(1.0, 0.4)
        a = [c.sample(0.1, 0.2, stream(3, i)) for i in range(5)]
        b = [c.sample(0.1, 0.2, stream(3, i)) for i in range(5)]
        assert a == b

    def test_envelope_misconfiguration_raises(self):
        # a needle-thin density in a huge box: the ceiling is honest (1.25
        # times the needle's peak) but the acceptance fraction collapses far
        # below the 1e-4 floor
        def needle(r, p):
            return np.exp(-(r / 1e-10) ** 2 - (p / 1e-10) ** 2)

        box = Box(center_r=0.0, half_r=5.0, center_p=0.0, half_p=5.0)
        with pytest.raises(EnvelopeError, match="acceptance below 1e-4"):
            _draw_signed(stream(4), box, needle, 1.25)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            GaussianLocalize(0.0)
        with pytest.raises(DomainError):
            CatProject(1.0, -0.5)
        with pytest.raises(DomainError):
            CatProject(-1.0, 0.5)


class TestImportanceIdentity:
    def test_gaussian_weighted_mean_matches_quadrature(self):
        # E[w f(r0, p0)] / E[w] must equal int lambda f / int lambda
        g = GaussianLocalize(0.9)
        rbar, pbar = 0.4, -0.3
        rng = stream(5)

        def f(r0, p0):
            return np.cos(0.7 * p0) + 0.2 * p0

        draws = np.array([g.sample(rbar, pbar, rng) for _ in range(60000)])
        w, fv = draws[:, 2], f(draws[:, 0], draws[:, 1])
        mc = np.mean(w * fv) / np.mean(w)
        ratio = w * (fv - mc)
        se = ratio.std(ddof=1) / np.sqrt(len(w)) / np.mean(w)

        p = np.linspace(pbar - 7, pbar + 7, 4001)
        lam = gaussian_value(0.9, rbar, p, rbar, pbar)
        exact = simpson(lam * f(rbar, p), x=p) / simpson(lam, x=p)
        assert abs(mc - exact) <= 3.0 * se

    def test_cat_weighted_mean_matches_quadrature(self):
        c = CatProject(1.0, 0.4)
        rbar, pbar = 0.3, 0.5
        rng = stream(6)

        def f(r0, p0):
            return np.exp(-0.5 * r0**2) * np.cos(p0)

        draws = np.array([c.sample(rbar, pbar, rng) for _ in range(60000)])
        w, fv = draws[:, 2], f(draws[:, 0], draws[:, 1])
        mc = np.mean(w * fv) / np.mean(w)
        ratio = w * (fv - mc)
        se = ratio.std(ddof=1) / np.sqrt(len(w)) / abs(np.mean(w))

        box = c.box
        r = np.linspace(-box.half_r, box.half_r, 801)
        p = np.linspace(-box.half_p, box.half_p, 801)
        wgrid = c.wigner(r[:, None], p[None, :])
        num = simpson(simpson(wgrid * f(r[:, None], p[None, :]), x=p, axis=1), x=r)
        den = simpson(simpson(wgrid, x=p, axis=1), x=r)
        assert abs(mc - num / den) <= 3.0 * se


    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(x0=st.floats(0.0, 2.0), sigma=st.floats(0.2, 1.0),
           rbar=st.floats(-1.0, 1.0), pbar=st.floats(-1.0, 1.0))
    def test_cat_weight_integrates_lambda_times_f(self, x0, sigma, rbar, pbar):
        # E_q[lambda/q f] = int lambda f for f = 1 and f = r0^2; with
        # lambda = W(r0, p0) W(rbar, pbar) the right side is W(rbar, pbar)
        # times the cat's norm 1 and its <x^2> = sigma^2 + x0^2/(1 + overlap).
        # The weight leaves out the box mass M of |W|, so it averages to
        # that over M
        cat = CatProject(x0, sigma)
        rng = stream(11)
        draws = np.array([cat.sample(rbar, pbar, rng) for _ in range(6000)])
        r0, w = draws[:, 0], draws[:, 2]
        overlap = np.exp(-x0**2 / (2.0 * sigma**2))
        w_pre = cat.wigner(rbar, pbar) / quad_abs_box_mass(cat)
        for f, integral in ((np.ones_like(r0), 1.0),
                            (r0**2, sigma**2 + x0**2 / (1.0 + overlap))):
            wf = w * f
            exact = w_pre * integral
            # standard error under the identity: (w f)^2 does not depend on
            # the sign of W, so it is estimated well even when the negative
            # fringes are too small to be drawn
            se = np.sqrt(max(np.mean(wf**2) - exact**2, 0.0) / len(wf))
            # 1e-8: the sampler's 6-sigma box drops 4e-9 of the mass
            assert abs(wf.mean() - exact) <= 4.0 * se + 1e-8 * abs(exact)


def quad_abs_box_mass(cat):
    """Reference: nested adaptive quadrature of |W| over the sampling box.

    The r integral splits where the fringes open (b(r) = a(r)); at each r the
    p integral splits at the fringe troughs and, inside that radius, at the
    fringe zeros.  |W| itself is integrated, so the splits only help accuracy.
    """
    box = cat.box
    x0, s2, beta = cat.x0, cat.sigma**2, 2.0 * cat.x0 / cat.hbar
    # x0 = 0 is one packet: no fringes, and r* = 0
    r_star = s2 / x0 * np.arccosh(np.exp(x0**2 / (2.0 * s2))) if x0 > 0 else 0.0
    k = np.arange(int(beta * box.half_p / (2.0 * np.pi)) + 2)

    def over_p(r):
        a = np.exp(-(r - x0)**2 / (2.0 * s2)) + np.exp(-(r + x0)**2 / (2.0 * s2))
        b = 2.0 * np.exp(-r**2 / (2.0 * s2))
        phases = list(np.pi * (2 * k + 1))
        if b > a:
            theta = np.arccos(-a / b)
            phases += list(2 * np.pi * k + theta) + list(2 * np.pi * (k + 1) - theta)
        cuts = sorted(c / beta for c in phases if c < beta * box.half_p)
        edges = [0.0, *cuts, box.half_p]
        return sum(quad(lambda p: abs(cat.wigner(r, p)), lo, hi,
                        epsabs=1e-15, epsrel=1e-12, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:]))

    total = sum(quad(over_p, lo, hi, epsabs=1e-15, epsrel=1e-11, limit=200)[0]
                for lo, hi in ((0.0, r_star), (r_star, box.half_r)))
    return 4.0 * total


def block_rejection_reference(rng, box, factor, ceiling):
    """Reference rejection draw: per block, 2 x 128 uniforms place the
    proposals in the box and 128 more accept the first one under ``ceiling``;
    the density is evaluated one point at a time.  Returns the point and the
    sign of ``factor`` there."""
    while True:
        u, accept = rng.random((2, 128)), rng.random(128)
        for k in range(128):
            r0 = box.center_r + box.half_r * (2.0 * u[0, k] - 1.0)
            p0 = box.center_p + box.half_p * (2.0 * u[1, k] - 1.0)
            value = factor(r0, p0)
            if accept[k] * ceiling < abs(value):
                return r0, p0, np.sign(value)


def translate_pre_reference(rng, cat, pbar):
    """Reference pre-intervention draw of a cat in translate mode, its
    position mixture built for the draw: a component, then a normal offset;
    returns ``r_pre`` and ``W(r_pre, pbar)`` over the mixture's density."""
    overlap = np.exp(-cat.x0**2 / (2.0 * cat.sigma**2))
    probs = np.array([1.0, 1.0, 2.0 * overlap])
    probs /= probs.sum()
    centers = np.array([-cat.x0, cat.x0, 0.0])
    r_pre = centers[rng.choice(3, p=probs)] + cat.sigma * rng.standard_normal()
    dens = sum(w * np.exp(-(r_pre - c) ** 2 / (2.0 * cat.sigma**2))
               / np.sqrt(2.0 * np.pi * cat.sigma**2)
               for w, c in zip(probs, centers))
    return r_pre, cat.wigner(r_pre, pbar) / dens


class TestRejectionDraws:
    # every rejection sampler draws the reference's points and weights and
    # leaves its stream where the reference does
    @pytest.mark.parametrize("x0, sigma", [(2.0, 0.2), (0.6, 0.3)])
    def test_cat_lab(self, x0, sigma):
        cat = CatProject(x0, sigma)
        for i in range(150):
            rng = stream(15, i)
            ref = copy.deepcopy(rng)
            r0, p0, sign = block_rejection_reference(ref, cat.box, cat.wigner, cat._ceiling)
            assert cat.sample(0.2, -0.4, rng) == (r0, p0, float(sign * cat.wigner(0.2, -0.4)))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("x0, sigma", [(2.0, 0.2), (0.6, 0.3)])
    def test_cat_translate(self, x0, sigma):
        cat = CatProject(x0, sigma)
        for i in range(150):
            rng = stream(16, i)
            ref = copy.deepcopy(rng)
            ref.random(), ref.standard_normal()  # the mixture component and offset
            r0, p0, sign = block_rejection_reference(ref, cat.box, cat.wigner, cat._ceiling)
            r_pre, r0_t, p0_t, w = cat.sample_translate(0.2, -0.4, rng)
            assert (r0_t, p0_t) == (r0, p0)
            assert np.sign(w) == np.sign(sign * cat.wigner(r_pre, -0.4))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("x0, sigma", [(2.0, 0.2), (0.6, 0.3)])
    def test_cat_translate_weight(self, x0, sigma):
        # the position mixture is built with the box: r_pre and the weight
        # are those of a mixture built for each draw
        cat = CatProject(x0, sigma)
        for i in range(150):
            rng = stream(16, i)
            ref = copy.deepcopy(rng)
            r_pre, w_pre = translate_pre_reference(ref, cat, -0.4)
            sign = block_rejection_reference(ref, cat.box, cat.wigner, cat._ceiling)[2]
            r_pre_t, _, _, w = cat.sample_translate(0.2, -0.4, rng)
            assert (r_pre_t, w) == (r_pre, float(w_pre * sign))

    def test_threads_drawing_at_once_draw_what_one_thread_draws(self):
        # a run's noise block threads draw from one preparation, which keeps
        # nothing between draws: 4 threads, switching often, draw the bits
        # of one thread
        cat = CatProject(0.6, 0.3)
        serial = [cat.sample_translate(0.0, 0.3, stream(7, i)) for i in range(200)]
        start = threading.Barrier(4)
        draws = [None] * 4

        def draw(k):
            start.wait(timeout=60)
            draws[k] = [cat.sample_translate(0.0, 0.3, stream(7, i)) for i in range(k, 200, 4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert draws == [serial[k::4] for k in range(4)]


class TestInterventionAdapters:
    def test_lab_mode_returns_plain_update(self):
        draw = as_intervention(GaussianLocalize(1.0), mode="lab")
        r_pre, r0, _, _ = draw(0.5, 0.1, stream(7))
        # no translation: r_pre is the pre-intervention position, kept
        assert r_pre == r0 == 0.5

    def test_translate_mode_gaussian(self):
        draw = as_intervention(GaussianLocalize(1.0), mode="translate")
        r_pre, r0, _, weight = draw(12.3, 0.1, stream(8))
        # pure translation: no jump between r_pre and r0, unit weight
        assert r_pre == r0 and weight == 1.0

    def test_translate_mode_cat_importance(self):
        cat = CatProject(1.0, 0.4)
        draw = as_intervention(cat, mode="translate")
        rng = stream(9)
        r_pre = np.array([draw(5.0, 0.3, rng)[0] for _ in range(4000)])
        # pre-positions are importance-sampled from the cat support, not kept
        assert np.abs(r_pre).max() < cat.x0 + 8 * cat.sigma
        assert np.std(r_pre) > 0.2

    def test_translate_requires_supported_form(self):
        class LabOnly:
            def sample(self, rbar, pbar, rng):
                return rbar, pbar, 1.0

        as_intervention(LabOnly(), mode="lab")
        with pytest.raises(ConfigurationError, match="LabOnly has no translation-covariant"):
            as_intervention(LabOnly(), mode="translate")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            as_intervention(MomentumReset(0.0), mode="sideways")


class TestCatTranslateUnbiased:
    def test_importance_over_position_reproduces_wigner_mean(self):
        # the translate-mode pre-factor weight W(r_pre, pbar)/q(r_pre) must
        # average to the r-integral of W at fixed pbar
        cat = CatProject(0.6, 0.3)
        pbar = 0.4
        rng = stream(10)
        w = np.array([cat.sample_translate(0.0, pbar, rng)[3] for _ in range(60000)])
        # E[w] = [int W(r, pbar) dr] * E[sign] over the post draw, and
        # E[sign] is the box's mass of W over its mass of |W|
        r = np.linspace(-10, 10, 4001)
        marginal = simpson(cat.wigner(r, pbar), x=r)
        box = cat.box
        rr = np.linspace(-box.half_r, box.half_r, 1201)
        pp = np.linspace(-box.half_p, box.half_p, 1201)
        wg = cat.wigner(rr[:, None], pp[None, :])
        post_mean = (simpson(simpson(wg, x=pp, axis=1), x=rr)
                     / simpson(simpson(np.abs(wg), x=pp, axis=1), x=rr))
        target = marginal * post_mean
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - target) <= 3.0 * se
