"""Self-contained verification battery.

Thirteen numbered criteria, each building its own oracle (closed form,
independent quadrature, or exact algebraic identity) and measuring the
engine against it. ``run()`` executes them in order and aggregates a report;
no input files are involved and all randomness is seeded, so the report is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closedform, engine
from .closedform import Form, coherent_state, sb_coherent
from .core import (
    CoherentLabel,
    CoherentSum,
    Gauge,
    HermiteRep,
    KAPPA_SQUARED,
    PlaneField,
    PlaneGrid,
    TransformParameter,
    gauge_factor,
)
from .hermite import (
    gram_matrix,
    hermite_analyze,
    hermite_poly,
    poly_coeffs_heat,
    poly_coeffs_ladder,
    poly_coeffs_rodrigues,
)
from .quadrature import QuadratureRule


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict
    tolerance: dict
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "criteria": [r.to_dict() for r in self.results],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] criterion {r.index:2d} {r.name}: {r.detail}")
        lines.append("ALL PASSED" if self.all_passed else "FAILURES PRESENT")
        return lines


def _unit_packet(P: float, Q: float) -> CoherentSum:
    return CoherentSum((1.0,), (CoherentLabel(P, Q),))


def _shared_unitarity(context: dict) -> engine.UnitarityReport:
    if "unitarity" not in context:
        context["unitarity"] = engine.unitarity_report()
    return context["unitarity"]


def c01_packet_normalization(context: dict) -> CriterionResult:
    """Quadrature norm of 10 random packets equals 1."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        P, Q = rng.uniform(-2, 2, size=2)
        rule = QuadratureRule.gauss_hermite(96, center=Q, scale=1.0)
        vals = coherent_state(rule.nodes, CoherentLabel(P, Q))
        norm = math.pi ** 0.5 * float(
            (np.abs(vals) ** 2 @ rule.absorbed).real)
        worst = max(worst, abs(norm - 1.0))
    tol = 1e-10
    return CriterionResult(
        1, "packet normalization", worst < tol,
        {"max_abs_error": worst}, {"max_abs_error": tol},
        f"max |<psi,psi>-1| = {worst:.3e} (tol {tol:.0e})")


def c02_form_agreement(context: dict) -> CriterionResult:
    """Factored and direct image assemblies agree on 1000 random draws."""
    rng = np.random.default_rng(2)
    ts = np.concatenate([rng.uniform(0.01, math.pi / 2 - 0.01, 996),
                         [1e-3, math.pi / 4, 1.0, math.pi / 2 - 1e-3]])
    worst = 0.0
    for t in ts:
        param = TransformParameter.from_t(float(t))
        label = CoherentLabel(*rng.uniform(-2, 2, size=2))
        x, p = rng.uniform(-4, 4, size=2)
        direct = closedform.hfrft_coherent(x, p, param, label, Form.DIRECT)
        factored = closedform.hfrft_coherent(x, p, param, label, Form.FACTORED)
        worst = max(worst, float(np.abs(factored - direct) / np.abs(direct)))
    tol = 1e-11
    return CriterionResult(
        2, "image form agreement", worst < tol,
        {"max_rel_error": worst}, {"max_rel_error": tol},
        f"max relative difference = {worst:.3e} over 1000 draws (tol {tol:.0e})")


def c03_gauge_identity(context: dict) -> CriterionResult:
    """Gauge factor times holomorphic image equals the weighted image."""
    rng = np.random.default_rng(3)
    labels = [CoherentLabel(0.7, -0.3), CoherentLabel(-1.1, 0.8)]
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        param = TransformParameter.from_s(s)
        x = rng.uniform(-4, 4, 100)
        p = rng.uniform(-4, 4, 100)
        z = x + 1j * s * p
        for label in labels:
            lhs = gauge_factor(param, p) * sb_coherent(s, label, z)
            rhs = closedform.hfrft_coherent(x, p, param, label, Form.DIRECT)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    # s = 1 prefactor anchor: both routes reduce to (sqrt(2) pi)^{-1/2}
    anchor_gauge = 2 ** 0.25 * (2 * math.pi) ** -0.5
    anchor_direct = (math.sqrt(2) * math.pi) ** -0.5
    anchor_err = abs(anchor_gauge - anchor_direct)
    tol = 1e-11
    passed = worst < tol and anchor_err < 1e-15
    return CriterionResult(
        3, "gauge identity", passed,
        {"max_rel_error": worst, "s1_prefactor_gap": anchor_err},
        {"max_rel_error": tol},
        f"max relative error = {worst:.3e} over s in {{0.25,0.5,1,2,4}} "
        f"(tol {tol:.0e}); s=1 prefactor gap {anchor_err:.1e}")


def c04_kernel_vs_oracle(context: dict) -> CriterionResult:
    """Kernel quadrature reproduces the closed-form image of a superposition.

    Error metric is |delta| / max(1, |oracle|): the holomorphic gauge grows
    like e^{s p^2/2} (peak ~3e4 on this grid), where plain absolute error is
    limited by float64 representation, not by quadrature. The raw absolute
    and weighted-gauge absolute errors are reported alongside.
    """
    s = 1.0
    weights = (0.8 + 0.3j, 0.45 - 0.2j)
    labels = (CoherentLabel(0.3, -0.4), CoherentLabel(-1.1, 0.7))
    signal = CoherentSum(weights, labels)
    grid = PlaneGrid.regular(6.0, 6.0, 97, 97)
    z = grid.z_values(s)
    got = engine.sb_kernel_apply(s, signal, z)
    oracle = closedform.sb_coherent_sum(s, weights, labels, z)
    delta = np.abs(got - oracle)
    mixed = float(np.max(delta / np.maximum(1.0, np.abs(oracle))))
    raw_abs = float(delta.max())
    damp = np.exp(-s * grid.ps ** 2 / 2)[None, :]
    weighted_abs = float(np.max(delta * damp) * (1 + s * s) ** 0.25)
    tol = 1e-9
    return CriterionResult(
        4, "kernel vs closed-form oracle", mixed < tol,
        {"max_mixed_error": mixed, "max_abs_error_raw": raw_abs,
         "max_abs_error_weighted_gauge": weighted_abs},
        {"max_mixed_error": tol},
        f"max |delta|/max(1,|oracle|) = {mixed:.3e} on [-6,6]^2 (tol {tol:.0e}); "
        f"raw abs {raw_abs:.1e} at |oracle| up to {np.abs(oracle).max():.1e}, "
        f"weighted-gauge abs {weighted_abs:.1e}")


def c05_monomial_image(context: dict) -> CriterionResult:
    """Polynomial basis members map to s^{-n} z^n."""
    s = 0.8
    rng = np.random.default_rng(5)
    r = rng.uniform(0.5, 2.5, 20)
    theta = rng.uniform(0, 2 * math.pi, 20)
    z = r * np.exp(1j * theta)
    worst = 0.0
    for n in range(7):
        def poly(x, n=n):
            return hermite_poly(n, s, x).astype(complex)
        got = engine.sb_kernel_apply(s, poly, z)
        expected = s ** -float(n) * z ** n
        worst = max(worst, float(np.max(np.abs(got - expected)
                                        / np.abs(expected))))
    tol = 1e-8
    return CriterionResult(
        5, "monomial image", worst < tol,
        {"max_rel_error": worst}, {"max_rel_error": tol},
        f"max relative error = {worst:.3e} for n <= 6 at 20 points (tol {tol:.0e})")


def c06_spectral_vs_kernel(context: dict) -> CriterionResult:
    """Spectral route through closed-form basis images agrees with kernel quadrature."""
    s = 1.0
    rng = np.random.default_rng(6)
    xs = np.linspace(-4, 4, 9)
    ps = np.linspace(-4, 4, 9)
    z = (xs[:, None] + 1j * s * ps[None, :]).ravel()
    cache = engine.build_basis_images(s, 40, z)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
        coeffs /= np.linalg.norm(coeffs)
        signal = HermiteRep(s, coeffs)
        direct = engine.sb_kernel_apply(s, signal, z)
        spectral = engine.sb_spectral_apply(
            s, hermite_analyze(signal, s, 40), cache)
        worst = max(worst, float(np.max(np.abs(direct - spectral))))
    tol = 2e-8
    return CriterionResult(
        6, "spectral vs kernel", worst < tol,
        {"max_abs_error": worst}, {"max_abs_error": tol},
        f"max |kernel - spectral| = {worst:.3e} over 5 random signals (tol {tol:.0e})")


def c07_endpoint(context: dict) -> CriterionResult:
    """Quadrature endpoint field matches the closed form and the t -> pi/2 limit.

    The continuity gap grows like (eps/2)(dx^2 + dp^2)|A| in the centered
    offsets, so it is measured on the window of half-width 4 around the
    packet's phase-space center (Q, P), matching the x-window of the
    inversion criterion.
    """
    label = CoherentLabel(0.6, -0.8)
    signal = _unit_packet(label.P, label.Q)
    grid = PlaneGrid(np.linspace(label.Q - 4, label.Q + 4, 41),
                     np.linspace(label.P - 4, label.P + 4, 41))
    X, P = grid.meshes()
    endpoint = engine.endpoint_apply(signal, grid)
    oracle = closedform.hfrft_endpoint_coherent(X, P, label)
    err_closed = float(np.max(np.abs(endpoint.values - oracle)))
    eps = 1e-3
    near = engine.hfrft_apply(
        TransformParameter.from_t(math.pi / 2 - eps), signal, grid)
    err_cont = float(np.max(np.abs(near.values - endpoint.values)))
    tol_closed, tol_cont = 1e-9, 5e-3
    passed = err_closed < tol_closed and err_cont < tol_cont
    return CriterionResult(
        7, "endpoint and continuity", passed,
        {"max_abs_error_closed_form": err_closed,
         "max_abs_error_continuity": err_cont},
        {"max_abs_error_closed_form": tol_closed,
         "max_abs_error_continuity": tol_cont},
        f"closed form {err_closed:.3e} (tol {tol_closed:.0e}); "
        f"field at t=pi/2-{eps:g} within {err_cont:.3e} (tol {tol_cont:.0e})")


def c08_sb_unitarity(context: dict) -> CriterionResult:
    """Holomorphic-gauge norm ratios equal 1 for packets and pairs."""
    report = _shared_unitarity(context)
    rows = [i for i, name in enumerate(report.signal_names)
            if name.startswith("packet") or name == "pair superposition"]
    dev = float(np.max(np.abs(report.hs_ratios[rows] - 1)))
    tol = 1e-5
    return CriterionResult(
        8, "holomorphic-gauge unitarity", dev < tol,
        {"max_ratio_deviation": dev}, {"max_ratio_deviation": tol},
        f"max |ratio - 1| = {dev:.3e} over packets and pairs, "
        f"s in {report.s_values} (tol {tol:.0e})")


def c09_constant_ratio(context: dict) -> CriterionResult:
    """Weighted-gauge norm ratios are constant across signals and t."""
    report = _shared_unitarity(context)
    spread = report.ht_spread
    fit = report.kappa_sq_fit
    fit_err = abs(fit - KAPPA_SQUARED)
    tol = 1e-5
    passed = spread < tol and fit_err < tol
    return CriterionResult(
        9, "constant-ratio unitarity", passed,
        {"ratio_spread": spread, "kappa_sq_fit": fit,
         "kappa_sq_deviation": fit_err},
        {"ratio_spread": tol, "kappa_sq_deviation": tol},
        f"spread {spread:.3e} across {report.ht_ratios.size} ratios; "
        f"fitted constant {fit:.12f} vs 2^-1/2 "
        f"(|dev| {fit_err:.3e}, tol {tol:.0e})")


def c10_inversion(context: dict) -> CriterionResult:
    """Round trip signal -> holomorphic field -> signal on x in [-4, 4]."""
    s, R = 1.0, 8.0
    signal = _unit_packet(0.0, 0.0)
    xs = np.linspace(-4, 4, 81)
    grid = PlaneGrid(xs, np.linspace(-R, R, 257))
    raw = engine.sb_kernel_apply(s, signal, grid.z_values(s))
    fld = PlaneField(grid, raw, Gauge.HOLOMORPHIC, TransformParameter.from_s(s))
    got, trunc = engine.sb_inverse(s, fld, xs, R)
    expected = coherent_state(xs, CoherentLabel(0.0, 0.0))
    err = float(np.max(np.abs(got - expected)))
    tol = 1e-6
    return CriterionResult(
        10, "inversion round trip", err < tol,
        {"max_abs_error": err, "truncation_estimate": trunc},
        {"max_abs_error": tol},
        f"max abs error = {err:.3e} on [-4,4] (tol {tol:.0e}); "
        f"truncation estimate {trunc:.1e}")


def c11_hermite_integrity(context: dict) -> CriterionResult:
    """Basis orthonormality, three polynomial constructions, Parseval."""
    gram = gram_matrix(1.0, 20)
    gram_err = float(np.max(np.abs(gram - np.eye(21))))

    rng = np.random.default_rng(11)
    x = rng.uniform(-6, 6, 25)
    form_err = 0.0
    polyval = np.polynomial.polynomial.polyval
    for s in (0.5, 1.25):
        for n in range(13):
            ref = hermite_poly(n, s, x)
            scale = np.maximum(1.0, np.abs(ref))
            for coeffs in (poly_coeffs_heat(n, s),
                           poly_coeffs_rodrigues(n, s),
                           poly_coeffs_ladder(n, s)):
                form_err = max(form_err, float(
                    np.max(np.abs(polyval(x, coeffs) - ref) / scale)))

    packet = _unit_packet(0.4, -0.3)
    coeffs = hermite_analyze(packet, 1.0, 40)
    parseval_err = abs(float(np.vdot(coeffs, coeffs).real) - 1.0)

    tol = 1e-9
    passed = gram_err < tol and form_err < tol and parseval_err < tol
    return CriterionResult(
        11, "basis integrity", passed,
        {"gram_error": gram_err, "three_form_error": form_err,
         "parseval_error": parseval_err},
        {"gram_error": tol, "three_form_error": tol, "parseval_error": tol},
        f"gram {gram_err:.3e}, three-form {form_err:.3e}, "
        f"parseval {parseval_err:.3e} (tol {tol:.0e})")


def c12_basis_image_audit(context: dict) -> CriterionResult:
    """Quadrature vs claimed basis-image table: the documented deviation.

    Expected: n=0 ratio exactly 2 under the table's own kernel constant
    (2 pi^{1/4} under the unitary one), and a nonzero z^0 component in the
    n=2 quadrature image with c0/c2 = -3s/4. Reproducing both counts as pass.
    """
    s = 0.7
    audit = engine.basis_image_audit(s=s)
    printed = complex(*audit["n0_ratio_printed_convention"])
    ratio_err = abs(printed - 2.0)
    c0_over_c2 = complex(*audit["n2_c0_over_c2"])
    z0_present = abs(c0_over_c2) > 0.1 * s
    c0c2_err = abs(c0_over_c2 - (-3 * s / 4))
    tol = 1e-6
    passed = ratio_err < tol and z0_present
    production = complex(*audit["n0_ratio"])
    return CriterionResult(
        12, "basis image audit", passed,
        {"n0_ratio_printed_convention": [printed.real, printed.imag],
         "n0_ratio_error": ratio_err,
         "n0_ratio_unitary_convention": [production.real, production.imag],
         "n2_c0_over_c2": [c0_over_c2.real, c0_over_c2.imag],
         "n2_c0_over_c2_error": c0c2_err},
        {"n0_ratio_error": tol},
        f"n=0 ratio {printed.real:.9f} (expected 2, err {ratio_err:.1e}); "
        f"unitary-convention ratio {production.real:.6f} (= 2 pi^(1/4)); "
        f"n=2 image keeps z^0 component, c0/c2 = {c0_over_c2.real:.6f} "
        f"(exact -3s/4 = {-3 * s / 4:.6f})")


def c13_ellipse(context: dict) -> CriterionResult:
    """Second-moment ratio of the packet field decreases in t, equals 1 at pi/4."""
    signal = _unit_packet(0.0, 0.0)
    ratios = []
    for t in (0.3, math.pi / 4, 1.2):
        param = TransformParameter.from_t(t)
        fld = engine.hfrft_apply(param, signal, engine.suggest_grid(param, signal))
        ratios.append(engine.second_moment_ellipse(fld)[2])
    decreasing = ratios[0] > ratios[1] > ratios[2]
    mid_err = abs(ratios[1] - 1.0)
    tol = 1e-6
    passed = decreasing and mid_err < tol
    return CriterionResult(
        13, "second-moment ellipse", passed,
        {"ratios": ratios, "mid_deviation": mid_err},
        {"mid_deviation": tol},
        f"var_p/var_x = {ratios[0]:.6f} > {ratios[1]:.6f} > {ratios[2]:.6f} "
        f"(cot t); |ratio(pi/4) - 1| = {mid_err:.3e} (tol {tol:.0e})")


CRITERIA = (
    c01_packet_normalization,
    c02_form_agreement,
    c03_gauge_identity,
    c04_kernel_vs_oracle,
    c05_monomial_image,
    c06_spectral_vs_kernel,
    c07_endpoint,
    c08_sb_unitarity,
    c09_constant_ratio,
    c10_inversion,
    c11_hermite_integrity,
    c12_basis_image_audit,
    c13_ellipse,
)


def run(indices: list[int] | None = None) -> VerificationReport:
    """Execute the criteria (all by default, or a 1-based subset) in order."""
    if indices is not None:
        unknown = sorted(set(indices) - set(range(1, len(CRITERIA) + 1)))
        if unknown:
            raise ValueError(
                f"unknown criteria {unknown}; valid indices are "
                f"1..{len(CRITERIA)}")
    context: dict = {}
    report = VerificationReport()
    for i, criterion in enumerate(CRITERIA, start=1):
        if indices is not None and i not in indices:
            continue
        report.results.append(criterion(context))
    return report
