"""Closed-form nonlinearities: bulk/surface potentials and the boundary coupling.

A spec bundles three scalar families:

* a bulk potential F with derivative chain f = F', f', f'',
* a surface potential F_G with f_G = F_G', f_G', f_G'',
* a coupling function h with h', h'', h'''.

Every family is an explicit closed form so that all derivatives are exact.
``validate_assumptions`` checks the admissibility clauses (smoothness of the
coupling with bounded first and second derivatives, polynomially bounded
second derivatives of the potentials with restricted growth exponents, a
linear lower bound on the potentials at large amplitude, and a one-sided
bound on f', f_G') on a sampled grid and reports each clause separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError

POTENTIAL_KINDS = ("double_well", "scaled", "polynomial", "custom")
COUPLING_KINDS = ("affine", "tanh", "custom")

# the sampled grid validate_assumptions grades the clauses on
SCAN_RANGE = (-10.0, 10.0)
SCAN_POINTS = 2001

# selector strings accepted by NonlinearitySpec.eval
SELECTORS = (
    "f", "f'", "f''", "F",
    "f_G", "f_G'", "f_G''", "F_G",
    "h", "h'", "h''", "h'''",
)


def _finalize(family, label: str, parameters) -> None:
    """Refuse non-finite parameters, then set the family's admissibility
    constants, refusing parameters extreme enough to overflow one."""
    bad = [f"{name}={getattr(family, name)!r}" for name in parameters
           if not np.all(np.isfinite(np.asarray(getattr(family, name), dtype=float)))]
    if bad:
        raise ConfigurationError(f"{family.kind} {label} needs finite parameters, "
                                 f"got {', '.join(bad)}")
    try:
        family._finalize_constants()
    except ArithmeticError as exc:      # a power overflows or underflows to 0
        raise ConfigurationError(f"{family.kind} {label} parameters out of range: {exc}") from None


@dataclass
class PotentialFamily:
    """One scalar potential F with exact derivatives f, f', f''."""

    kind: str = "double_well"
    amplitude: float = 1.0
    width: float = 1.0
    coeffs: tuple = ()          # ascending powers of F, polynomial kind only
    functions: dict = field(default_factory=dict)   # custom kind only
    # admissibility constants: |f''(s)| <= growth_c * (1 + |s|^growth_exp)
    growth_c: float = 0.0
    growth_exp: float = 0.0
    lower_c1: float = 1.0       # F(s) >= lower_c1 |s| - lower_c2 for |s| > lower_c3
    lower_c2: float = 1.0
    lower_c3: float = 2.0
    convexity_c4: float = 1.0   # f'(s) >= -convexity_c4
    analytic: bool = True

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "scaled" and (self.amplitude <= 0 or self.width <= 0):
            raise ConfigurationError("scaled potential needs amplitude > 0 and width > 0")
        if self.kind == "polynomial":
            if len(self.coeffs) < 3:
                raise ConfigurationError("polynomial potential needs at least 3 coefficients")
            self.coeffs = tuple(float(c) for c in self.coeffs)
        if self.kind == "custom":
            missing = {"F", "f", "f'", "f''"} - set(self.functions)
            if missing:
                raise ConfigurationError(f"custom potential missing callables {sorted(missing)}")
        _finalize(self, "potential", ("amplitude", "width", "coeffs"))

    def _finalize_constants(self):
        if self.kind == "double_well":
            # F(s) = (1 - s^2)^2 / 4, f = s^3 - s, f' = 3 s^2 - 1, f'' = 6 s
            self.growth_c, self.growth_exp = 6.0, 1.0
            self.lower_c1, self.lower_c2, self.lower_c3 = 1.0, 1.0, 2.0
            self.convexity_c4 = 1.0
        elif self.kind == "scaled":
            a, w = self.amplitude, self.width
            # f'' = 6 a s / w^4
            self.growth_c, self.growth_exp = 6.0 * a / w**4, 1.0
            # (x^2-1)^2 >= x for x = |s|/w >= 2, so F >= (a/(4w))|s| there
            self.lower_c1 = a / (4.0 * w)
            self.lower_c2 = a / 4.0
            self.lower_c3 = 2.0 * w
            self.convexity_c4 = a / w**2
        elif self.kind == "polynomial":
            d2 = npoly.polyder(self.coeffs, 3)   # coefficients of f''
            self.growth_c = float(np.sum(np.abs(d2))) if len(d2) else 0.0
            self.growth_exp = float(max(0, len(d2) - 1))
            d1 = npoly.polyder(self.coeffs, 2)   # f'
            if len(d1):
                s = np.linspace(-50.0, 50.0, 20001)
                self.convexity_c4 = float(max(0.0, -np.min(npoly.polyval(s, d1))))
            else:
                self.convexity_c4 = 0.0
        # custom: caller-declared constants kept as given

    def eval(self, which: str, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "double_well":
            if which == "F":
                return (1.0 - s**2) ** 2 / 4.0
            if which == "f":
                return s * s * s - s
            if which == "f'":
                return 3.0 * s**2 - 1.0
            if which == "f''":
                return 6.0 * s
        elif self.kind == "scaled":
            a, w = self.amplitude, self.width
            if which == "F":
                return a * (1.0 - (s / w) ** 2) ** 2 / 4.0
            if which == "f":
                return a * (s * s * s - w**2 * s) / w**4
            if which == "f'":
                return a * (3.0 * s**2 - w**2) / w**4
            if which == "f''":
                return 6.0 * a * s / w**4
        elif self.kind == "polynomial":
            order = {"F": 0, "f": 1, "f'": 2, "f''": 3}[which]
            return npoly.polyval(s, npoly.polyder(self.coeffs, order) if order else self.coeffs)
        elif self.kind == "custom":
            return np.asarray(self.functions[which](s), dtype=float)
        raise ConfigurationError(f"unknown potential selector {which!r}")


@dataclass
class CouplingFamily:
    """The boundary coupling h with exact derivatives up to h'''."""

    kind: str = "affine"
    alpha: float = 1.0          # affine: h(s) = alpha s + eta
    eta: float = 0.0
    scale: float = 1.0          # tanh: h(s) = scale * tanh(gain * s) + offset
    gain: float = 1.0
    offset: float = 0.0
    functions: dict = field(default_factory=dict)
    bound_h1: float = np.inf    # sup |h'|
    bound_h2: float = np.inf    # sup |h''|
    third_c: float = np.inf     # |h'''(s)| <= third_c (1 + |s|^third_exp)
    third_exp: float = 0.0
    analytic: bool = True

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise ConfigurationError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "custom":
            missing = {"h", "h'", "h''", "h'''"} - set(self.functions)
            if missing:
                raise ConfigurationError(f"custom coupling missing callables {sorted(missing)}")
        _finalize(self, "coupling", ("alpha", "eta", "scale", "gain", "offset"))

    def _finalize_constants(self):
        if self.kind == "affine":
            self.bound_h1 = abs(self.alpha)
            self.bound_h2 = 0.0
            self.third_c, self.third_exp = 0.0, 0.0
        elif self.kind == "tanh":
            a, b = abs(self.scale), abs(self.gain)
            self.bound_h1 = a * b
            # max |h''| = a b^2 * 4 / (3 sqrt(3)), attained where tanh^2 = 1/3
            self.bound_h2 = a * b**2 * 4.0 / (3.0 * np.sqrt(3.0))
            self.third_c, self.third_exp = 2.0 * a * b**3, 0.0
        # custom: caller-declared bounds kept as given

    def eval(self, which: str, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "affine":
            if which == "h":
                return self.alpha * s + self.eta
            if which == "h'":
                return np.full_like(s, self.alpha)
            if which in ("h''", "h'''"):
                return np.zeros_like(s)
        elif self.kind == "tanh":
            a, b = self.scale, self.gain
            t = np.tanh(b * s)
            sech2 = 1.0 - t**2
            if which == "h":
                return a * t + self.offset
            if which == "h'":
                return a * b * sech2
            if which == "h''":
                return -2.0 * a * b**2 * sech2 * t
            if which == "h'''":
                return 2.0 * a * b**3 * sech2 * (3.0 * t**2 - 1.0)
        elif self.kind == "custom":
            return np.asarray(self.functions[which](s), dtype=float)
        raise ConfigurationError(f"unknown coupling selector {which!r}")


@dataclass
class ClauseCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    accepted: bool
    clauses: list

    def failed_clauses(self):
        return [c for c in self.clauses if not c.passed]

    def summary(self) -> str:
        lines = [f"accepted = {self.accepted}"]
        for c in self.clauses:
            tag = "pass" if c.passed else "FAIL"
            lines.append(f"  [{tag}] {c.name}: {c.detail}")
        return "\n".join(lines)


@dataclass
class NonlinearitySpec:
    """Immutable-by-convention bundle of bulk, surface, and coupling families."""

    bulk: PotentialFamily
    surface: PotentialFamily
    coupling: CouplingFamily
    validation: ValidationReport | None = None

    @property
    def c4(self) -> float:
        return max(self.bulk.convexity_c4, self.surface.convexity_c4)

    def eval(self, which: str, s):
        """Internal evaluation without the validation gate."""
        if which in ("f", "f'", "f''", "F"):
            return self.bulk.eval(which, s)
        if which in ("f_G", "f_G'", "f_G''", "F_G"):
            return self.surface.eval(which.replace("_G", ""), s)
        if which in ("h", "h'", "h''", "h'''"):
            return self.coupling.eval(which, s)
        raise ConfigurationError(f"unknown selector {which!r}; valid: {SELECTORS}")


def make_spec(bulk_kind: str = PotentialFamily.kind,
              surface_kind: str = PotentialFamily.kind,
              coupling_kind: str = CouplingFamily.kind, *, bulk_params: dict | None = None,
              surface_params: dict | None = None, coupling_params: dict | None = None,
              validate: bool = True, scan_range=SCAN_RANGE,
              scan_points: int = SCAN_POINTS) -> NonlinearitySpec:
    """Build a spec from family names and parameter dicts; validates by default."""
    spec = NonlinearitySpec(
        bulk=PotentialFamily(bulk_kind, **(bulk_params or {})),
        surface=PotentialFamily(surface_kind, **(surface_params or {})),
        coupling=CouplingFamily(coupling_kind, **(coupling_params or {})),
    )
    if validate:
        validate_assumptions(spec, scan_range=scan_range, scan_points=scan_points)
    return spec


def _within(sampled: float, bound: float) -> bool:
    return sampled <= bound * (1.0 + 1e-9) + 1e-9


def validate_assumptions(spec: NonlinearitySpec, scan_range=SCAN_RANGE,
                         scan_points: int = SCAN_POINTS) -> ValidationReport:
    """Sampled admissibility check; attaches and returns the report.

    Clauses are graded on the scan grid using each family's stored constants.
    Failures are reported, never raised.
    """
    if scan_points < 1000:
        raise ConfigurationError("scan_points must be at least 1000")
    lo, hi = float(scan_range[0]), float(scan_range[1])
    if not lo < hi:
        raise ConfigurationError("scan_range must be a nonempty interval")
    s = np.linspace(lo, hi, scan_points)
    clauses = []

    # coupling smoothness clause: closed-form families are analytic by
    # construction; custom families carry a declared flag
    clauses.append(ClauseCheck(
        "coupling analytic", spec.coupling.analytic,
        f"family {spec.coupling.kind!r} closed form" if spec.coupling.analytic
        else "custom family declared non-analytic"))

    h1 = np.abs(spec.coupling.eval("h'", s))
    ok = np.isfinite(spec.coupling.bound_h1) and _within(float(h1.max()), spec.coupling.bound_h1)
    clauses.append(ClauseCheck(
        "coupling first derivative bounded", ok,
        f"max sampled |h'| = {h1.max():.6g}, stored bound = {spec.coupling.bound_h1:.6g}"))

    h2 = np.abs(spec.coupling.eval("h''", s))
    ok = np.isfinite(spec.coupling.bound_h2) and _within(float(h2.max()), spec.coupling.bound_h2)
    clauses.append(ClauseCheck(
        "coupling second derivative bounded", ok,
        f"max sampled |h''| = {h2.max():.6g}, stored bound = {spec.coupling.bound_h2:.6g}"))

    h3 = np.abs(spec.coupling.eval("h'''", s))
    envelope = spec.coupling.third_c * (1.0 + np.abs(s) ** spec.coupling.third_exp)
    gap = float((h3 - envelope).max())
    ok = np.isfinite(spec.coupling.third_c) and gap <= 1e-9 * max(1.0, spec.coupling.third_c)
    clauses.append(ClauseCheck(
        "coupling third derivative growth", ok,
        f"max(|h'''| - envelope) = {gap:.3g} with c = {spec.coupling.third_c:.6g}, "
        f"exponent = {spec.coupling.third_exp:.3g}"))

    clauses.append(ClauseCheck(
        "potentials analytic", spec.bulk.analytic and spec.surface.analytic,
        f"bulk {spec.bulk.kind!r}, surface {spec.surface.kind!r}"))

    for label, fam, exp_cap in (("bulk", spec.bulk, 3.0), ("surface", spec.surface, np.inf)):
        d2 = np.abs(fam.eval("f''", s))
        envelope = fam.growth_c * (1.0 + np.abs(s) ** fam.growth_exp)
        gap = float((d2 - envelope).max())
        ok = fam.growth_exp < exp_cap and gap <= 1e-9 * max(1.0, fam.growth_c)
        clauses.append(ClauseCheck(
            f"{label} second-derivative growth", ok,
            f"exponent = {fam.growth_exp:.3g} (cap {exp_cap}), "
            f"max(|f''| - envelope) = {gap:.3g}"))

    for label, fam in (("bulk", spec.bulk), ("surface", spec.surface)):
        mask = np.abs(s) > fam.lower_c3
        if mask.any():
            deficit = float((fam.lower_c1 * np.abs(s[mask]) - fam.lower_c2
                             - fam.eval("F", s[mask])).max())
        else:
            deficit = -np.inf
        ok = deficit <= 1e-9
        clauses.append(ClauseCheck(
            f"{label} potential linear lower bound", ok,
            f"max(c1|s| - c2 - F) = {deficit:.3g} over |s| > {fam.lower_c3:.3g}"))

    for label, fam in (("bulk", spec.bulk), ("surface", spec.surface)):
        d1 = fam.eval("f'", s)
        worst = float(d1.min())
        ok = _within(-worst, fam.convexity_c4)
        clauses.append(ClauseCheck(
            f"{label} one-sided derivative bound", ok,
            f"min sampled f' = {worst:.6g}, -c4 = {-fam.convexity_c4:.6g}"))

    # internal consistency: f really is the derivative of F (central difference),
    # probed no wider than the default scan range
    step = 1e-5
    probes = np.linspace(max(lo, SCAN_RANGE[0]), min(hi, SCAN_RANGE[1]), 201)
    for label, fam in (("bulk", spec.bulk), ("surface", spec.surface)):
        cd = (fam.eval("F", probes + step) - fam.eval("F", probes - step)) / (2.0 * step)
        err = np.abs(cd - fam.eval("f", probes))
        rel = float((err / np.maximum(1.0, np.abs(fam.eval("f", probes)))).max())
        ok = rel < 1e-8
        clauses.append(ClauseCheck(
            f"{label} derivative chain consistency", ok,
            f"max relative gap between F' (central difference) and f = {rel:.3g}"))

    report = ValidationReport(all(c.passed for c in clauses), clauses)
    spec.validation = report
    return report
