"""Closed-form smoothing exponents for nonlinear semigroup estimates.

Everything in this module is exact arithmetic on the parameters of
regularization estimates of the form

    ||T_t u - T_t v||_r  <=  C t^{-alpha} e^{omega beta t} ||u - v||_q^{gamma}.

A Gagliardo-Nirenberg inequality for the generator yields a base triple
(alpha, beta, gamma) for one (q, r) pair; an iteration along the Lebesgue
scale extrapolates it to r = inf; interpolation with the contraction scale
brings the source norm down to any admissible s. The p-Laplace, boundary
trace (dtn) and fractional families follow this route in one function,
_gn_exponents; each family is a row of the table _FAMILIES, which holds
what differs between them in each regime x < d, x = d, x > d (x = p, or
sfrac*p): the default-seed threshold and the target r, the theta range and
the inequality with its pinned seed, and the direct (alpha, gamma). Doubly
nonlinear diffusions take the Moser route instead.

All functions are pure: same inputs give bit-identical outputs. Validity
conditions are reported by name, and violations raise ConditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

INF = float("inf")


class ConditionError(ValueError):
    """A validity condition of an exponent formula fails.

    condition holds the name of the first failed condition; conditions maps
    every condition that was evaluated to its boolean value.
    """

    def __init__(self, condition, message, conditions=None):
        super().__init__(message)
        self.condition = condition
        self.conditions = dict(conditions or {})


def _positive(*terms):
    """sum(terms) > 0 beyond roundoff, which must not decide a critical case."""
    return sum(terms) > 1e-12 * sum(abs(t) for t in terms)


def _require(conditions, name, ok, message):
    conditions[name] = bool(ok)
    if not ok:
        raise ConditionError(name, message, conditions)


@dataclass(frozen=True)
class GNParams:
    """Parameters of the generator inequality

    ||u||_r^{sigma} <= C ||u||_q^{rho} [u, Au]_q.
    """

    q: float
    r: float
    sigma: float
    rho: float = 0.0

    def __post_init__(self):
        if not (1.0 <= self.q < INF):
            raise ValueError(f"q must satisfy 1 <= q < inf, got {self.q}")
        if not (1.0 <= self.r):
            raise ValueError(f"r must satisfy 1 <= r <= inf, got {self.r}")
        if not (0.0 < self.sigma < INF):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 <= self.rho < INF):
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


@dataclass(frozen=True)
class ExponentTriple:
    """One-step smoothing exponents from q to r."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class StarExponents:
    """Exponents of the extrapolated estimate landing in L^inf.

    The source norm of the extrapolated estimate is L^pivot, where
    pivot = gamma * r * m0 / q for iterated estimates and pivot = q when
    the inequality already reaches r = inf directly (then m0 is None).
    """

    alpha_star: float | None
    beta_star: float | None
    gamma_star: float | None
    m0: float | None
    pivot: float | None
    valid: bool
    conditions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SExponents:
    """Exponents after lowering the source norm to L^s."""

    s: float
    alpha_s: float
    beta_s: float
    gamma_s: float
    theta_s: float
    case: str = ""
    star: StarExponents | None = None
    conditions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IterationResult:
    """An orbit of x_{k+1} = kappa x_k + c: its terms, their closed form, the
    strict-monotonicity flag and the growth limit lim x_k / kappa^k."""

    values: tuple
    closed_form: tuple
    increasing: bool
    growth_limit: float


def smoothing_exponents(params):
    """Base smoothing triple implied by a generator inequality.

    alpha = 1/sigma, gamma = (q + rho)/sigma and beta = gamma + 1. The
    estimate it parametrizes is
    ||T_t u - T_t v||_r <= K t^{-alpha} e^{omega beta t} ||u - v||_q^{gamma}.
    """
    gamma = (params.q + params.rho) / params.sigma
    return ExponentTriple(alpha=1.0 / params.sigma, beta=gamma + 1.0, gamma=gamma)


def extrapolate_to_infinity(q, r, gamma, alpha, beta, m0):
    """Iterate a q -> r estimate along the Lebesgue scale up to L^inf.

    Requires a finite r with gamma*r > q (strict), a seed m0 >= q/gamma and
    a positive denominator D = (gamma*r/q - 1)*m0 + q*(1/gamma - 1). The
    result bounds the L^inf norm by the L^pivot norm, pivot = gamma*r*m0/q.
    A violated condition raises ConditionError, with every condition
    evaluated so far reported by name.
    """
    for name, v in (("q", q), ("gamma", gamma), ("alpha", alpha), ("beta", beta), ("m0", m0)):
        if not (math.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v}")
    if q < 1.0 or gamma <= 0.0 or alpha <= 0.0:
        raise ValueError(f"need q >= 1, gamma > 0, alpha > 0; got q={q}, gamma={gamma}, alpha={alpha}")
    if r == INF:
        raise ValueError("r must be finite: an estimate into L^inf needs no extrapolation")
    if not (1.0 <= r and math.isfinite(r)):
        raise ValueError(f"r must satisfy 1 <= r < inf, got {r}")

    conditions = {}
    _require(
        conditions,
        "gamma_r_gt_q",
        _positive(gamma * r, -q),
        f"need gamma*r > q strictly, got gamma*r = {gamma * r} vs q = {q}",
    )
    # multiplicative form with a roundoff slack: the boundary m0 = q/gamma is
    # admissible and is hit exactly (in real arithmetic) by the default seeds
    _require(
        conditions,
        "m0_ge_q_over_gamma",
        m0 * gamma >= q * (1.0 - 1e-12),
        f"need m0 >= q/gamma = {q / gamma}, got m0 = {m0}",
    )
    kappa_ratio = gamma * r / q
    D = (kappa_ratio - 1.0) * m0 + q * (1.0 / gamma - 1.0)
    _require(
        conditions,
        "denominator_positive",
        _positive((kappa_ratio - 1.0) * m0, q * (1.0 / gamma - 1.0)),
        f"need (gamma*r/q - 1)*m0 + q*(1/gamma - 1) > 0, got {D}",
    )

    alpha_star = alpha * q / (gamma * D)
    gamma_star = (kappa_ratio - 1.0) * m0 / D
    beta_star = ((beta - 1.0) * kappa_ratio + gamma - beta) / D + 1.0
    # when beta = gamma + 1 an equivalent published form exists; evaluate both
    # and fail loudly on drift rather than silently trusting one transcription
    if abs(beta - (gamma + 1.0)) < 1e-12 * max(1.0, abs(beta)):
        beta_star_alt = (gamma * gamma * r / q - 1.0) / D + 1.0
        if abs(beta_star_alt - beta_star) > 1e-9 * max(1.0, abs(beta_star)):
            raise ArithmeticError(
                f"internal formula drift: beta* variants disagree "
                f"({beta_star} vs {beta_star_alt})"
            )
    pivot = kappa_ratio * m0
    return StarExponents(alpha_star, beta_star, gamma_star, m0, pivot, True, conditions)


def _reduce_star_to_s(star, s, case, conditions=None):
    """The source-lowering step of every theorem, from the pivot norm of a star estimate.

    Interpolation against the L^s contraction with theta_s = s/pivot needs
    den = 1 - gamma*(1 - theta_s) > 0, and gives alpha_s = alpha*/den,
    beta_s = (beta*/2 + gamma* theta_s)/den and gamma_s = gamma* theta_s/den.
    s = pivot returns the star exponents unchanged.
    """
    conditions = dict(conditions or {})
    _require(
        conditions,
        "s_in_range",
        1.0 <= s <= star.pivot,
        f"need 1 <= s <= {star.pivot}, got s = {s}",
    )
    theta, gamma = s / star.pivot, star.gamma_star
    den = 1.0 - gamma * (1.0 - theta)
    _require(
        conditions,
        "gamma_star_condition",
        _positive(1.0, -gamma * (1.0 - theta)),
        f"need gamma_star*(1 - s/pivot) < 1, got {gamma * (1.0 - theta)}",
    )
    return SExponents(
        s=float(s),
        alpha_s=star.alpha_star / den,
        beta_s=(star.beta_star / 2.0 + gamma * theta) / den,
        gamma_s=gamma * theta / den,
        theta_s=theta,
        case=case,
        star=star,
        conditions=conditions,
    )


def _check_kappa(kappa):
    if not (kappa > 1.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must satisfy kappa > 1, got {kappa}")


def _affine_orbit(kappa, c, x0, n):
    """Orbit of x_{k+1} = kappa x_k + c with its closed form.

    Returns the first n+1 terms, the closed-form values

        x_k = kappa^k [ (kappa-1) x0 + c ] / (kappa-1) - c/(kappa-1),

    the strict-monotonicity flag (positivity of the bracketed seed
    coefficient) and the growth limit lim x_k / kappa^k.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    values = [float(x0)]
    for _ in range(n):
        values.append(kappa * values[-1] + c)
    seed = (kappa - 1.0) * x0 + c
    coeff = seed / (kappa - 1.0)
    offset = c / (kappa - 1.0)
    return IterationResult(
        values=tuple(values),
        closed_form=tuple(coeff * kappa**j - offset for j in range(n + 1)),
        increasing=seed > 0.0,
        growth_limit=coeff,
    )


def iteration_sequence(kappa, r, gamma, m0, n):
    """Orbit of m_{k+1} = kappa m_k - (r/kappa)(gamma - 1), the Lebesgue-scale iteration."""
    _check_kappa(kappa)
    for name, v in (("r", r), ("gamma", gamma), ("m0", m0)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return _affine_orbit(kappa, (r / kappa) * (1.0 - gamma), m0, n)


def moser_q_sequence(kappa, m, p, q0, n):
    """Orbit of q_{k+1} = kappa q_k + p - 1 - 1/m, the Moser iteration."""
    _check_kappa(kappa)
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m}")
    return _affine_orbit(kappa, p - 1.0 - 1.0 / m, q0, n)


def _moser_beta_series(kappa, m, p, q0, rel_tol=1e-12, max_terms=20000):
    """Numeric value of S = sum_{v>=0} 2^{-v} (kappa q_v / q_{v+1} + 1) kappa^{-v} q_{v+1}.

    Evaluated in the scaled variables z_v = kappa^{-v} q_v, which stay
    bounded, so no overflow for any kappa > 1. The term ratio tends to 1/2,
    hence the truncation error is comparable to the last term.
    """
    c = p - 1.0 - 1.0 / m
    z = float(q0)  # z_0
    total = 0.0
    scale = 1.0  # kappa^{-v}
    half = 1.0  # 2^{-v}
    for v in range(max_terms):
        z_next = z + c * scale / kappa  # z_{v+1} = z_v + c kappa^{-(v+1)}
        # kappa q_v / q_{v+1} = z_v / z_{v+1};  kappa^{-v} q_{v+1} = kappa z_{v+1}
        term = half * (z / z_next + 1.0) * kappa * z_next
        total += term
        if v >= 8 and term <= rel_tol * abs(total):
            return total
        z = z_next
        scale /= kappa
        half /= 2.0
    raise ArithmeticError("beta* series did not converge")


def moser_exponents(kappa, m, p, q0, s=1.0):
    """Star exponents of the Moser iteration for phi(u) = |u|^{m-1} u.

    Requires kappa > 1, kappa*m*q0 >= 1 and the seed condition
    D = (kappa - 1) q0 + p - 1 - 1/m > 0. Then

        alpha* = 1/(m D),   gamma* = (kappa - 1) q0 / D,
        beta*  = (kappa - 1)/(2 kappa D) * S,

    with S the iterated-constant series summed numerically. The source norm
    is lowered from the pivot kappa*m*q0 to L^s by the shared reduction.
    """
    _check_kappa(kappa)
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"m must be positive and finite, got {m}")
    if not (q0 > 0.0 and math.isfinite(q0)):
        raise ValueError(f"q0 must be positive and finite, got {q0}")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")

    conditions = {}
    pivot = kappa * m * q0
    _require(
        conditions,
        "pivot_ge_one",
        pivot >= 1.0,
        f"need kappa*m*q0 >= 1, got {pivot}",
    )
    D = (kappa - 1.0) * q0 + p - 1.0 - 1.0 / m
    _require(
        conditions,
        "seed_condition",
        _positive((kappa - 1.0) * q0, p, -1.0, -1.0 / m),
        f"need (kappa-1)*q0 + p - 1 - 1/m > 0, got {D}",
    )
    alpha_star = 1.0 / (m * D)
    gamma_star = (kappa - 1.0) * q0 / D
    S = _moser_beta_series(kappa, m, p, q0)
    beta_star = (kappa - 1.0) / D * S / (2.0 * kappa)
    star = StarExponents(alpha_star, beta_star, gamma_star, q0, pivot, True, conditions)
    return _reduce_star_to_s(star, s, case="moser", conditions=conditions)


# ---------------------------------------------------------------------------
# application helpers: the Gagliardo-Nirenberg families
# ---------------------------------------------------------------------------

def _default_m0(p, threshold, given, what):
    """Seed defaulting: m0 = p is admissible iff p > threshold."""
    if given is not None:
        return float(given)
    if p > threshold:
        return float(p)
    raise ConditionError(
        "m0_required",
        f"default seed m0 = p needs p > {threshold}; "
        f"got p = {p}, so {what} requires an explicit m0",
    )


def _direct_star(alpha, gamma, pivot):
    """Star record for inequalities that reach r = inf without iteration."""
    return StarExponents(
        alpha_star=alpha,
        beta_star=gamma + 1.0,
        gamma_star=gamma,
        m0=None,
        pivot=pivot,
        valid=True,
        conditions={},
    )


def _plaplace_direct(d, p):
    theta0 = p * d / (p * d + 2.0 * (p - d))
    return theta0 / p, (2.0 * theta0 + p * (1.0 - theta0)) / p


# One row per family of the Gagliardo-Nirenberg route; x is p, or sfrac*p,
# against d. x < d: the seed defaults to m0 = p iff p > m0_threshold(d, sfrac),
# and the inequality runs from L^2 to L^sub_r(d, p, x). x = d: theta(p) gives
# the lower end lo of the range (lo, 1) and the default, critical(p, theta)
# the inequality and pinned(p, base) the seed. x > d: direct(d, p) is the
# (alpha, gamma) of an estimate from L^2 straight into L^inf.
_FAMILIES = {
    "plaplace": SimpleNamespace(
        x="p",
        m0_threshold=lambda d, sfrac: 2.0 * d / (d + 2.0),
        sub_r=lambda d, p, x: p * d / (d - x),
        theta=lambda p: (0.0, 0.5),
        critical=lambda p, t: GNParams(q=2.0, r=2.0 / (1.0 - t), sigma=p / t, rho=p * (1.0 - t) / t),
        pinned=lambda p, base: 2.0 / base.gamma,
        direct=_plaplace_direct,
    ),
    # the boundary trace: the effective dimension is d - 1
    "dtn": SimpleNamespace(
        x="p",
        m0_threshold=lambda d, sfrac: 2.0 * d / (d + 1.0),
        sub_r=lambda d, p, x: p * (d - 1.0) / (d - p),
        theta=lambda p: (1.0 - 1.0 / p, 1.0 - 1.0 / (2.0 * p)),
        critical=lambda p, t: GNParams(q=2.0, r=1.0 / (1.0 - t), sigma=p),
        pinned=lambda p, base: p,
        direct=lambda d, p: (1.0 / p, 2.0 / p),
    ),
    "fractional": SimpleNamespace(
        x="sp",
        m0_threshold=lambda d, sfrac: 2.0 * d / (d + 2.0 * sfrac),
        sub_r=lambda d, p, x: p * d / (d - x),
        theta=lambda p: ((lo := max(0.0, 1.0 - p / 2.0)), (lo + 1.0) / 2.0),
        critical=lambda p, t: GNParams(q=2.0, r=p / (1.0 - t), sigma=p),
        pinned=lambda p, base: p,
        direct=lambda d, p: (1.0 / p, 2.0 / p),
    ),
}


def _regime(x, d):
    """'<', '=' or '>' for x against d; x within a relative 1e-12 of d is the
    critical '=', so roundoff in x = sfrac*p cannot pick the regime."""
    if math.isclose(x, d, rel_tol=1e-12):
        return "="
    return "<" if x < d else ">"


def _gn_exponents(family, d, p, s, m0, theta, sfrac=1.0):
    """The GN route of one family: L^2 -> L^r, extrapolation to L^inf, L^s."""
    row = _FAMILIES[family]
    x = sfrac * p
    regime = _regime(x, d)
    case = f"{family}:{row.x}{regime}d"
    if theta is not None and regime != "=":
        raise ValueError(f"theta only applies in the borderline case, not {row.x} {regime} d")
    if m0 is not None and regime != "<":
        raise ValueError(f"m0 is determined internally when {row.x} {regime} d; pass m0=None")
    if regime == ">":
        alpha, gamma = row.direct(d, p)
        return _reduce_star_to_s(_direct_star(alpha, gamma, pivot=2.0), s, case=case)

    conditions = {}
    if regime == "<":
        m0 = _default_m0(p, row.m0_threshold(d, sfrac), m0, f"{family}_exponents with {row.x} < d")
        _require(conditions, "m0_ge_p", m0 >= p, f"need m0 >= p = {p}, got m0 = {m0}")
        gn = GNParams(q=2.0, r=row.sub_r(d, p, x), sigma=p)
    else:
        lo, default = row.theta(p)
        theta = default if theta is None else float(theta)
        _require(conditions, "theta_in_range", lo < theta < 1.0, f"need theta in ({lo}, 1), got {theta}")
        gn = row.critical(p, theta)
    base = smoothing_exponents(gn)
    if regime == "=":
        m0 = row.pinned(p, base)
    star = extrapolate_to_infinity(gn.q, gn.r, base.gamma, base.alpha, base.beta, m0)
    conditions.update(star.conditions)
    return _reduce_star_to_s(star, s, case=case, conditions=conditions)


def plaplace_exponents(d, p, s=1.0, m0=None, theta=None):
    """L^s -> L^inf smoothing exponents for the p-Laplace evolution.

    Covers 1 < p < d, p = d and p > d on a d-dimensional domain. The
    exponents are the same under Dirichlet, Neumann and Robin coupling; only
    the constants differ, so the function takes no boundary condition.
    For p = d the estimate carries a free interpolation parameter
    theta in (0, 1), default 1/2; m0 is then pinned internally. For p < d
    the seed defaults to m0 = p, admissible iff p > 2d/(d+2).
    """
    d = _check_dim(d)
    p = _check_p(p)
    _check_s(s)
    return _gn_exponents("plaplace", d, p, s, m0, theta)


def dtn_exponents(d, p, s=1.0, m0=None, theta=None):
    """Smoothing exponents when the dynamics run on the boundary trace.

    The effective dimension is d - 1, which shifts every regime: for
    1 < p < d the seed defaults to m0 = p iff p > 2d/(d+1); for p = d the
    free parameter theta lies in (1 - 1/p, 1), default 1 - 1/(2p), with m0
    pinned to p; for p > d the estimate is direct from L^2.
    """
    d = _check_dim(d)
    if d < 2:
        raise ValueError(f"the boundary-trace case needs d >= 2, got d = {d}")
    p = _check_p(p)
    _check_s(s)
    return _gn_exponents("dtn", d, p, s, m0, theta)


def fractional_exponents(d, p, sfrac, s=1.0, m0=None, theta=None):
    """Smoothing exponents for the fractional p-Laplace evolution of order sfrac.

    sfrac lies in (0, 1]; the regimes split on sfrac*p vs d. For
    sfrac*p < d the seed defaults to m0 = p iff p > 2d/(d + 2 sfrac) and
    the local exponents are recovered exactly at sfrac = 1. For
    sfrac*p = d, theta lies in (max(0, 1 - p/2), 1) with m0 pinned to p.
    For sfrac*p > d the estimate is direct from L^2.
    """
    d = _check_dim(d)
    p = _check_p(p)
    if not (0.0 < sfrac <= 1.0):
        raise ValueError(f"sfrac must lie in (0, 1], got {sfrac}")
    _check_s(s)
    return _gn_exponents("fractional", d, p, s, m0, theta, sfrac)


def doubly_nonlinear_exponents(d, p, m, s=1.0, q0=None, theta=None):
    """Smoothing exponents for u_t = div(|grad phi(u)|^{p-2} grad phi(u)),
    phi(u) = |u|^{m-1} u.

    For 1 < p < d the Moser route runs with kappa = d/(d-p) and a seed
    q0 >= p, defaulting to q0 = p iff p > d(1 + 1/m)/(1 + d + 1/m). For
    p = d, kappa = 1/(1-theta) with theta in (0, 1), default 1/2, and
    q0 defaults to p when admissible. For p > d the estimate is direct
    with pivot m + 1. m = 1 recovers the p-Laplace time exponents.
    """
    d = _check_dim(d)
    p = _check_p(p)
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"m must be positive and finite, got {m}")
    _check_s(s)
    regime = _regime(p, d)
    if theta is not None and regime != "=":
        raise ValueError(f"theta only applies in the borderline case p = d, got p = {p}, d = {d}")

    if regime == ">":  # direct estimate with source L^{m+1}
        if q0 is not None:
            raise ValueError("q0 does not apply when p > d; pass q0=None")
        E = 1.0 + (m + 1.0) / m * (1.0 / d - 1.0 / p)
        star = _direct_star(alpha=1.0 / (p * m * E), gamma=(m + 1.0) / (d * m * E), pivot=m + 1.0)
        return _reduce_star_to_s(star, s, case="doubly-nonlinear:p>d")

    conditions = {}
    if regime == "<":
        threshold = d * (1.0 + 1.0 / m) / (1.0 + d + 1.0 / m)
        q0 = _default_m0(p, threshold, q0, "doubly_nonlinear_exponents with p < d")
        kappa = d / (d - p)
    else:
        theta = 0.5 if theta is None else float(theta)
        _require(conditions, "theta_in_range", 0.0 < theta < 1.0, f"need theta in (0, 1), got {theta}")
        q0 = float(p) if q0 is None else q0
        kappa = 1.0 / (1.0 - theta)
    _require(conditions, "q0_ge_p", q0 >= p, f"need q0 >= p = {p}, got q0 = {q0}")
    out = moser_exponents(kappa=kappa, m=m, p=p, q0=q0, s=s)
    conditions.update(out.conditions)
    return replace(out, case=f"doubly-nonlinear:p{regime}d", conditions=conditions)


def barenblatt_exponent(d, p):
    """Sup-norm decay rate d/lambda of the source solution, lambda = d(p-2)+p.

    Defined for p > 2d/(d+1), where lambda > 0.
    """
    d = _check_dim(d)
    p = _check_p(p)
    lam = d * (p - 2.0) + p
    conditions = {}
    _require(
        conditions,
        "lambda_positive",
        _positive(d * (p - 2.0), p),
        f"need d(p-2)+p > 0, i.e. p > {2.0 * d / (d + 1.0)}, got p = {p}",
    )
    return d / lam


def _check_dim(d):
    if not (abs(d) < math.inf and int(d) == d >= 1):
        raise ValueError(f"d must be a positive integer, got {d}")
    return int(d)


def _check_p(p):
    p = float(p)
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must satisfy 1 < p < inf, got {p}")
    return p


def _check_s(s):
    if not (s >= 1.0 and math.isfinite(s)):
        raise ValueError(f"s must satisfy 1 <= s < inf, got {s}")
    return float(s)
