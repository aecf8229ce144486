"""Discrete distributions with continuous extensions of their tails.

A model couples three things: the probability mass function of an
integer-valued distribution, its tail F(k) = P(X > k), and a continuous
decreasing extension G of the tail used to place the cluster location of
the sample maximum.  All values are handled as logarithms.

Protocol
--------
A subclass implements ``_log_pmf(k)`` and ``_log_tail(k)`` for the
interior of the support (k >= support_min), ``tail_ratio_gamma()`` and,
where they exist, ``_log_tail_natural(x)`` / ``_log_tail_asymptotic(x)``.
An extension is the model's ``_log_tail_<name>`` method, looked up once
when the model is built, and a model without one refuses the extension
with ValueError: the base class gives every model ``loglinear`` and
``natural``, and ``asymptotic`` exists where a model defines it.  The
base class owns the support edge: ``log_pmf`` raises ValueError below
support_min, ``log_tail`` and ``log_tail_ext`` below support_min - 1, and
the tails are 0.0 at it, for every extension.  A closed-form
``_log_tail`` that also holds at real x serves as the natural extension
as it is.  The loglinear extension keeps the last integer interval it
interpolated on as one tuple on the model, (k, ln F(k), ln F(k + 1)):
the probes of a root solve inside [k, k + 1] make no ``log_tail`` call,
and every value is the one a fresh model gives, so a subclass must not
change its tail after it is built.  Tables of pmf values read the run
``pmf_from(first)``: exp(log_pmf) at every PMF_ANCHOR_STRIDE-th class and
after any value below the normal floats, else the last value times
``_term_ratio(v)`` = pmf(v + 1) / pmf(v), which only Poisson has; its two
roundings a class add under 1.4e-14 relative to the anchor's error.

Extensions
----------
``loglinear``
    Straight-line interpolation of ln F between consecutive integers.
    Available for every model and always agrees with the true tail at
    integer points.
``natural``
    A closed-form continuous tail where one exists: the regularized
    incomplete gamma for Poisson, the regularized incomplete beta for
    the negative binomial, the exact power form for the geometric.
    Also calibrated (agrees with the true tail at integers).  Models
    without a special form fall back to loglinear.
``asymptotic``
    Poisson only: G(x) = e^-lam lam^(x+1) / Gamma(x+2), the leading
    term of the tail without the correction series.  It is NOT
    calibrated at integers (it undershoots the true tail by the series
    factor), but it is the form behind the published reference tables
    this package regression-tests against, so profiles built on it
    reproduce those tables digit for digit.  Decreasing only to the
    right of the mode; profiles require n > e^lam territory.  At the
    support edge it is 1, as every extension is, and jumps down after it.
"""

from __future__ import annotations

import math
import sys
import warnings
from itertools import accumulate, count

from .record import Record, check_int
from .specfun import log_negbinom_pmf, log_poisson_pmf, reg_beta_log, reg_gamma_p_log

EXTENSIONS = ("natural", "loglinear", "asymptotic")

# every float is an integer multiple of 1 / _FLOAT_UNITS, the least subnormal
_FLOAT_UNITS = 2 ** 1074

# pmf_from takes exp(log_pmf) at every PMF_ANCHOR_STRIDE-th class
PMF_ANCHOR_STRIDE = 64

# ln 2^-53, the gap below 1 of the largest uniform: the sampler tables read
# from pmf_from (allocsim's Poisson table at both ends, datafit's table of
# F(v) above) stop where their tails fall below it
_LOG_TABLE_TAIL = -53 * math.log(2.0)


class GammaDiagnostic(Record):
    """Convergence report for a numerically estimated tail ratio."""

    estimate: float
    stable: bool
    last_delta: float


class DiscreteTailModel:
    """Base class: distribution + tail + continuous tail extension."""

    name = "abstract"
    support_min = 0

    def __init__(self, extension: str = "natural"):
        if extension not in EXTENSIONS:
            raise ValueError(f"unknown extension {extension!r}, expected one of {EXTENSIONS}")
        # the class's function, not a bound method, which would tie the model
        # into a reference cycle that only the cyclic collector frees
        self._extend = getattr(type(self), f"_log_tail_{extension}", None)
        if self._extend is None:
            raise ValueError(f"the {extension} extension is not defined for the {self.name} model")
        self.extension = extension
        # (k, ln F(k), ln F(k + 1)) of the last interval the loglinear
        # extension interpolated on
        self._interval = (None, 0.0, 0.0)

    # -- distribution surface -------------------------------------------------

    @property
    def params(self) -> dict:
        return {}

    def log_pmf(self, k: int) -> float:
        """ln P(X = k) for integer k >= support_min."""
        if k < self.support_min:
            raise ValueError(f"{self.name} support starts at {self.support_min}, got k={k}")
        return self._log_pmf(k)

    def _log_pmf(self, k: int) -> float:
        raise NotImplementedError

    # pmf(v + 1) / pmf(v) as a method of v, or None: pmf_from then takes
    # exp(log_pmf) at every class
    _term_ratio = None

    def pmf_from(self, first: int):
        """pmf(first), pmf(first + 1), ... without end; see the module docstring."""
        ratio, f, least_normal = self._term_ratio, 0.0, sys.float_info.min
        for v in count(first):
            anchor = not ratio or f < least_normal or (v - first) % PMF_ANCHOR_STRIDE == 0
            f = math.exp(self.log_pmf(v)) if anchor else f * ratio(v - 1)
            yield f

    def log_tail(self, k: int) -> float:
        """ln P(X > k) for integer k >= support_min - 1."""
        if k > self.support_min - 1:
            return self._log_tail(k)
        if k < self.support_min - 1:
            raise ValueError(f"log_tail requires k >= {self.support_min - 1}, got k={k}")
        return 0.0

    def _log_tail(self, k: int) -> float:
        raise NotImplementedError

    def tail_ratio_gamma(self) -> float:
        """Limit of F(k+1)/F(k); classifies the clustering regime."""
        raise NotImplementedError

    # -- extension -------------------------------------------------------------

    def log_tail_ext(self, x: float) -> float:
        """ln G(x) for real x >= support_min - 1, per the active extension."""
        if x <= self.support_min - 1:
            return self.log_tail(x)  # 0.0 at the edge, ValueError below it
        return self._extend(self, x)

    def _log_tail_loglinear(self, x: float) -> float:
        k = math.floor(x)
        t = x - k
        if t == 0.0:
            return self.log_tail(k)
        # a root solve probes one interval [k, k + 1] many times in a row
        at, lo, hi = self._interval
        if at != k:
            lo, hi = self.log_tail(k), self.log_tail(k + 1)
            self._interval = (k, lo, hi)
        if hi == -math.inf:
            return -math.inf
        return (1.0 - t) * lo + t * hi

    _log_tail_natural = _log_tail_loglinear

    def __init_subclass__(cls) -> None:
        # log_pmf in each model class's own namespace, where per-class
        # tracers (perfbench/spans.py) patch it
        cls.log_pmf = DiscreteTailModel.log_pmf

    def __repr__(self) -> str:
        ps = [f"{k}={v}" for k, v in self.params.items()] + [f"extension={self.extension!r}"]
        return f"{type(self).__name__}({', '.join(ps)})"


class PoissonModel(DiscreteTailModel):
    """Poisson(lam) on {0, 1, ...}; tail via the incomplete gamma identity."""

    name = "poisson"

    def __init__(self, lam: float, extension: str = "natural"):
        if not 0.0 < lam < math.inf:  # also rejects nan
            raise ValueError(f"poisson rate must be positive and finite, got {lam}")
        self.lam = float(lam)
        super().__init__(extension)

    @property
    def params(self) -> dict:
        return {"lam": self.lam}

    def _log_pmf(self, k: int) -> float:
        return log_poisson_pmf(k, self.lam)

    def _term_ratio(self, v: int) -> float:
        return self.lam / (v + 1)

    def _log_tail(self, x: float) -> float:
        # P(X > k) = P(lower gamma)(k+1, lam), which is also the natural
        # extension at real x
        return reg_gamma_p_log(x + 1.0, self.lam)

    _log_tail_natural = _log_tail

    def _log_tail_asymptotic(self, x: float) -> float:
        return -self.lam + (x + 1.0) * math.log(self.lam) - math.lgamma(x + 2.0)

    def tail_ratio_gamma(self) -> float:
        return 0.0


class NegativeBinomialModel(DiscreteTailModel):
    """NB(r, p): P(X=k) = C(k+r-1, k) (1-p)^r p^k, mean r p/(1-p)."""

    name = "negbinom"

    def __init__(self, r: float, p: float, extension: str = "natural"):
        if not 0.0 < r < math.inf:  # also rejects nan
            raise ValueError(f"negative binomial r must be positive and finite, got {r}")
        if not (0.0 < p < 1.0):
            raise ValueError(f"negative binomial p must be in (0, 1), got {p}")
        self.r = float(r)
        self.p = float(p)
        super().__init__(extension)

    @property
    def params(self) -> dict:
        return {"r": self.r, "p": self.p}

    def _log_pmf(self, k: int) -> float:
        return log_negbinom_pmf(k, self.r, self.p)

    def _log_tail(self, x: float) -> float:
        # P(X > k) = I_p(k+1, r), also the natural extension at real x
        return reg_beta_log(x + 1.0, self.r, self.p)

    _log_tail_natural = _log_tail

    def tail_ratio_gamma(self) -> float:
        return self.p


class GeometricModel(DiscreteTailModel):
    """Geometric(q): P(X=k) = (1-q) q^k on {0, 1, ...}; exact tails q^(k+1)."""

    name = "geometric"

    def __init__(self, q: float, extension: str = "natural"):
        if not (0.0 < q < 1.0):
            raise ValueError(f"geometric q must be in (0, 1), got {q}")
        self.q = float(q)
        super().__init__(extension)

    @property
    def params(self) -> dict:
        return {"q": self.q}

    def _log_pmf(self, k: int) -> float:
        return math.log1p(-self.q) + k * math.log(self.q)

    def _log_tail(self, x: float) -> float:
        return (x + 1.0) * math.log(self.q)

    _log_tail_natural = _log_tail

    def tail_ratio_gamma(self) -> float:
        return self.q


class DiscreteCauchyModel(DiscreteTailModel):
    """P(X=k) proportional to 1/(1+k^2) on {0, 1, ...}.

    The normalizer and the tail sums are evaluated by direct summation up
    to a fixed cutoff plus an Euler-Maclaurin closure of the remainder,
    whose integral term atan2(1, m) does not cancel like pi/2 - atan(m):
    every tail sum is within 5e-14 relative of Im psi(m + i), m <= 1e15.
    """

    name = "dcauchy"
    _EM_CUTOFF = 32

    def __init__(self, extension: str = "natural"):
        super().__init__(extension)
        self._log_norm = -math.log(self._tail_sum(0))

    @staticmethod
    def _em_tail(m: float) -> float:
        # sum_{j>=m} 1/(1+j^2) via Euler-Maclaurin through the 5th derivative;
        # past m ~ 1.3e154, m * m is inf and the sum is theta
        f = 1.0 / (1.0 + m * m)
        s = math.sqrt(f)          # sin(theta), theta = atan(1/m)
        theta = math.atan2(1.0, m)
        d1 = -1.0 * s ** 2 * math.sin(2 * theta)
        d3 = -6.0 * s ** 4 * math.sin(4 * theta)
        d5 = -120.0 * s ** 6 * math.sin(6 * theta)
        return theta + f / 2.0 - d1 / 12.0 + d3 / 720.0 - d5 / 30240.0

    @classmethod
    def _tail_sum(cls, m: int) -> float:
        if m >= cls._EM_CUTOFF:
            return cls._em_tail(float(m))
        head = math.fsum(1.0 / (1.0 + j * j) for j in range(m, cls._EM_CUTOFF))
        return head + cls._em_tail(float(cls._EM_CUTOFF))

    def _log_pmf(self, k: int) -> float:
        return self._log_norm - math.log1p(float(k) * k)

    def _log_tail(self, k: int) -> float:
        return self._log_norm + math.log(self._tail_sum(k + 1))

    def tail_ratio_gamma(self) -> float:
        return 1.0


class EmpiricalModel(DiscreteTailModel):
    """User-supplied pmf over {support_min, support_min+1, ...}.

    Tails beyond the listed support are exactly zero.  The tail ratio is
    estimated from the last usable pair of tail values and flagged when
    consecutive ratios have not stabilized.
    """

    name = "empirical"

    def __init__(self, probabilities, support_min: int = 0, extension: str = "loglinear"):
        probs = tuple(float(p) for p in probabilities)
        if not probs:
            raise ValueError("empirical pmf must be non-empty")
        if any(not p >= 0.0 for p in probs):  # also rejects nan
            raise ValueError("empirical pmf entries must be nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"empirical pmf must sum to 1 within 1e-9, got {total}")
        # an int or any integer type; 2.5, inf and nan are refused, not truncated
        self.support_min = check_int("support_min", support_min)
        self.probabilities = probs
        # suffix sums: tails[i] = P(X > support_min + i - 1) = sum_{j>=i} p_j,
        # summed exactly in integer units of 1 / _FLOAT_UNITS and rounded once
        # by the int / int division, as math.fsum(probs[i:]) gives it
        units = (num * (_FLOAT_UNITS // den)
                 for num, den in map(float.as_integer_ratio, reversed(probs)))
        self._tails = [s / _FLOAT_UNITS for s in accumulate(units)][::-1] + [0.0]
        super().__init__(extension)
        self._diagnostic = self._estimate_gamma()

    @property
    def params(self) -> dict:
        return {"support_min": self.support_min, "n_atoms": len(self.probabilities)}

    def _log_pmf(self, k: int) -> float:
        i = k - self.support_min
        if i >= len(self.probabilities) or self.probabilities[i] == 0.0:
            return -math.inf
        return math.log(self.probabilities[i])

    def _log_tail(self, k: int) -> float:
        i = k - self.support_min + 1
        if i >= len(self._tails) or self._tails[i] <= 0.0:
            return -math.inf
        return math.log(self._tails[i])

    def _estimate_gamma(self) -> GammaDiagnostic:
        # ratios F(k+1)/F(k) over the usable range (tails never rise, so
        # F(k+1) > 0 implies F(k) > 0); judge stability from the last two
        tails = self._tails
        ratios = [after / at for at, after in zip(tails[1:-1], tails[2:]) if after > 0.0]
        if len(ratios) < 2:
            return GammaDiagnostic(estimate=math.nan, stable=False, last_delta=math.inf)
        delta = abs(ratios[-1] - ratios[-2])
        return GammaDiagnostic(estimate=ratios[-1], stable=delta <= 1e-3, last_delta=delta)

    @property
    def gamma_diagnostic(self) -> GammaDiagnostic:
        return self._diagnostic

    def tail_ratio_gamma(self) -> float:
        d = self._diagnostic
        if not d.stable:
            warnings.warn(
                f"empirical tail ratio has not stabilized (last delta {d.last_delta:.3g})",
                RuntimeWarning,
                stacklevel=2,
            )
        return d.estimate


_MODELS = {cls.name: cls for cls in (PoissonModel, NegativeBinomialModel, GeometricModel,
                                     DiscreteCauchyModel, EmpiricalModel)}
MODEL_NAMES = tuple(sorted(_MODELS))


def make_model(name: str, params: dict | None = None, extension: str | None = None) -> DiscreteTailModel:
    """Build a model from a {name, params, extension} specification record:
    params are the constructor's keywords; extension=None keeps its default."""
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}, expected one of {list(MODEL_NAMES)}")
    kwargs = dict(params or {})
    if extension is not None:
        kwargs["extension"] = extension
    try:
        return _MODELS[name](**kwargs)
    except TypeError as exc:  # a missing, unknown or ill-typed parameter
        raise ValueError(f"bad parameters {params!r} for model {name!r}: {exc}") from None
