"""Exact term rewriting for integrals of the third-variation integrand.

The carrier is a formal rational-linear combination of integrals

    int phi^a (lap phi)^b |grad phi|^{2c} (f'')^d (lap f'')^e (tau'')^f dV

with coefficients that are Laurent polynomials in it = 1/tau and polynomials
in the dimension symbol n.  A fixed finite rule set encodes:

* the eigen-equation lap phi = -phi/tau,
* self-adjointness of the Laplacian against f'',
* integration by parts int phi^k |grad phi|^2 = (1/((k+1) tau)) int phi^{k+2},
* the zero-mean property int phi dV = 0 (killing every tau'' remainder),
* elimination of f'' through the elliptic identity
      (lap + 1/(2 tau)) f'' = -n phi lap phi - (n/(2 tau)) phi^2
                              - n tau''/(4 tau^2)   [+ gradient correction],

applied to saturation.  tau'' stays a formal symbol and must cancel.

Two coefficient routes are provided for the second-variation tensors feeding
the assembly: ``classical`` (the chain whose checkpoint is
2(n-1) int phi^2 lap phi + int phi lap f'') and ``corrected``
(the pointwise-corrected tensors from the variation suite, which carry an
extra phi |grad phi|^2 term through the chain).  Both reduce to the same
normal form, (n-2)/tau * ... times -tau (4 pi tau)^{-n/2}, i.e. the third
variation is (n-2)(4 pi tau)^{-n/2} int phi^3 dV either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple


class RuleError(RuntimeError):
    """A rewrite step hit a structural problem (rule bug)."""


# ---------------------------------------------------------------------------
# coefficients: Laurent in it = 1/tau, polynomial in n


class Coef:
    """dict {(n_power, it_power): Fraction}, normalized (no zero entries)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for key, val in terms.items():
                val = Fraction(val)
                if val:
                    self.terms[key] = val

    @classmethod
    def zero(cls) -> "Coef":
        return cls()

    @classmethod
    def constant(cls, c) -> "Coef":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def n_var(cls) -> "Coef":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def it_var(cls) -> "Coef":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def from_n_linear(cls, a, b) -> "Coef":
        """a*n + b."""
        return cls({(1, 0): Fraction(a), (0, 0): Fraction(b)})

    def __add__(self, o: "Coef") -> "Coef":
        out = dict(self.terms)
        for key, val in o.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return Coef(out)

    def __neg__(self) -> "Coef":
        return Coef({k: -v for k, v in self.terms.items()})

    def __sub__(self, o: "Coef") -> "Coef":
        return self + (-o)

    def __mul__(self, o) -> "Coef":
        if not isinstance(o, Coef):
            return Coef({k: v * Fraction(o) for k, v in self.terms.items()})
        out: dict = {}
        for (na, ia), va in self.terms.items():
            for (nb, ib), vb in o.terms.items():
                key = (na + nb, ia + ib)
                out[key] = out.get(key, Fraction(0)) + va * vb
        return Coef(out)

    __rmul__ = __mul__

    def mul_monomial(self, dn: int, dit: int, c=1) -> "Coef":
        return Coef({(np + dn, ip + dit): v * Fraction(c)
                     for (np, ip), v in self.terms.items()})

    def divide_by(self, o: "Coef") -> "Coef":
        """Division by a monomial coefficient; anything else is a rule bug."""
        if len(o.terms) != 1:
            raise RuleError("pivot is not a monomial; elimination would need "
                            "rational-function arithmetic")
        ((dn, dit), c), = o.terms.items()
        if c == 0:
            raise RuleError("singular pivot in elimination")
        return Coef({(np - dn, ip - dit): v / c
                     for (np, ip), v in self.terms.items()})

    def substitute_n(self, n: int) -> "Coef":
        out: dict = {}
        for (np, ip), v in self.terms.items():
            key = (0, ip)
            out[key] = out.get(key, Fraction(0)) + v * Fraction(n) ** np
        return Coef(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, o) -> bool:
        return isinstance(o, Coef) and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def canonical(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (np, ip) in sorted(self.terms, reverse=True):
            v = self.terms[(np, ip)]
            piece = str(v)
            if np:
                piece += "*n" if np == 1 else f"*n^{np}"
            if ip:
                piece += "*it" if ip == 1 else f"*it^{ip}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"Coef({self.canonical()})"


# ---------------------------------------------------------------------------
# formal integral expressions


class GenExp(NamedTuple):
    """Exponents over the generator set {phi, lap phi, |grad phi|^2, f'',
    lap f'', tau''}."""

    phi: int = 0
    lap: int = 0
    grad: int = 0
    f2: int = 0
    lapf2: int = 0
    tau2: int = 0


PHI3 = GenExp(phi=3)
PHI2 = GenExp(phi=2)
PHI1 = GenExp(phi=1)
ONE = GenExp()


class IntegralExpr:
    """Formal sum of Coef * int(generator monomial) dV."""

    def __init__(self, terms: dict | None = None):
        self.terms: dict[GenExp, Coef] = {}
        if terms:
            for key, coef in terms.items():
                self._accumulate(GenExp(*key) if not isinstance(key, GenExp) else key,
                                 coef)

    def _accumulate(self, key: GenExp, coef: Coef):
        if coef.is_zero():
            return
        cur = self.terms.get(key)
        new = coef if cur is None else cur + coef
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def single(cls, key: GenExp, coef: Coef) -> "IntegralExpr":
        return cls({key: coef})

    def __add__(self, o: "IntegralExpr") -> "IntegralExpr":
        out = IntegralExpr(dict(self.terms))
        for key, coef in o.terms.items():
            out._accumulate(key, coef)
        return out

    def __sub__(self, o: "IntegralExpr") -> "IntegralExpr":
        return self + o.scale(Coef.constant(-1))

    def scale(self, c: Coef) -> "IntegralExpr":
        out = IntegralExpr()
        for key, coef in self.terms.items():
            out._accumulate(key, coef * c)
        return out

    def coefficient(self, key: GenExp) -> Coef:
        return self.terms.get(key, Coef.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, o) -> bool:
        return isinstance(o, IntegralExpr) and self.terms == o.terms

    def substitute_n(self, n: int) -> "IntegralExpr":
        out = IntegralExpr()
        for key, coef in self.terms.items():
            out._accumulate(key, coef.substitute_n(n))
        return out

    def canonical(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            names = ("phi", "lap", "grad", "f2", "lapf2", "tau2")
            factors = [f"{nm}^{e}" if e > 1 else nm
                       for nm, e in zip(names, key) if e]
            mono = " ".join(factors) if factors else "1"
            parts.append(f"({self.terms[key].canonical()}) * I[{mono}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"IntegralExpr({self.canonical()})"


# ---------------------------------------------------------------------------
# the rule set


def rule_eigen(e: IntegralExpr) -> IntegralExpr:
    """lap phi -> -(1/tau) phi, exact, applied to every power."""
    out = IntegralExpr()
    for key, coef in e.terms.items():
        if key.lap:
            new = key._replace(phi=key.phi + key.lap, lap=0)
            out._accumulate(new, coef.mul_monomial(0, key.lap, Fraction(-1) ** key.lap))
        else:
            out._accumulate(key, coef)
    return out


def rule_self_adjoint(e: IntegralExpr) -> IntegralExpr:
    """int phi lap f'' -> -(1/tau) int phi f''; int lap f'' -> 0."""
    out = IntegralExpr()
    for key, coef in e.terms.items():
        if key.lapf2 == 1 and key.lap == 0 and key.grad == 0 and key.f2 == 0 \
                and key.phi <= 1:
            if key.phi == 0:
                continue  # divergence theorem on a closed manifold
            new = key._replace(lapf2=0, f2=1)
            out._accumulate(new, coef.mul_monomial(0, 1, -1))
        else:
            out._accumulate(key, coef)
    return out


def rule_gradient_reduction(e: IntegralExpr) -> IntegralExpr:
    """int phi^k |grad phi|^2 -> (1/((k+1) tau)) int phi^{k+2}.

    From int lap(phi^{k+2}) dV = 0 combined with the eigen-equation; fires
    only on pure gradient terms (single |grad phi|^2 factor, no f'' factors).
    """
    out = IntegralExpr()
    for key, coef in e.terms.items():
        if key.grad == 1 and key.lap == 0 and key.f2 == 0 and key.lapf2 == 0:
            k = key.phi
            new = key._replace(phi=k + 2, grad=0)
            out._accumulate(new, coef.mul_monomial(0, 1, Fraction(1, k + 1)))
        else:
            out._accumulate(key, coef)
    return out


def rule_zero_mean(e: IntegralExpr) -> IntegralExpr:
    """Drop every term proportional to int phi dV (any tau'' power)."""
    out = IntegralExpr()
    for key, coef in e.terms.items():
        if key.phi == 1 and key.lap == 0 and key.grad == 0 and key.f2 == 0 \
                and key.lapf2 == 0:
            continue
        out._accumulate(key, coef)
    return out


def _elliptic_identity_times_phi(route: str) -> IntegralExpr:
    """phi * RHS of the elliptic identity for f''.

    classical: -n phi^2 lap phi - (n/(2 tau)) phi^3 - (n/(4 tau^2)) tau'' phi
    corrected: classical - ((3n-2)/4) phi |grad phi|^2
    """
    n = Coef.n_var()
    e = IntegralExpr()
    e._accumulate(GenExp(phi=2, lap=1), -n)
    e._accumulate(GenExp(phi=3), (-n).mul_monomial(0, 1, Fraction(1, 2)))
    e._accumulate(GenExp(phi=1, tau2=1), (-n).mul_monomial(0, 2, Fraction(1, 4)))
    if route == "corrected":
        e._accumulate(GenExp(phi=1, grad=1),
                      -Coef.from_n_linear(3, -2) * Fraction(1, 4))
    elif route != "classical":
        raise ValueError(f"unknown route {route!r}")
    return e


def solve_f_second_integrals(route: str = "classical") -> tuple[IntegralExpr, IntegralExpr]:
    """Return (int phi f'', int phi lap f'') as pure-phi expressions.

    Multiplies the elliptic identity by phi, integrates, rewrites the left
    side by self-adjointness plus the eigen-equation, and solves the linear
    relation; the pivot must be a nonzero monomial.
    """
    rhs = _elliptic_identity_times_phi(route)
    rhs = rule_zero_mean(rule_gradient_reduction(rule_eigen(rhs)))
    for key in rhs.terms:
        if key.f2 or key.lapf2 or key.lap or key.grad:
            raise RuleError("identity right side failed to reduce to phi powers")
    # LHS: int phi lap f'' + (it/2) int phi f''  ==  -(it/2) int phi f''
    pivot = Coef({(0, 1): Fraction(-1, 2)})
    phi_f2 = rhs.scale(Coef.constant(1).divide_by(pivot))
    phi_lap_f2 = phi_f2.scale(Coef({(0, 1): Fraction(-1)}))
    return phi_f2, phi_lap_f2


def eliminate_f_second(e: IntegralExpr, route: str = "classical") -> IntegralExpr:
    """Replace int phi f'' and int phi lap f'' by their phi-power values."""
    if not any(key.f2 or key.lapf2 for key in e.terms):
        return e
    phi_f2, phi_lap_f2 = solve_f_second_integrals(route)
    out = IntegralExpr()
    for key, coef in e.terms.items():
        if key == GenExp(phi=1, f2=1):
            out = out + phi_f2.scale(coef)
        elif key == GenExp(phi=1, lapf2=1):
            out = out + phi_lap_f2.scale(coef)
        else:
            out._accumulate(key, coef)
    return out


def rule_set(route: str = "classical") -> list[Callable[[IntegralExpr], IntegralExpr]]:
    elim = lambda e: eliminate_f_second(e, route)
    elim.__name__ = "eliminate_f_second"
    return [rule_eigen, rule_self_adjoint, rule_gradient_reduction,
            rule_zero_mean, elim]


def reduce_to_fixed_point(e: IntegralExpr, rules) -> IntegralExpr:
    """Apply ``rules`` in turn until a round changes nothing (at most 50)."""
    for _ in range(50):
        before = e
        for rule in rules:
            e = rule(e)
        if e == before:
            return e
    raise RuleError("rewriting did not reach a fixed point")


# ---------------------------------------------------------------------------
# assembly of the third-variation integrand


def ricci_second_variation_coefficients(route: str) -> dict:
    """Trace coefficients of the second variation of the Ricci tensor.

    Keys follow the tensor shape c_g-lap * (phi lap phi) g + c_g-grad *
    |grad phi|^2 g + c_hess * phi Hess phi + c_outer * dphi o dphi.
    """
    half = Fraction(1, 2)
    if route == "classical":
        return {"g_lap": Coef.constant(1),
                "g_grad": -Coef.from_n_linear(1, -2) * half,
                "hess": Coef.from_n_linear(1, -2),
                "outer": Coef.from_n_linear(1, -2)}
    if route == "corrected":
        return {"g_lap": Coef.constant(1),
                "g_grad": -Coef.from_n_linear(1, -4) * half,
                "hess": Coef.from_n_linear(1, -2),
                "outer": Coef.from_n_linear(3, -6) * half}
    raise ValueError(f"unknown route {route!r}")


def assemble_third_variation_integrand(route: str = "classical",
                                       ric_overrides: dict | None = None) -> IntegralExpr:
    """<h, Ric'' + (Hess f)'' - ((1/(2 tau)) g)''> for h = phi g.

    Tracing each tensor against h = phi g turns the assembly into pure
    scalar generators.  ``ric_overrides`` replaces individual Ricci trace
    coefficients (mutation testing).
    """
    n = Coef.n_var()
    ric = ricci_second_variation_coefficients(route)
    if ric_overrides:
        ric = {**ric, **ric_overrides}
    e = IntegralExpr()
    # phi * trace(Ric''): the g-part picks up a factor n.
    e._accumulate(GenExp(phi=2, lap=1), n * ric["g_lap"] + ric["hess"])
    e._accumulate(GenExp(phi=1, grad=1), n * ric["g_grad"] + ric["outer"])
    # phi * trace((Hess f)'') = phi lap f'' + (n(n-2)/2 - (n-2)) phi |grad phi|^2
    e._accumulate(GenExp(phi=1, lapf2=1), Coef.constant(1))
    e._accumulate(GenExp(phi=1, grad=1),
                  n * Coef.from_n_linear(1, -2) * Fraction(1, 2)
                  - Coef.from_n_linear(1, -2))
    # phi * trace(-((1/(2 tau)) g)'') = +(n/(2 tau^2)) tau'' phi
    e._accumulate(GenExp(phi=1, tau2=1), n.mul_monomial(0, 2, Fraction(1, 2)))
    return e


def expected_checkpoint(route: str = "classical") -> IntegralExpr:
    """The integrand after zero-mean only: the classical intermediate line.

    classical: 2(n-1) int phi^2 lap phi + int phi lap f''
    corrected: the same plus ((3n-2)/2) int phi |grad phi|^2
    """
    e = IntegralExpr()
    e._accumulate(GenExp(phi=2, lap=1), Coef.from_n_linear(2, -2))
    e._accumulate(GenExp(phi=1, lapf2=1), Coef.constant(1))
    if route == "corrected":
        e._accumulate(GenExp(phi=1, grad=1),
                      Coef.from_n_linear(3, -2) * Fraction(1, 2))
    return e


@dataclass
class ReductionResult:
    checkpoint_matches: bool
    normal_form: IntegralExpr
    normal_form_text: str
    final_coefficient: Coef            # of (4 pi tau)^{-n/2} int phi^3 dV
    final_text: str
    phi2_coefficient_zero: bool
    tau2_absent: bool
    expected_normal_form: IntegralExpr  # -(n-2) it I[phi^3]
    matches_expected: bool
    deviation: IntegralExpr


def reduce_third_variation(n="symbolic", route: str = "classical",
                           rule_order_seed: int | None = None,
                           ric_overrides: dict | None = None) -> ReductionResult:
    """Reduce the assembled integrand to its normal form and check it.

    The third variation is -tau (4 pi tau)^{-n/2} times the assembled
    integral; folding the prefactor's -tau into the integrand coefficient
    must leave exactly (n-2) (4 pi tau)^{-n/2} int phi^3 dV.

    The reduction runs with symbolic n; a numeric n is substituted into its
    results.  No rule's firing depends on a coefficient's value, so the two
    commute.
    """
    n_value = None if n == "symbolic" else int(n)

    def at_n(e: IntegralExpr) -> IntegralExpr:
        return e if n_value is None else e.substitute_n(n_value)

    expr = assemble_third_variation_integrand(route, ric_overrides)
    checkpoint_ok = (at_n(rule_zero_mean(expr))
                     == at_n(expected_checkpoint(route)))
    rules = rule_set(route)
    if rule_order_seed is not None:
        rules = rules[:]
        random.Random(rule_order_seed).shuffle(rules)
    normal = at_n(reduce_to_fixed_point(expr, rules))
    # fold the -tau of the prefactor: multiply by -1 and lower the it power.
    final = normal.coefficient(PHI3).mul_monomial(0, -1, -1)
    expected = at_n(IntegralExpr.single(
        PHI3, Coef.from_n_linear(1, -2).mul_monomial(0, 1, -1)))
    deviation = normal - expected
    tau2_absent = all(key.tau2 == 0 for key in normal.terms)
    phi2_zero = normal.coefficient(PHI2).is_zero()
    matches = deviation.is_zero()
    if n_value is None:
        final_text = f"({final.canonical()}) * (4*pi*tau)^(-n/2) * I[phi^3]"
    else:
        final_text = f"({final.canonical()}) * (4*pi*tau)^(-{n_value // 2}) * I[phi^3]"
    return ReductionResult(
        checkpoint_matches=checkpoint_ok,
        normal_form=normal, normal_form_text=normal.canonical(),
        final_coefficient=final, final_text=final_text,
        phi2_coefficient_zero=phi2_zero, tau2_absent=tau2_absent,
        expected_normal_form=expected, matches_expected=matches,
        deviation=deviation)


def confluence_check(n="symbolic", route: str = "classical", orders: int = 100,
                     seed: int = 7) -> bool:
    """Reduce under ``orders`` random rule orders; all must agree."""
    reference = reduce_third_variation(n, route).normal_form_text
    rng = random.Random(seed)
    for _ in range(orders):
        result = reduce_third_variation(n, route,
                                        rule_order_seed=rng.randrange(2 ** 32))
        if result.normal_form_text != reference:
            return False
    return True


def second_variation_symbolic_zero() -> bool:
    """<h, Ntilde(h)> = (n/2) phi lap phi + (n/(2 tau)) phi^2 reduces to 0."""
    n = Coef.n_var()
    e = IntegralExpr()
    e._accumulate(GenExp(phi=1, lap=1), n * Fraction(1, 2))
    e._accumulate(GenExp(phi=2), n.mul_monomial(0, 1, Fraction(1, 2)))
    return reduce_to_fixed_point(e, rule_set()).is_zero()
