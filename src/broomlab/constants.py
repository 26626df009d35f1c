"""Exact arbitrary-precision evaluation of every derived bound constant.

Each ledger entry stores its defining formula as a plain Python
expression over the parameter names and earlier entry names, so an
independent evaluator can re-derive every value from the strings alone.
All arithmetic is exact integer arithmetic; the tower entry
``nested.t1 = t2 ** s2`` overflows any fixed-width type for nontrivial
parameters, which is the whole reason the pipeline never runs at the
true constants.

A power of more than ``DECIMAL_LEAF_BITS`` bits is never materialized:
it stays a :class:`~broomlab.bignum.PowerSum`, whose bit length,
residues and comparisons are exact without the digits, and whose
decimal is printed from the symbolic form.  A symbolic value that a
further power or :func:`compose_phi` needs as an int is materialized
only when each of its power terms is under ``SERIALIZE_BITS_CAP`` bits.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from types import CodeType
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .bignum import PowerSum
    from .structures import Params

# Nothing reads the digits of truly enormous entries, and producing them
# would dwarf every other cost: an entry above this many bits serializes
# as a bit-length summary, and a symbolic value with a power term above
# it is never materialized.
SERIALIZE_BITS_CAP = 1 << 21
# A power above this many bits stays symbolic.  It is also the leaf size
# of bignum's decimal rendering: 1024 bits is 309 digits, under the
# smallest int-to-str digit limit Python accepts, so ``str()`` is cheap.
DECIMAL_LEAF_BITS = 1024


@dataclass(frozen=True)
class LedgerEntry:
    key: str      # dotted display name, e.g. "strong_contacts.s2"
    value: int | PowerSum
    rule: str     # bound family the entry belongs to
    formula: str  # expression over params and earlier entries

    @property
    def symbol(self) -> str:
        return self.key.replace(".", "_")


@dataclass(frozen=True)
class ConstantsLedger:
    params: Params
    entries: tuple[LedgerEntry, ...]

    def value(self, key: str) -> int | PowerSum:
        for e in self.entries:
            if e.key == key:
                return e.value
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        out: dict = {
            "params": self.params.as_dict(),
            "entries": [],
        }
        from .bignum import decimal_string  # not loaded by ``import broomlab``

        powers: dict = {}  # nested.t1 and nested.t share t2**s2
        for e in self.entries:
            bl = e.value.bit_length()
            item = {"key": e.key, "rule": e.rule, "formula": e.formula}
            if bl <= SERIALIZE_BITS_CAP:
                item["decimal"] = decimal_string(e.value, powers)
            else:
                item["decimal"] = None
                item["bit_length"] = bl
                item["truncated"] = True
            out["entries"].append(item)
        return out


def _as_int(v: int | PowerSum, name: str) -> int:
    """``v`` as an int, when each power term ``b**e`` of it has
    ``(bl(b) - 1)*e < SERIALIZE_BITS_CAP`` and so fewer than
    ``SERIALIZE_BITS_CAP + bl(b)`` bits; otherwise ValueError naming
    ``name``."""
    if isinstance(v, int):
        return v
    if any((b.bit_length() - 1) * e >= SERIALIZE_BITS_CAP for b, e, _ in v.terms):
        raise ValueError(f"{name}: a power of {SERIALIZE_BITS_CAP} bits or more "
                         "is never materialized")
    return int(v)


def _pow(base: int | PowerSum, exp: int) -> int | PowerSum:
    """``base ** exp``, kept symbolic when it certainly has more than
    ``DECIMAL_LEAF_BITS`` bits.  The one exponentiation of the ledger
    and of :func:`reevaluate`.  A symbolic base goes through
    :func:`_as_int` first."""
    if not isinstance(base, int):
        from .bignum import _show

        base = _as_int(base, f"{_show(base)}**{_show(exp)}")
    if base >= 2 and (base.bit_length() - 1) * exp >= DECIMAL_LEAF_BITS:
        from .bignum import PowerSum

        return PowerSum([(base, exp, 1)])
    return base**exp


def gamma_of(p: Params) -> int:
    return (2 * p.delta * p.tau + 1) * (2 * p.delta + 1)


def epsilon_of(p: Params) -> int:
    return (p.beta + 1) * gamma_of(p) * p.delta


def dense_bound_of(p: Params) -> int:
    return p.alpha * p.tau * 2 ** (p.beta * p.zeta)


def partial2_d_of(p: Params) -> int:
    return gamma_of(p) * (p.delta - 1)


def clean2_t_of(p: Params) -> int:
    return (partial2_d_of(p) + 1) * p.beta * p.zeta * p.tau


def _strong_chain(p: Params) -> tuple[int, int, int, int]:
    """``strong_contacts`` s3, s2, s1 and s."""
    g = gamma_of(p)
    s3 = 2 * p.delta * p.tau
    s2 = (2 * (p.delta + 1) * g + 1) * s3
    s1 = s2 + g
    return s3, s2, s1, p.zeta * p.beta * s1


def strong_s_of(p: Params) -> int:
    return _strong_chain(p)[-1]


def _nested_chain(p: Params) -> tuple[int, int, int, int]:
    """``nested`` s3, s2, s1 and s."""
    eps = epsilon_of(p)
    s3 = (p.delta * (p.delta + 1) + 1) * eps + p.delta
    s2 = ((2 * p.delta * eps + 1) * p.delta * p.tau + eps) * s3
    s1 = (2 * eps + 1) * p.tau * s2
    return s3, s2, s1, s1 + eps


def nested_s_of(p: Params) -> int:
    return _nested_chain(p)[-1]


def nested_side_conditions_ok(p: Params) -> bool:
    eps = epsilon_of(p)
    eta_floor = p.alpha + 2 * (p.delta + 1) ** 3 * (eps + 1) ** 2
    return p.eta >= eta_floor and p.zeta >= p.eta + p.delta


def shadow_chi_r_of(p: Params, s: int) -> int:
    """The shadow-chi r for a shadowing degree s (``shadow_chi.r`` in the
    ledger, where s is the nested value)."""
    d, t = p.delta, p.tau
    q = 2 * d + s
    return (
        (4 * (d + 1) * s + 1) * q * p.zeta * p.beta * t
        * (1 + t * ((q + s) * d * d + (2 * s * (d + 1) + 1) * d * t))
    )


def shadow_chi_bound_of(p: Params) -> int:
    """Final unshadowed chromatic bound, at the nested shadowing degree."""
    s, d, t = nested_s_of(p), p.delta, p.tau
    return 3 * shadow_chi_r_of(p, s) * s * p.beta * d * p.zeta * t * t


def ledger(p: Params) -> ConstantsLedger:
    """Evaluate the full constant chain exactly for one parameter set.

    The values come from the ``*_of`` helpers, the Python derivation that
    the audit and the passes share; each entry's formula string is the
    independent derivation that :func:`reevaluate` reads.
    """
    d, t, al, be, ze = p.delta, p.tau, p.alpha, p.beta, p.zeta
    entries: list[LedgerEntry] = []

    def add(key: str, formula: str, value: int | PowerSum) -> int | PowerSum:
        entries.append(LedgerEntry(key=key, value=value, rule=key.partition(".")[0],
                                   formula=formula))
        return value

    gamma = add("gamma", "(2*delta*tau + 1)*(2*delta + 1)", gamma_of(p))
    add("epsilon", "(beta + 1)*gamma*delta", epsilon_of(p))
    # Symbolic above DECIMAL_LEAF_BITS, unlike dense_bound_of.
    dense = add("dense_count.bound", "alpha*tau*2**(beta*zeta)",
                al * t * _pow(2, be * ze))
    add("partial_clean2.d", "gamma*(delta - 1)", partial2_d_of(p))

    sc3, sc2, sc1, sc = _strong_chain(p)
    add("strong_contacts.s3", "2*delta*tau", sc3)
    add("strong_contacts.s2", "(2*(delta + 1)*gamma + 1)*strong_contacts_s3", sc2)
    add("strong_contacts.s1", "strong_contacts_s2 + gamma", sc1)
    add("strong_contacts.s", "zeta*beta*strong_contacts_s1", sc)

    hs = add("u_high_degree.s", "2*(2*gamma + 1)*delta*tau + gamma",
             2 * (2 * gamma + 1) * d * t + gamma)
    hq = add("u_high_degree.q", "2*delta*(2*gamma*(delta + 1) + 1) + gamma",
             2 * d * (2 * gamma * (d + 1) + 1) + gamma)
    hm = add(
        "u_high_degree.m",
        "2*u_high_degree_q*zeta*beta"
        "*(1 + (u_high_degree_q + u_high_degree_s)*(delta**2 + 1)"
        " + 2*delta + delta*tau)*tau",
        2 * hq * ze * be
        * (1 + (hq + hs) * (d * d + 1) + 2 * d + d * t) * t,
    )
    add(
        "u_high_degree.ell",
        "2*u_high_degree_s*u_high_degree_m*zeta**2*delta"
        "*(2*(delta + 2)*u_high_degree_s + 3)*beta**2*tau**3",
        2 * hs * hm * ze * ze * d
        * (2 * (d + 2) * hs + 3) * be * be * t * t * t,
    )

    # The common-root size bound textually coincides with the entry
    # above; both live in the ledger under distinct keys on purpose.
    crq = add("common_root.q", "2*delta*(2*gamma*(delta + 1) + 1) + gamma",
              2 * d * (2 * gamma * (d + 1) + 1) + gamma)
    add(
        "common_root.j_size",
        "2*common_root_q*zeta*beta"
        "*(1 + (common_root_q + u_high_degree_s)*(delta**2 + 1)"
        " + 2*delta + delta*tau)*tau",
        2 * crq * ze * be
        * (1 + (crq + hs) * (d * d + 1) + 2 * d + d * t) * t,
    )

    ns3, ns2, ns1, ns = _nested_chain(p)
    add("nested.s3", "(delta*(delta + 1) + 1)*epsilon + delta", ns3)
    add("nested.s2", "((2*delta*epsilon + 1)*delta*tau + epsilon)*nested_s3", ns2)
    add("nested.s1", "(2*epsilon + 1)*tau*nested_s2", ns1)
    add("nested.s", "nested_s1 + epsilon", ns)
    nt4 = add("nested.t4", "2*delta", 2 * d)
    nt3 = add("nested.t3", "2*delta*nested_t4", 2 * d * nt4)
    nt2 = add("nested.t2", "(alpha*tau*2**(beta*zeta) + 1)*nested_t3",
              (dense + 1) * nt3)
    nt1 = add("nested.t1", "nested_t2**nested_s2", _pow(nt2, ns2))
    add("nested.t", "1 + 2**nested_s2*delta*tau + nested_t1",
        1 + _pow(2, ns2) * d * t + nt1)

    add("shadow_chi.q", "2*delta + nested_s", 2 * d + ns)
    add(
        "shadow_chi.r",
        "(4*(delta + 1)*nested_s + 1)*shadow_chi_q*zeta*beta*tau"
        "*(1 + tau*((shadow_chi_q + nested_s)*delta**2"
        " + (2*nested_s*(delta + 1) + 1)*delta*tau))",
        shadow_chi_r_of(p, ns),
    )
    add("shadow_chi.bound", "3*shadow_chi_r*nested_s*beta*delta*zeta*tau**2",
        shadow_chi_bound_of(p))

    return ConstantsLedger(params=p, entries=tuple(entries))


class _PowToCall(ast.NodeTransformer):
    """Rewrites ``a ** b`` into ``_pow(a, b)``."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


@functools.lru_cache(maxsize=256)
def _compiled(formula: str, key: str) -> CodeType:
    """The formula string with ``**`` rewritten to ``_pow``, compiled once."""
    tree = _PowToCall().visit(ast.parse(formula, mode="eval"))
    return compile(ast.fix_missing_locations(tree), key, "eval")


def reevaluate(lg: ConstantsLedger) -> dict[str, int | PowerSum]:
    """Independently recompute every entry by evaluating its stored
    formula string over the parameters and earlier entries.

    This shares no arithmetic with :func:`ledger` beyond ``_pow``: each
    ``**`` of a formula is rewritten into a call to it, so that a huge
    power stays symbolic here too.  Values come back keyed like the
    ledger.
    """
    p = lg.params
    env: dict[str, object] = dict(p.as_dict())
    scope = {"__builtins__": {}, "_pow": _pow}
    out: dict[str, int | PowerSum] = {}
    for e in lg.entries:
        value = eval(_compiled(e.formula, e.key), scope, env)  # noqa: S307
        env[e.symbol] = value
        out[e.key] = value
    return out


# One composable bound-transform per pipeline step; ``compose_phi``
# chains them in pipeline order.
PHI_STEPS: dict[str, Callable[..., int]] = {
    "extract": lambda c, *, theta_zeta: c + theta_zeta,
    "partial_clean1": lambda c, *, t: (2 * t + 1) * c,
    "clean1": lambda c, *, t, tau: c + t * tau,
    "partial_clean2": lambda c, *, s: (2 * s + 1) * c,
    "clean2": lambda c, *, t, beta: (c + beta + 1) * t,
    "clean3": lambda c, *, delta, tau, ell: c + delta * tau * tau + ell,
}

PIPELINE_STEP_ORDER = (
    "clean3",
    "clean2",
    "partial_clean2",
    "clean1",
    "partial_clean1",
    "extract",
)


def phi_step(theorem: str, c: int, **consts) -> int:
    """Apply one bound-composition step to ``c``; ``compose_phi`` feeds
    each step's result to the next."""
    if theorem not in PHI_STEPS:
        raise ValueError(f"unknown bound step {theorem!r}")
    if c < 0:
        raise ValueError("argument must be nonnegative")
    return PHI_STEPS[theorem](c, **consts)


def compose_phi(p: Params, lg: ConstantsLedger | None = None) -> Callable[[int], int]:
    """The full bound function of the cleaning pipeline, composed
    innermost (clean3) to outermost (extract), exactly in pipeline order.

    The nested tower is excluded: its t-fold composition count is the
    astronomically large ledger entry and is never materialized as a
    function.
    """
    lg = lg if lg is not None else ledger(p)
    dense_bound, strong_s, ell = (
        _as_int(lg.value(key), key)
        for key in ("dense_count.bound", "strong_contacts.s", "u_high_degree.ell"))
    consts: dict[str, dict] = {
        "clean3": {"delta": p.delta, "tau": p.tau, "ell": ell},
        "clean2": {"t": clean2_t_of(p), "beta": p.beta},
        "partial_clean2": {"s": strong_s},
        "clean1": {"t": dense_bound, "tau": p.tau},
        "partial_clean1": {"t": dense_bound},
        "extract": {"theta_zeta": p.theta(p.zeta)},
    }

    def phi(c: int) -> int:
        x = c
        for step in PIPELINE_STEP_ORDER:
            x = phi_step(step, x, **consts[step])
        return x

    return phi
