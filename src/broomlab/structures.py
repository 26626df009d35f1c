"""Complete-multipartite cores, dense/mixed vertex classification, and
matching-covered set machinery, plus the five-condition host checker."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, check_vertex_set, lowest, mask_of, members
from .solvers import (
    InstanceTooLarge,
    check_limit,
    chi_local,
    chi_of_set,
    chromatic_number,
)

EXHAUSTIVE_SUBSET_LIMIT = 16


@dataclass(frozen=True)
class CoreWitness:
    """b disjoint stable parts of size a, pairwise completely joined.

    Each part is also held as an int mask over vertex ids (``masks``),
    so a vertex's neighbours in a part are ``g.bits[v] & mask``, and
    ``mask`` holds every core vertex.
    """

    parts: tuple[frozenset[int], ...]
    _vertices: frozenset[int] = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vertices", frozenset().union(*self.parts))
        object.__setattr__(self, "masks", tuple([mask_of(p) for p in self.parts]))
        object.__setattr__(self, "mask", mask_of(self._vertices))

    @property
    def a(self) -> int:
        return len(self.parts[0]) if self.parts else 0

    @property
    def b(self) -> int:
        return len(self.parts)

    def vertices(self) -> frozenset[int]:
        return self._vertices


def verify_core(g: Graph, core: CoreWitness, a: int, b: int) -> bool:
    if core.b != b or any(len(p) != a for p in core.parts):
        return False
    if core.mask >> g.n:
        check_vertex_set(g, core.vertices())  # names the first id past n
    bits = g.bits
    seen = 0
    for p, mask in zip(core.parts, core.masks):
        if mask & seen:
            return False
        # Stable, and joined to every vertex of the parts before it.
        if any(bits[u] & mask or seen & ~bits[u] for u in p):
            return False
        seen |= mask
    return True


@dataclass(frozen=True)
class ThetaTable:
    """Non-decreasing integer function as a finite table.

    Arguments beyond the table extend with the last value.  The default
    identity table is an arbitrary choice for experiments; nothing in
    the bounds depends on it.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("theta table must be nonempty")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("theta table must be non-decreasing")

    def __call__(self, a: int) -> int:
        if a < 0:
            raise ValueError("theta argument must be nonnegative")
        return self.values[min(a, len(self.values) - 1)]

    @staticmethod
    def identity(up_to: int = 16) -> "ThetaTable":
        return ThetaTable(tuple(range(up_to + 1)))


@dataclass(frozen=True)
class Params:
    """Shared parameter bundle for the whole pipeline."""

    delta: int = 1
    tau: int = 1
    alpha: int = 1
    beta: int = 2
    zeta: int = 2
    eta: int = 1
    theta: ThetaTable = field(default_factory=ThetaTable.identity)

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.beta < 2:
            raise ValueError("beta must be at least 2")
        if min(self.tau, self.zeta, self.eta) < 0:
            raise ValueError("parameters must be nonnegative")

    def as_dict(self) -> dict[str, int]:
        """The six integer parameters by name; theta is left out."""
        return {
            "delta": self.delta, "tau": self.tau, "alpha": self.alpha,
            "beta": self.beta, "zeta": self.zeta, "eta": self.eta,
        }

    @staticmethod
    def with_minimal_sides(
        delta: int = 1,
        tau: int = 1,
        alpha: int = 1,
        beta: int = 2,
        theta: ThetaTable | None = None,
        eta: int | None = None,
    ) -> "Params":
        """Smallest eta and zeta meeting every cleaning pass's side
        conditions: eta >= max(1, delta) and zeta >= max(eta, alpha) + delta.
        An explicit ``eta`` is kept, and zeta is the least for it."""
        if eta is None:
            eta = max(1, delta)
        zeta = max(eta, alpha) + delta
        return Params(
            delta=delta,
            tau=tau,
            alpha=alpha,
            beta=beta,
            zeta=zeta,
            eta=eta,
            theta=theta if theta is not None else ThetaTable.identity(),
        )


def find_core(
    g: Graph, a: int, b: int, *, within: int | None = None
) -> CoreWitness | None:
    """Search for an (a,b)-core inside ``within``, an int mask of vertex
    ids (all of ``g`` when None), lexicographically least parts first.

    The search and its refusal see only that set: under the same
    ``solving`` cap, the result is the core that
    ``find_core(induced(g, members(within))[0], a, b)`` finds, in host
    ids.

    Parts are built in increasing order of their minimum vertex, and
    inside a part vertices are tried in increasing id.  Candidate sets
    are bitmasks over ``g.bits``: choosing v removes its neighbours from
    the part's remaining candidates, which keeps the part stable, and a
    part keeps the AND of its chosen vertices' neighbour masks, starting
    from ``common``; that intersection is the next part's ``common``.

    Every later part must lie inside that intersection, so a vertex is
    skipped when its intersection holds fewer than ``a`` vertices per
    part still to build.  The bound only cuts branches that cannot
    complete a core, and the search order is unchanged, so the first
    witness found is the same one the unbounded search finds.
    """
    if a < 1 or b < 1:
        raise ValueError("core dimensions must be positive")
    pool = (1 << g.n) - 1 if within is None else within
    if pool >> g.n:  # also catches a negative mask
        raise ValueError(f"vertex mask outside 0..{g.n - 1}")
    size = pool.bit_count()
    check_limit("find_core", size)
    if a * b > size:
        return None

    bits = g.bits
    parts: list[list[int]] = []

    def build_part(common: int, floor: int) -> CoreWitness | None:
        """Choose the next stable a-subset of ``common`` whose minimum
        exceeds ``floor``, then recurse."""
        part: list[int] = []
        later = a * (b - len(parts) - 1)

        def grow(cand: int, inter: int) -> CoreWitness | None:
            if len(part) == a:
                parts.append(part.copy())
                if len(parts) == b:
                    out = CoreWitness(tuple([frozenset(p) for p in parts]))
                else:
                    out = build_part(inter, part[0])
                parts.pop()
                return out
            if cand.bit_count() < a - len(part):
                return None
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                nxt = inter & bits[v]
                if nxt.bit_count() < later:
                    continue
                part.append(v)
                found = grow(cand & ~bits[v], nxt)
                if found:
                    return found
                part.pop()
            return None

        try:
            return grow(common >> (floor + 1) << (floor + 1), common)
        finally:
            del grow  # break the closure's reference cycle

    try:
        return build_part(pool, -1)
    finally:
        del build_part


def density_masks(
    g: Graph, core: CoreWitness, alpha: int, eta: int
) -> tuple[int, int]:
    """Masks of the host vertices dense to the core (outside it, at
    least alpha neighbours in every part) and of those eta-mixed on it
    (every core member, and every outside vertex that is not dense but
    has at least eta neighbours in some part).  With no parts every
    outside vertex is (vacuously) dense, so none is mixed.

    Per part, ``at[j]`` masks the vertices with at least j neighbours in
    it, grown one part member at a time: O(|core| * max(alpha, eta))
    big-int operations.
    """
    bits = g.bits
    full = (1 << g.n) - 1
    top = max(alpha, eta, 0)
    dense, reach = full, 0
    for part in core.parts:
        at = [full] + [0] * top
        for u in part:
            row = bits[u]
            for j in range(top, 0, -1):
                at[j] |= at[j - 1] & row
        dense &= at[max(alpha, 0)]
        reach |= at[max(eta, 0)]
    outside = full & ~core.mask
    return dense & outside, (reach & ~dense & outside) | core.mask


def is_dense_to(g: Graph, v: int, core: CoreWitness, alpha: int) -> bool:
    """At least alpha neighbours in every part; undefined for core members."""
    g.check_vertex(v)
    if v in core.vertices():
        raise ValueError(f"vertex {v} belongs to the core")
    return bool(density_masks(g, core, alpha, 0)[0] >> v & 1)


def is_eta_mixed(
    g: Graph, v: int, core: CoreWitness, eta: int, alpha: int
) -> bool:
    """Core members count as mixed; outside vertices must be non-dense
    with at least eta neighbours in some part."""
    g.check_vertex(v)
    return bool(density_masks(g, core, alpha, eta)[1] >> v & 1)


@dataclass(frozen=True)
class MatchingCoverResult:
    ok: bool
    witnesses: dict[int, int]
    offender: int | None = None


def _private(g: Graph, xm: int) -> int:
    """The vertices outside ``xm`` with exactly one neighbour in it."""
    ones = twos = 0
    for v in members(xm):
        twos |= ones & g.bits[v]
        ones |= g.bits[v]
    return ones & ~twos & ~xm


def is_matching_covered(g: Graph, x: frozenset[int] | set[int]) -> MatchingCoverResult:
    """Every member needs a private outside neighbour (adjacent to it and
    to no other member).  Witnesses are the lowest eligible ids."""
    xm = mask_of(check_vertex_set(g, x))
    private = _private(g, xm)
    witnesses: dict[int, int] = {}
    for v in members(xm):
        if not g.bits[v] & private:
            return MatchingCoverResult(False, {}, offender=v)
        witnesses[v] = lowest(g.bits[v] & private)
    return MatchingCoverResult(True, witnesses)


@dataclass(frozen=True)
class MatchingCoveredVerdict:
    status: str  # "pass_exhaustive" | "violation"
    violating_set: frozenset[int] | None = None
    violating_chi: int | None = None
    subsets_checked: int = 0


def max_matching_covered_chi(
    g: Graph, tau: int, exhaustive_limit: int = EXHAUSTIVE_SUBSET_LIMIT
) -> MatchingCoveredVerdict:
    """Scan matching-covered sets for one of chromatic number above tau.

    Exact or refused: every set is scanned, with subtree pruning (once
    some member loses all private-witness candidates, no superset can
    recover, so the branch dies), and a graph of more than
    ``exhaustive_limit`` vertices raises ``InstanceTooLarge``.
    """
    n = g.n
    if n > exhaustive_limit:
        raise InstanceTooLarge("max_matching_covered_chi", n, exhaustive_limit)
    checked = 0
    violation: list[tuple[frozenset[int], int]] = []

    def scan(xm: int, start: int) -> bool:
        nonlocal checked
        private = _private(g, xm)
        if any(not g.bits[v] & private for v in members(xm)):
            # A member with no private witness never regains one as the
            # set grows, so the whole subtree is dead.
            return False
        if xm:
            checked += 1
            # chi(X) <= |X|, so only sets larger than tau can violate.
            if xm.bit_count() > tau:
                chi = chi_of_set(g, xm)
                if chi > tau:
                    violation.append((frozenset(members(xm)), chi))
                    return True
        return any(scan(xm | 1 << v, v + 1) for v in range(start, n))

    try:
        found = scan(0, 0)
    finally:
        del scan  # break the closure's reference cycle
    if found:
        bad, chi = violation[0]
        return MatchingCoveredVerdict("violation", bad, chi, checked)
    return MatchingCoveredVerdict("pass_exhaustive", subsets_checked=checked)


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts for one host graph under one parameter set."""

    t_free: bool
    chi2: int
    chi2_ok: bool
    matching_covered: MatchingCoveredVerdict
    core_threshold_ok: bool
    core_threshold_details: tuple[tuple[int, bool, bool], ...]
    no_forbidden_core: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.t_free
            and self.chi2_ok
            and self.matching_covered.status == "pass_exhaustive"
            and self.core_threshold_ok
            and self.no_forbidden_core
        )


def check_conditions(
    g: Graph, p: Params, exhaustive_limit: int = EXHAUSTIVE_SUBSET_LIMIT
) -> ConditionReport:
    """Check the five host conditions, each exact or refused (the solvers
    refuse above the cap of the enclosing ``solving`` block).

    The core-threshold condition is checked over the finite theta table
    only (the function is otherwise unconstrained), a documented
    narrowing of a universally quantified statement.
    """
    from .trees import is_T_delta_free

    t_free = is_T_delta_free(g, p.delta)
    chi2 = chi_local(g, 2) if g.n else 0
    mc = max_matching_covered_chi(g, p.tau, exhaustive_limit=exhaustive_limit)
    chi_g, _ = chromatic_number(g)
    details: list[tuple[int, bool, bool]] = []
    ok = True
    for a in range(1, len(p.theta.values)):
        exceeds = chi_g > p.theta(a)
        found = False
        if exceeds:
            found = find_core(g, a, p.beta) is not None
            if not found:
                ok = False
        details.append((a, exceeds, found))
    no_big = find_core(g, p.alpha, p.beta + 1) is None
    return ConditionReport(
        t_free=t_free,
        chi2=chi2,
        chi2_ok=chi2 <= p.tau,
        matching_covered=mc,
        core_threshold_ok=ok,
        core_threshold_details=tuple(details),
        no_forbidden_core=no_big,
    )
