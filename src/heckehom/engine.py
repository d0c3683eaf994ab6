"""Exact Hochschild and cyclic homology of small unital algebras.

An algebra is given by structure constants, ints where integral and
Fractions otherwise; the engine builds the normalized Hochschild complex
A (x) (A/k)^(x)p on tuple keys, with b and the normalized Connes operator
B = s N of ``hochschild`` (after a change of basis that makes the unit a
basis vector), and computes homology exactly by ``linalg.homology`` on a
closed complex.  Cyclic homology is that of the (b, B) mixed complex, whose
Tot_n is the sum of the C_{n-2j}.  It is not eliminated: the kernel passes of
HH already give a contraction of C onto HH, and the perturbation lemma
(Brown, *The twisted Eilenberg-Zilber theorem*, 1965; Crainic,
arXiv:math/0403266) turns B into the differential of a model on the sum of
the HH_{n-2j}, no larger than HH (``Contraction``).  ``compute_cyclic``
returns one immutable ``HomologyReport``: the stack, chain_dims, HH and HC
(hh, hc and their dims), the S, B, I maps on explicit homology bases, and
in ``report.exactness`` the rank count at each node of the S-B-I sequence.
On a group algebra, a class function F acts on chains and on Tot by the
diagonal action of ``hochschild``, with the plain weight F(g_0 ... g_p) of
``class_weight``, and is checked against the structure maps in the one
identity sweep of ``hochschild``, with the precyclic identities; on the
model it acts as p_oo F i_oo.

Chains one degree above the report cutoff are always built, so every
reported dimension is unaffected by the truncation.  ``_guard`` refuses a
cutoff N at which C_{N+1} (dim^(N+1) tuples), the normalized C_{N+1}
(dim*(dim-1)^(N+1)) or the top degree t = max(N, min(N+1, 3)) of the
identity sweep (dim^(t+1)) has more than CHAIN_GUARD tuples.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

from . import hochschild as hh
from .linalg import QuotientSpace, homology, span_basis
from .sparse import add_into, exact, exact_quotient, linear


class SpecError(ValueError):
    """An algebra spec that cannot be loaded: malformed, out of range or invalid."""


class NotAssociative(SpecError):
    """Structure constants fail associativity; carries a witness triple."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"associativity fails on basis triple {witness}")


class NoUnit(SpecError):
    """Missing or invalid unit vector."""


class TooLarge(ValueError):
    """Requested chain spaces exceed the size guard."""


CHAIN_GUARD = 100_000


def within(base: int, exponent: int, cap: int) -> bool:
    """base^exponent <= cap for base >= 0, building no power above cap:
    from base 2 on, base^bit_length(cap) is already above it."""
    return base ** min(exponent, cap.bit_length()) <= cap


Coeff = int | Fraction


class AlgebraSpec(namedtuple("AlgebraSpec", "name dim products unit group_table", defaults=(None,))):
    """Finite-dimensional algebra by structure constants.

    products maps a basis pair (i, j) to the sparse coefficient vector of
    e_i * e_j, a dict[int, Coeff]; omitted pairs multiply to zero.  unit is
    the coefficient vector of the unit, or None.  group_table, when
    present, records that the basis is a group and e_i * e_j = e_{table[i][j]}.
    """

    __slots__ = ()

    def product_vec(self, i: int, j: int) -> dict[int, Coeff]:
        return self.products.get((i, j), {})

    def multiply(self, a: dict[int, Coeff], b: dict[int, Coeff]) -> dict[int, Coeff]:
        out: dict[int, Coeff] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                add_into(out, self.product_vec(i, j), ca * cb)
        return out


def load_algebra(spec: AlgebraSpec) -> AlgebraSpec:
    """Validate associativity and unitality; return the spec unchanged.

    The witness is the first failing basis triple (i, j, k).  Only triples
    with e_i * e_j != 0 or e_j * e_k stored are visited: both sides vanish
    on the others."""
    if spec.dim < 1:
        raise SpecError("dim must be positive")
    if not spec.unit:
        raise NoUnit(f"algebra {spec.name!r} has no unit vector")
    unit = spec.unit
    for i in range(spec.dim):
        e = {i: 1}
        if spec.multiply(unit, e) != e or spec.multiply(e, unit) != e:
            raise NoUnit(f"unit vector of {spec.name!r} is not a two-sided identity")
    every = range(spec.dim)
    stored = [[] for _ in every]  # stored[j]: the k with e_j * e_k stored
    for j, k in sorted(spec.products):
        stored[j].append(k)
    for i in every:
        for j in every:
            ij = spec.product_vec(i, j)
            for k in every if ij else stored[j]:
                left = spec.multiply(ij, {k: 1})
                right = spec.multiply({i: 1}, spec.product_vec(j, k))
                if left != right:
                    raise NotAssociative((i, j, k))
    return spec


# ---------------------------------------------------------------------------
# built-in algebras: the spec files shipped in algebras/

_ALGEBRA_DIR = Path(__file__).with_name("algebras")

BUILTIN_ALGEBRAS = tuple(sorted(path.stem for path in _ALGEBRA_DIR.glob("*.json")))


def monoid_table(spec: AlgebraSpec) -> list[list[int]] | None:
    """The table of e_i * e_j = e_{table[i][j]} when every product of two
    basis vectors is one basis vector with coefficient 1, else None: the
    one test for a monoid basis, which decides the group table of a shipped
    algebra and the product form of a ``ChainStack``.

    >>> monoid_table(builtin_algebra("cyclic_3")), monoid_table(builtin_algebra("dual_numbers"))
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], None)
    """
    vecs = [[spec.product_vec(i, j) for j in range(spec.dim)] for i in range(spec.dim)]
    if all(list(vec.values()) == [1] for row in vecs for vec in row):
        return [[min(vec) for vec in row] for row in vecs]
    return None


def builtin_algebra(name: str) -> AlgebraSpec:
    """A shipped algebra, with its group_table when its basis is a group.

    The table is ``monoid_table``, which among the shipped files is set
    exactly for the group algebras.  It is derived for the shipped files
    only: a user's spec file is taken as it is written.
    """
    if name not in BUILTIN_ALGEBRAS:
        raise SpecError(f"unknown built-in algebra {name!r}")
    spec = load_algebra_file(_ALGEBRA_DIR / f"{name}.json")
    return spec._replace(group_table=monoid_table(spec))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _spec_coefficient(value, where: str) -> Coeff:
    """An exact coefficient from an int or a string "n" or "n/d" (each with an
    optional sign); int when integral."""
    if not (_is_int(value) or isinstance(value, str)):
        raise SpecError(f"{where}: coefficient {value!r} is not an integer or a string")
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise SpecError(f"{where}: coefficient {value!r} is not of the form n or n/d")
    try:
        return exact(value)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"{where}: coefficient {value!r} is not an exact rational") from None


def _spec_vector(values, dim: int, where: str) -> dict[int, Coeff]:
    if not isinstance(values, list) or len(values) != dim:
        raise SpecError(f"{where} must be a list of dim = {dim} coefficients")
    coeffs = (_spec_coefficient(c, f"{where}[{k}]") for k, c in enumerate(values))
    return {k: c for k, c in enumerate(coeffs) if c}


def spec_from_json(text: str, check=load_algebra) -> AlgebraSpec:
    """Parse a spec and return check(spec), by default ``load_algebra``'s
    validation; every defect raises SpecError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # a JSONDecodeError, an int past the digit limit, or nesting past the recursion limit
        raise SpecError(f"not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise SpecError("a spec must be a JSON object")
    name = data.get("name", "algebra")  # the middle part of suite/algebra/check case ids
    if not (isinstance(name, str) and name.isprintable() and re.fullmatch(r"[^\s/]+", name)):
        raise SpecError(f"name {name!r} is not a word of printable characters without '/'")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise SpecError(f"dim must be a positive integer, got {dim!r}")
    unit_list = data.get("unit")
    unit = None
    if unit_list is not None:
        unit = _spec_vector(unit_list, dim, "unit")
    entries = data.get("products", [])
    if not isinstance(entries, list):
        raise SpecError("products must be a list")
    products: dict[tuple[int, int], dict[int, Coeff]] = {}
    seen = set()
    for n, entry in enumerate(entries):
        where = f"products[{n}]"
        if not isinstance(entry, dict):
            raise SpecError(f"{where} must be an object with i, j and coeffs")
        pair = (entry.get("i"), entry.get("j"))
        for axis, index in zip("ij", pair):
            if not _is_int(index) or not 0 <= index < dim:
                raise SpecError(f"{where}: {axis} = {index!r} is not a basis index below dim = {dim}")
        if pair in seen:
            raise SpecError(f"{where}: the product e_{pair[0]} * e_{pair[1]} is given twice")
        seen.add(pair)
        vec = _spec_vector(entry.get("coeffs"), dim, f"{where}.coeffs")
        if vec:
            products[pair] = vec
    return check(AlgebraSpec(name=name, dim=dim, products=products, unit=unit))


def load_algebra_file(path, check=load_algebra) -> AlgebraSpec:
    """Load a spec file, as ``spec_from_json`` with check; a spec defect
    raises SpecError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise SpecError(f"{path}: not UTF-8 text ({err.reason})") from None
    try:
        return spec_from_json(text, check)
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# chain spaces and structure maps


def unit_basis(spec: AlgebraSpec) -> AlgebraSpec:
    """The spec in a basis whose vector k, the first label of the unit, is the unit.

    Basis vector k becomes the unit u = sum_j u_j e_j and the others stay,
    so e_k = (u - sum_{j != k} u_j e_j) / u_k.  The spec is returned as it is
    when its unit is already e_k.
    """
    unit = spec.unit
    k = min(unit)
    if unit == {k: 1}:
        return spec
    u_k = unit[k]

    def coords(vec: dict[int, Coeff]) -> dict[int, Coeff]:
        c_k = vec.get(k, 0)
        scaled = {j: vec.get(j, 0) * u_k - c_k * unit.get(j, 0) for j in range(spec.dim)}
        scaled[k] = c_k
        return {j: exact_quotient(v, u_k) for j, v in scaled.items() if v}

    vectors = [unit if i == k else {i: 1} for i in range(spec.dim)]
    products = {}
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            vec = coords(spec.multiply(a, b))
            if vec:
                products[(i, j)] = vec
    return AlgebraSpec(name=spec.name, dim=spec.dim, products=products, unit={k: 1})


class ChainStack:
    """The normalized Hochschild complex of an algebra.

    C_p is spanned by the tuples (a_0, ..., a_p) of basis labels with no
    unit after the first entry; b and B are those of ``hochschild`` with
    the spec's product.  The spec is first put in a basis in which the unit
    is a basis vector (``unit_basis``); dimensions and ranks do not depend
    on the basis.  The product, ``mul``, is a ``hochschild.LabelProduct``
    when that basis is a monoid (``monoid_table``), else ``product_vec``.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = unit_basis(spec)
        self.unit = next(iter(self.spec.unit))
        table = monoid_table(self.spec)
        self.mul = hh.LabelProduct(lambda a, b: table[a][b]) if table else self.spec.product_vec

    def dim_chain(self, p: int) -> int:
        """The dimension of the normalized C_p."""
        return self.spec.dim * (self.spec.dim - 1) ** p

    def keys(self, p: int) -> list[tuple[int, ...]]:
        """The basis of the normalized C_p, in increasing order."""
        labels = range(self.spec.dim)
        bar = [a for a in labels if a != self.unit]
        return [(a,) + rest for a in labels for rest in product(bar, repeat=p)]

    def tuples(self, p: int):
        """Every (p+1)-tuple of basis labels, degenerate ones included."""
        return product(range(self.spec.dim), repeat=p + 1)

    def boundary(self, key: tuple[int, ...]) -> dict:
        return hh.normalize(hh.boundary(key, self.mul), self.unit)

    def connes_B(self, key: tuple[int, ...]) -> dict:
        return hh.connes_B(key, self.unit)

    def verify_structure_identities(self, wanted: dict, weight=None) -> dict[str, str]:
        """``hochschild.identity_failures`` over every tuple of the stack, for
        wanted and weight, with each witness tuple printed as "tuple (...)"."""
        return hh.identity_failures(
            self.tuples, wanted, self.mul, self.unit, weight, "tuple {}".format
        )


# ---------------------------------------------------------------------------
# homology


ExactnessNode = namedtuple("ExactnessNode", "node rank_in rank_out dim exact")


class HomologyReport(namedtuple("HomologyReport", "stack cutoff chain_dims hh hh_dims hc hc_dims "
                                "i_maps s_maps b_maps exactness contraction",
                                defaults=(None,) * 7)):
    """hh[n], hc[n]: the QuotientSpaces of HH_n, HC_n; each map is keyed by the
    degree of its domain.  hc[n] is the homology of the model (``Contraction``),
    and its representatives are model cycles.  ``compute_hochschild`` leaves the
    HC fields None."""

    __slots__ = ()


def _guard(spec: AlgebraSpec, cutoff: int) -> None:
    """TooLarge at the first of the module docstring's three counts above CHAIN_GUARD."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    dim, n, top = spec.dim, cutoff + 1, max(cutoff, min(cutoff + 1, 3))
    for count, base, exponent, cap in [
        (f"dim^(N+1) = {dim}^{n}", dim, n, CHAIN_GUARD),
        (f"dim*(dim-1)^(N+1) = {dim}*{dim - 1}^{n}", dim - 1, n, CHAIN_GUARD // dim),
        (f"dim^(t+1) = {dim}^{top + 1} at sweep degree t = {top}", dim, top + 1, CHAIN_GUARD),
    ]:
        if not within(base, exponent, cap):
            raise TooLarge(f"{count} exceeds the guard {CHAIN_GUARD}")


def compute_hochschild(spec: AlgebraSpec, cutoff: int) -> HomologyReport:
    """Exact HH_0..HH_cutoff with representative cycles; the quotients below
    the cutoff keep the preimages of their boundaries (``linalg.homology``),
    which ``Contraction`` reads."""
    _guard(spec, cutoff)
    stack = ChainStack(spec)
    chain_dims = [stack.dim_chain(p) for p in range(cutoff + 2)]
    bases = [stack.keys(p) for p in range(cutoff + 2)]
    hh_quotients = homology(bases, stack.boundary)
    return HomologyReport(stack, cutoff, chain_dims, hh_quotients, [q.dim for q in hh_quotients])


class Contraction:
    """The contraction (i, p, h) of the normalized complex onto HH that the
    kernel passes build, and the small model of HC that it gives.

    The passes split C_m = W_m + b(W_{m+1}) + H_m: W_m is spanned by the
    preimages of the image rows of the pass over C_m, and H_m by the
    representatives of HH_m.  i includes the representatives, p takes
    coordinates in them, and h(bw) = w, with h = 0 on W_m and on H_m; then
    1 - ip = bh + hb and h^2 = ph = hi = 0.  h is known below the cutoff N,
    whose top pass keeps no preimages.

    The model has the basis keys (j, (m, i)) in degree n = m + 2j, for the
    representatives i of HH_m, m <= N; its differential is
    d'(j, x) = sum_{k < j} (j - k - 1, p B (-hB)^k x), the perturbation of
    the zero differential of HH by B (``tail``).
    """

    def __init__(self, report: HomologyReport):
        self.stack, self.hh, self.cutoff = report.stack, report.hh, report.cutoff
        # tails[m][i]: tail of representative i of HH_m as far as the cutoff allows
        self.tails = [
            [self.tail(rep, m, (self.cutoff - m + 1) // 2) for rep in quotient.representatives]
            for m, quotient in enumerate(self.hh)
        ]

    def split(self, chain: dict, m: int) -> tuple[dict, dict | None]:
        """(p(chain), h(chain)) for a chain of C_m; h is None at the cutoff."""
        w = self.hh[m - 1].preimage(linear(self.stack.boundary, chain)) if m else {}
        rest = add_into(dict(chain), w, -1)
        coords = self.hh[m].coords(rest)
        if m == self.cutoff:
            return coords, None
        for i, c in coords.items():
            add_into(rest, self.hh[m].representatives[i], -c)
        return coords, self.hh[m].preimage(rest)

    def tail(self, chain: dict, m: int, count: int) -> tuple[list[dict], list[dict]]:
        """The chains y_k and the classes p B y_k for k < count, for y_0 = chain
        in C_m and y_{k+1} = -h B y_k; y_count only when h is known on B y_{count-1},
        below the cutoff."""
        ys, pbs = [chain], []
        for k in range(count):
            coords, h = self.split(linear(self.stack.connes_B, ys[k]), m + 2 * k + 1)
            pbs.append(coords)
            if h is not None:
                ys.append({key: -c for key, c in h.items()})
        return ys, pbs

    def keys(self, n: int) -> list:
        """The basis of the model in degree n."""
        return [(j, (n - 2 * j, i)) for j in range(n // 2 + 1) if n - 2 * j <= self.cutoff
                for i in range(self.hh[n - 2 * j].dim)]

    def boundary(self, key) -> dict:
        """d' on a basis key of the model."""
        j, (m, i) = key
        pbs = self.tails[m][i][1]
        return {(j - k - 1, (m + 2 * k + 1, x)): c for k in range(j) for x, c in pbs[k].items()}

    def connes(self, vec: dict) -> dict:
        """B on a model cycle of degree n, in the coordinates of HH_{n+1}:
        (j, x) -> p B (-hB)^j x."""
        out = {}
        for (j, (m, i)), c in vec.items():
            add_into(out, self.tails[m][i][1][j], c)
        return {x: exact(c) for x, c in out.items()}

    def include(self, vec: dict) -> dict:
        """i_oo on a model chain: (j, x) -> sum_{k <= j} (j - k, (-hB)^k x), on
        the keys (j, key) of Tot_n = sum_j C_{n-2j}."""
        out = {}
        for (j, (m, i)), c in vec.items():
            ys = self.tails[m][i][0]
            for k in range(j + 1):
                add_into(out, {(j - k, key): v for key, v in ys[k].items()}, c)
        return out

    def project(self, chain: dict) -> dict:
        """p_oo on a chain of Tot_n: (j, u) -> (j, p u) - sum_{l < j} (j - l - 1, p B t_l),
        for t_0 = h u and t_{l+1} = -h B t_l."""
        parts: dict = {}
        for (j, key), c in chain.items():
            parts.setdefault(j, {})[key] = c
        out = {}
        for j, part in parts.items():
            m = len(next(iter(part))) - 1
            coords, h = self.split(part, m)
            add_into(out, {(j, (m, x)): c for x, c in coords.items()})
            if j:
                for l, pb in enumerate(self.tail(h, m + 1, j)[1]):
                    add_into(out, {(j - l - 1, (m + 2 * l + 2, x)): c for x, c in pb.items()}, -1)
        return out


def compute_cyclic(spec: AlgebraSpec, cutoff: int) -> HomologyReport:
    """HH and HC through the cutoff, with S, B, I on homology bases and the
    exactness of the S-B-I sequence; HC is the homology of the model of
    ``Contraction``."""
    report = compute_hochschild(spec, cutoff)
    model = Contraction(report)
    hc = homology([model.keys(n) for n in range(cutoff + 2)], model.boundary)
    report = report._replace(hc=hc, hc_dims=[quotient.dim for quotient in hc], contraction=model)
    i_maps, s_maps, b_maps = _build_sbi_maps(report)
    report = report._replace(i_maps=i_maps, s_maps=s_maps, b_maps=b_maps)
    return report._replace(exactness=_exactness(report))


def _matrix_of(domain_reps, apply_map, codomain: QuotientSpace) -> list[dict]:
    """Columns of the induced map on homology bases."""
    return [codomain.coords(apply_map(rep)) for rep in domain_reps]


def _build_sbi_maps(report: HomologyReport) -> tuple[dict, dict, dict]:
    """The I, S and B maps on the model, each keyed by the degree of its
    domain: I includes HH_n as j = 0, S drops j by one and B is
    ``Contraction.connes``."""
    hc = report.hc

    def drop(rep):
        return {(j - 1, x): c for (j, x), c in rep.items() if j}

    i_maps, s_maps, b_maps = {}, {}, {}
    for n in range(report.cutoff + 1):
        hc_reps = hc[n].representatives
        i_maps[n] = [hc[n].coords({(0, (n, i)): 1}) for i in range(report.hh_dims[n])]
        if n >= 2:
            s_maps[n] = _matrix_of(hc_reps, drop, hc[n - 2])
        if n + 1 <= report.cutoff:
            b_maps[n] = [report.contraction.connes(rep) for rep in hc_reps]
    return i_maps, s_maps, b_maps


def _mat_compose(second: list[dict], first: list[dict]) -> list[dict]:
    """(second . first) where first's entries index second's columns."""
    return [linear(second.__getitem__, col) for col in first]


def _exactness(report: HomologyReport) -> list[ExactnessNode]:
    """Exactness of ... -> HC_{n+1} -S-> HC_{n-1} -B-> HH_n -I-> HC_n -> ...
    at every node computable within the cutoff."""
    cutoff = report.cutoff
    nodes: list[ExactnessNode] = []

    def node(name, into, out_of, dim):
        composite = _mat_compose(out_of, into) if into and out_of else []
        rank_in, rank_out = span_basis(into).rank, span_basis(out_of).rank
        exact_here = not any(composite) and rank_in + rank_out == dim
        nodes.append(ExactnessNode(name, rank_in, rank_out, dim, exact_here))

    # node(name, map into it, map out of it, dim): B then I at HH_n, I then S
    # at HC_n, S then B at HC_m
    for n in range(cutoff + 1):
        node(f"HH_{n}", report.b_maps.get(n - 1, []), report.i_maps[n], report.hh_dims[n])
    for n in range(cutoff + 1):
        node(f"HC_{n} (after I)", report.i_maps[n], report.s_maps.get(n, []), report.hc_dims[n])
    for m in range(cutoff - 1):
        node(f"HC_{m} (after S)", report.s_maps.get(m + 2, []), report.b_maps.get(m, []),
             report.hc_dims[m])
    return nodes


# ---------------------------------------------------------------------------
# class-function action on group-algebra chains


def class_weight(spec: AlgebraSpec, values: dict[int, Coeff]):
    """(g_0, ..., g_p) -> F(g_0 ... g_p) on the tuples of a group algebra, for
    F with these values on group elements (0 elsewhere): the weight that
    ``hochschild.class_action`` scales each tuple by.

    >>> weight = class_weight(builtin_algebra("cyclic_3"), {0: 1})
    >>> weight((1, 2)), weight((1, 1)), weight((0, 2, 1))
    (1, 0, 1)
    """
    table = spec.group_table
    if table is None:
        raise ValueError("class-function actions need a group algebra")
    values = {g: exact(v) for g, v in values.items()}
    return lambda key: values.get(reduce(lambda g, h: table[g][h], key), 0)


def idempotent_commutator_square_is_zero(report: HomologyReport, e_weight, f_weight) -> bool:
    """[e, F]^2 = 0 on every computed cyclic homology group, for the actions
    of two class-function weights (``class_weight``).  F acts on Tot, each
    key (j, key) weighted by its key, and commutes with b and B (the identity
    sweep checks it); on the model it acts as p_oo F i_oo (``Contraction``)."""
    model = report.contraction

    def matrix(weight, hc: QuotientSpace) -> list[dict]:
        def act(rep):
            return model.project(hh.class_action(model.include(rep), lambda key: weight(key[1])))

        return _matrix_of(hc.representatives, act, hc)

    for hc in report.hc:
        e_mat, f_mat = matrix(e_weight, hc), matrix(f_weight, hc)
        ef = _mat_compose(e_mat, f_mat)
        fe = _mat_compose(f_mat, e_mat)
        commutator = [add_into(dict(a), b, -1) for a, b in zip(ef, fe)]
        if any(_mat_compose(commutator, commutator)):
            return False
    return True
