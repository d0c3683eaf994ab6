"""Exact Hochschild and cyclic homology of small unital algebras.

An algebra is given by structure constants, stored as ints where they are
integral (as in every built-in algebra) and as Fractions otherwise; the
engine builds the chain spaces A^(x)(p+1), the face and cyclic structure
maps, the boundary b and the Connes operator B = (1 - t) s N on the
unnormalized complex, and computes homology by exact sparse elimination in
that integer-first arithmetic.  Each boundary map is eliminated once: the
pass that finds the cycles in degree p also yields the echelon basis of
the boundaries in degree p - 1.  Cyclic homology comes from the (b, B)
mixed complex; the S, B, I maps between the computed groups are produced
on explicit homology bases, so exactness of the long sequence can be
verified by rank counting.

Chains one degree above the report cutoff are always built, so every
reported dimension is unaffected by the truncation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import _rat
from .linalg import GaussianBasis, QuotientSpace, kernel_vectors, span_basis
from .sparse import add_into, add_term


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

Coeff = int | Fraction


@dataclass
class AlgebraSpec:
    """Finite-dimensional algebra by structure constants.

    products maps a basis pair (i, j) to the sparse coefficient vector of
    e_i * e_j; omitted pairs multiply to zero.  group_table, when present,
    records that the basis is a group and e_i * e_j = e_{table[i][j]}.
    """

    name: str
    dim: int
    products: dict[tuple[int, int], dict[int, Coeff]]
    unit: dict[int, Coeff] | None
    group_table: list[list[int]] | None = None

    def product_vec(self, i: int, j: int) -> dict[int, Coeff]:
        return self.products.get((i, j), {})

    def multiply(self, a: dict[int, Coeff], b: dict[int, Coeff]) -> dict[int, Coeff]:
        out: dict[int, Coeff] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                add_into(out, self.product_vec(i, j), ca * cb)
        return out


def load_algebra(spec: AlgebraSpec) -> AlgebraSpec:
    """Validate associativity and unitality; return the spec unchanged."""
    if spec.dim < 1:
        raise SpecError("dim must be positive")
    if not spec.unit:
        raise NoUnit(f"algebra {spec.name!r} has no unit vector")
    unit = spec.unit
    for i in range(spec.dim):
        e = {i: 1}
        if spec.multiply(unit, e) != e or spec.multiply(e, unit) != e:
            raise NoUnit(f"unit vector of {spec.name!r} is not a two-sided identity")
    for i in range(spec.dim):
        for j in range(spec.dim):
            ij = spec.product_vec(i, j)
            for k in range(spec.dim):
                left = spec.multiply(ij, {k: 1})
                right = spec.multiply({i: 1}, spec.product_vec(j, k))
                if left != right:
                    raise NotAssociative((i, j, k))
    return spec


# ---------------------------------------------------------------------------
# built-in algebras


def ground_field() -> AlgebraSpec:
    return load_algebra(
        AlgebraSpec(
            name="ground_field",
            dim=1,
            products={(0, 0): {0: 1}},
            unit={0: 1},
            group_table=[[0]],
        )
    )


def dual_numbers() -> AlgebraSpec:
    # basis 1, x with x^2 = 0
    return load_algebra(
        AlgebraSpec(
            name="dual_numbers",
            dim=2,
            products={
                (0, 0): {0: 1},
                (0, 1): {1: 1},
                (1, 0): {1: 1},
            },
            unit={0: 1},
        )
    )


def group_algebra(m: int) -> AlgebraSpec:
    """Group algebra of Z/m with group-element basis."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    products = {
        (i, j): {table[i][j]: 1} for i in range(m) for j in range(m)
    }
    return load_algebra(
        AlgebraSpec(
            name=f"cyclic_{m}",
            dim=m,
            products=products,
            unit={0: 1},
            group_table=table,
        )
    )


def upper_triangular_2() -> AlgebraSpec:
    # basis e11, e12, e22 of the 2x2 upper-triangular matrices
    return load_algebra(
        AlgebraSpec(
            name="upper_triangular_2",
            dim=3,
            products={
                (0, 0): {0: 1},
                (0, 1): {1: 1},
                (1, 2): {1: 1},
                (2, 2): {2: 1},
            },
            unit={0: 1, 2: 1},
        )
    )


BUILTIN_ALGEBRAS = {
    "ground_field": ground_field,
    "dual_numbers": dual_numbers,
    "cyclic_2": lambda: group_algebra(2),
    "cyclic_3": lambda: group_algebra(3),
    "cyclic_4": lambda: group_algebra(4),
    "cyclic_5": lambda: group_algebra(5),
    "cyclic_6": lambda: group_algebra(6),
    "upper_triangular_2": upper_triangular_2,
}


def spec_to_json(spec: AlgebraSpec) -> str:
    entries = []
    for (i, j), vec in sorted(spec.products.items()):
        coeffs = ["0"] * spec.dim
        for k, c in vec.items():
            coeffs[k] = str(c)
        entries.append({"i": i, "j": j, "coeffs": coeffs})
    unit = ["0"] * spec.dim
    for k, c in (spec.unit or {}).items():
        unit[k] = str(c)
    return json.dumps(
        {"name": spec.name, "dim": spec.dim, "unit": unit, "products": entries},
        indent=2,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _spec_coefficient(value, where: str) -> Coeff:
    """An exact coefficient from an int or a rational string; int when integral."""
    if not (_is_int(value) or isinstance(value, str)):
        raise SpecError(f"{where}: coefficient {value!r} is not an integer or a string")
    try:
        exact = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"{where}: coefficient {value!r} is not an exact rational") from None
    return exact.numerator if exact.denominator == 1 else exact


def _spec_vector(values, dim: int, where: str) -> dict[int, Coeff]:
    if not isinstance(values, list) or len(values) != dim:
        raise SpecError(f"{where} must be a list of dim = {dim} coefficients")
    coeffs = (_spec_coefficient(c, f"{where}[{k}]") for k, c in enumerate(values))
    return {k: c for k, c in enumerate(coeffs) if c}


def spec_from_json(text: str) -> AlgebraSpec:
    """Parse and validate a spec; every defect raises SpecError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise SpecError("a spec must be a JSON object")
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
        for name, index in zip("ij", pair):
            if not _is_int(index) or not 0 <= index < dim:
                raise SpecError(f"{where}: {name} = {index!r} is not a basis index below dim = {dim}")
        if pair in seen:
            raise SpecError(f"{where}: the product e_{pair[0]} * e_{pair[1]} is given twice")
        seen.add(pair)
        vec = _spec_vector(entry.get("coeffs"), dim, f"{where}.coeffs")
        if vec:
            products[pair] = vec
    spec = AlgebraSpec(
        name=str(data.get("name", "algebra")), dim=dim, products=products, unit=unit
    )
    return load_algebra(spec)


def load_algebra_file(path) -> AlgebraSpec:
    """Load a spec file; a spec defect raises SpecError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise SpecError(f"{path}: not UTF-8 text ({err.reason})") from None
    try:
        return spec_from_json(text)
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# chain spaces and structure maps


class ChainStack:
    """Chain spaces A^(x)(p+1) with their structure maps, up to top_degree."""

    def __init__(self, spec: AlgebraSpec, top_degree: int):
        self.spec = spec
        self.top_degree = top_degree

    def dim_chain(self, p: int) -> int:
        return self.spec.dim ** (p + 1)

    def decode(self, p: int, index: int) -> tuple[int, ...]:
        base = self.spec.dim
        out = []
        for _ in range(p + 1):
            out.append(index % base)
            index //= base
        return tuple(reversed(out))

    def encode(self, parts) -> int:
        base = self.spec.dim
        index = 0
        for part in parts:
            index = index * base + part
        return index

    def face(self, p: int, i: int, index: int) -> dict[int, Coeff]:
        """d_i on a basis tuple; d_p multiplies the last entry into the first."""
        parts = self.decode(p, index)
        out: dict[int, Coeff] = {}
        if i < p:
            merged = self.spec.product_vec(parts[i], parts[i + 1])
            rest = parts[:i] + parts[i + 1 :]
            for k, c in merged.items():
                add_term(out, self.encode(rest[:i] + (k,) + rest[i + 1 :]), c)
        else:
            merged = self.spec.product_vec(parts[p], parts[0])
            middle = parts[1:p]
            for k, c in merged.items():
                add_term(out, self.encode((k,) + middle), c)
        return out

    def cyclic(self, p: int, index: int, signed: bool = False) -> tuple[int, int]:
        parts = self.decode(p, index)
        rotated = parts[-1:] + parts[:-1]
        sign = -1 if (signed and p % 2 == 1) else 1
        return self.encode(rotated), sign

    def boundary(self, p: int, index: int) -> dict[int, Coeff]:
        out: dict[int, Coeff] = {}
        for i in range(p + 1):
            add_into(out, self.face(p, i, index), -1 if i % 2 else None)
        return out

    def extra_degeneracy(self, p: int, index: int) -> dict[int, Coeff]:
        """Insert the unit in front: C_p -> C_{p+1}."""
        parts = self.decode(p, index)
        out: dict[int, Coeff] = {}
        for k, c in self.spec.unit.items():
            add_term(out, self.encode((k,) + parts), c)
        return out

    def connes_B(self, p: int, index: int) -> dict[int, Coeff]:
        """B = (1 - t) s N on the unnormalized complex."""
        # N = sum of signed cyclic powers on C_p
        norm: dict[int, Coeff] = {}
        current = index
        sign = 1
        step = -1 if p % 2 == 1 else 1
        for j in range(p + 1):
            if j:
                current, _ = self.cyclic(p, current)
                sign *= step
            add_term(norm, current, sign)
        # s, then (1 - t) on C_{p+1}
        inserted: dict[int, Coeff] = {}
        for key, c in norm.items():
            add_into(inserted, self.extra_degeneracy(p, key), c)
        out: dict[int, Coeff] = {}
        for key, c in inserted.items():
            add_term(out, key, c)
            rotated, rsign = self.cyclic(p + 1, key, signed=True)
            add_term(out, rotated, -c * rsign)
        return out

    def apply_linear(self, op, vec: dict[int, Coeff]) -> dict[int, Coeff]:
        out: dict[int, Coeff] = {}
        for index, coeff in vec.items():
            add_into(out, op(index), coeff)
        return out

    def verify_structure_identities(self, up_to: int | None = None) -> None:
        """Simplicial identities d_i d_j = d_{j-1} d_i (i < j) and t^(p+1) = 1.

        Raises AssertionError with a witness on any failure.
        """
        top = self.top_degree if up_to is None else up_to
        for p in range(1, top + 1):
            for index in range(self.dim_chain(p)):
                current = index
                for _ in range(p + 1):
                    current, _ = self.cyclic(p, current)
                assert current == index, f"t^{p + 1} != 1 at degree {p}, index {index}"
            for j in range(1, p + 1):
                for i in range(j):
                    for index in range(self.dim_chain(p)):
                        left = self.apply_linear(
                            lambda x: self.face(p - 1, i, x), self.face(p, j, index)
                        )
                        right = self.apply_linear(
                            lambda x: self.face(p - 1, j - 1, x), self.face(p, i, index)
                        )
                        assert left == right, f"d_{i} d_{j} != d_{j - 1} d_{i} at degree {p}"


# ---------------------------------------------------------------------------
# homology


@dataclass
class ExactnessNode:
    node: str
    incoming: str
    outgoing: str
    rank_in: int
    rank_out: int
    dim: int
    composite_zero: bool

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.rank_in + self.rank_out == self.dim


@dataclass
class HomologyReport:
    algebra: str
    cutoff: int
    hh_dims: list[int]
    hc_dims: list[int] | None = None
    exactness: list[ExactnessNode] = field(default_factory=list)
    _stack: ChainStack | None = field(default=None, repr=False)
    _hh: list[QuotientSpace] = field(default_factory=list, repr=False)
    _hc: list[QuotientSpace] = field(default_factory=list, repr=False)
    _tot_offsets: dict[int, list[int]] = field(default_factory=dict, repr=False)
    i_maps: dict[int, list[dict]] = field(default_factory=dict, repr=False)
    s_maps: dict[int, list[dict]] = field(default_factory=dict, repr=False)
    b_maps: dict[int, list[dict]] = field(default_factory=dict, repr=False)

    @property
    def sbi_exact(self) -> bool:
        return bool(self.exactness) and all(node.exact for node in self.exactness)


def _guard(spec: AlgebraSpec, cutoff: int) -> None:
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if spec.dim ** (cutoff + 1) > CHAIN_GUARD:
        raise TooLarge(
            f"dim^(N+1) = {spec.dim ** (cutoff + 1)} exceeds the guard {CHAIN_GUARD}"
        )


def _homology(dims: list[int], boundary, cutoff: int) -> list[QuotientSpace]:
    """H_0..H_cutoff of a complex with dims[p] = dim C_p for p <= cutoff + 1.

    boundary(p, i) is the image in C_{p-1} of basis element i of C_p.  Each
    map is eliminated once: the kernel pass of the boundary on C_p gives the
    cycles of degree p, and its echelon rows are the boundary basis of
    degree p - 1; only the top map gets a pass of its own, without payloads.
    """
    quotients = []
    cycles = [{i: 1} for i in range(dims[0])]
    for p in range(1, cutoff + 2):
        images = ((i, boundary(p, i)) for i in range(dims[p]))
        if p <= cutoff:
            next_cycles, boundaries = kernel_vectors(images)
        else:
            next_cycles, boundaries = None, span_basis(vec for _, vec in images)
        quotients.append(QuotientSpace(boundaries, cycles))
        cycles = next_cycles
    return quotients


def compute_hochschild(spec: AlgebraSpec, cutoff: int) -> HomologyReport:
    """Exact HH_0..HH_cutoff with representative cycles."""
    _guard(spec, cutoff)
    stack = ChainStack(spec, cutoff + 1)
    report = HomologyReport(algebra=spec.name, cutoff=cutoff, hh_dims=[], _stack=stack)
    dims = [stack.dim_chain(p) for p in range(cutoff + 2)]
    report._hh = _homology(dims, stack.boundary, cutoff)
    report.hh_dims = [quotient.dim for quotient in report._hh]
    return report


def _tot_offsets(stack: ChainStack, n: int) -> list[int]:
    """Offsets of the components C_{n-2j} inside Tot_n."""
    offsets = []
    total = 0
    j = 0
    while n - 2 * j >= 0:
        offsets.append(total)
        total += stack.dim_chain(n - 2 * j)
        j += 1
    return offsets


def _tot_dim(stack: ChainStack, offsets: list[int], n: int) -> int:
    return offsets[-1] + stack.dim_chain(n - 2 * (len(offsets) - 1))


def _tot_slot(offsets: list[int], index: int) -> tuple[int, int]:
    """(slot, local): a Tot_n index is basis element local of C_{n - 2 slot}."""
    slot = bisect_right(offsets, index) - 1
    return slot, index - offsets[slot]


def _tot_boundary(stack: ChainStack, n: int, offsets, target_offsets, index: int):
    """(b + B) on a Tot_n basis element, expressed in Tot_{n-1} indices."""
    slot, local = _tot_slot(offsets, index)
    p = n - 2 * slot
    out: dict[int, Coeff] = {}
    if p >= 1:
        for key, c in stack.boundary(p, local).items():
            add_term(out, target_offsets[slot] + key, c)
    if slot >= 1:
        for key, c in stack.connes_B(p, local).items():
            add_term(out, target_offsets[slot - 1] + key, c)
    return out


def compute_cyclic(spec: AlgebraSpec, cutoff: int) -> HomologyReport:
    """HH and HC through the cutoff, with S, B, I on homology bases."""
    report = compute_hochschild(spec, cutoff)
    stack = report._stack
    offsets = [_tot_offsets(stack, n) for n in range(cutoff + 2)]
    report._tot_offsets = dict(enumerate(offsets[: cutoff + 1]))
    dims = [_tot_dim(stack, offsets[n], n) for n in range(cutoff + 2)]

    def tot_boundary(n: int, index: int):
        return _tot_boundary(stack, n, offsets[n], offsets[n - 1], index)

    report._hc = _homology(dims, tot_boundary, cutoff)
    report.hc_dims = [quotient.dim for quotient in report._hc]
    _build_sbi_maps(report)
    return report


def _matrix_of(domain_reps, apply_map, codomain: QuotientSpace) -> list[dict]:
    """Columns of the induced map on homology bases."""
    cols = []
    for rep in domain_reps:
        image = apply_map(rep)
        cols.append(codomain.coords(image))
    return cols


def _build_sbi_maps(report: HomologyReport) -> None:
    stack = report._stack
    cutoff = report.cutoff
    for n in range(cutoff + 1):
        offsets = report._tot_offsets[n]

        # I: HH_n -> HC_n, inclusion as the leading Tot component
        report.i_maps[n] = _matrix_of(report._hh[n].representatives, dict, report._hc[n])

        # S: HC_n -> HC_{n-2}, drop the leading component
        if n >= 2:
            target_offsets = report._tot_offsets[n - 2]

            def drop(rep, _offsets=offsets, _target=target_offsets):
                out: dict[int, Coeff] = {}
                for index, coeff in rep.items():
                    slot, local = _tot_slot(_offsets, index)
                    if slot:
                        out[_target[slot - 1] + local] = coeff
                return out

            report.s_maps[n] = _matrix_of(
                report._hc[n].representatives, drop, report._hc[n - 2]
            )

        # B: HC_n -> HH_{n+1}, Connes operator on the leading component
        if n + 1 <= cutoff:

            def bmap(rep, _n=n, _offsets=offsets):
                limit = (
                    _offsets[1] if len(_offsets) > 1 else stack.dim_chain(_n)
                )
                lead = {i: c for i, c in rep.items() if i < limit}
                return stack.apply_linear(lambda x: stack.connes_B(_n, x), lead)

            report.b_maps[n] = _matrix_of(
                report._hc[n].representatives, bmap, report._hh[n + 1]
            )


def _mat_rank(cols: list[dict]) -> int:
    basis = GaussianBasis()
    for col in cols:
        basis.insert(col)
    return basis.rank


def _mat_compose(second: list[dict], first: list[dict]) -> list[dict]:
    """(second . first) where first's entries index second's columns."""
    out = []
    for col in first:
        total: dict = {}
        for row, coeff in col.items():
            add_into(total, second[row], coeff)
        out.append(total)
    return out


def _mat_is_zero(cols: list[dict]) -> bool:
    return all(not col for col in cols)


def sbi_exactness_check(report: HomologyReport) -> list[ExactnessNode]:
    """Exactness of ... -> HC_{n+1} -S-> HC_{n-1} -B-> HH_n -I-> HC_n -> ...

    at every node computable within the cutoff; results are stored on the
    report and returned.
    """
    if report.hc_dims is None:
        raise ValueError("run compute_cyclic first")
    cutoff = report.cutoff
    nodes: list[ExactnessNode] = []
    zero_map: list[dict] = []

    for n in range(cutoff + 1):
        b_in = report.b_maps.get(n - 1, zero_map if n >= 1 else [])
        i_out = report.i_maps[n]
        composite = _mat_compose(i_out, b_in) if b_in else []
        nodes.append(
            ExactnessNode(
                node=f"HH_{n}",
                incoming=f"B: HC_{n - 1} -> HH_{n}",
                outgoing=f"I: HH_{n} -> HC_{n}",
                rank_in=_mat_rank(b_in),
                rank_out=_mat_rank(i_out),
                dim=report.hh_dims[n],
                composite_zero=_mat_is_zero(composite),
            )
        )

    for n in range(cutoff + 1):
        i_in = report.i_maps[n]
        s_out = report.s_maps.get(n, [])
        composite = _mat_compose(s_out, i_in) if s_out else []
        nodes.append(
            ExactnessNode(
                node=f"HC_{n} (after I)",
                incoming=f"I: HH_{n} -> HC_{n}",
                outgoing=f"S: HC_{n} -> HC_{n - 2}",
                rank_in=_mat_rank(i_in),
                rank_out=_mat_rank(s_out),
                dim=report.hc_dims[n],
                composite_zero=_mat_is_zero(composite),
            )
        )

    for m in range(cutoff - 1):
        s_in = report.s_maps.get(m + 2, [])
        b_out = report.b_maps.get(m, [])
        composite = _mat_compose(b_out, s_in) if s_in and b_out else []
        nodes.append(
            ExactnessNode(
                node=f"HC_{m} (after S)",
                incoming=f"S: HC_{m + 2} -> HC_{m}",
                outgoing=f"B: HC_{m} -> HH_{m + 1}",
                rank_in=_mat_rank(s_in),
                rank_out=_mat_rank(b_out),
                dim=report.hc_dims[m],
                composite_zero=_mat_is_zero(composite),
            )
        )

    report.exactness = nodes
    return nodes


# ---------------------------------------------------------------------------
# class-function action on group-algebra chains


class ClassFunctionAction:
    """Diagonal action of a function on group elements, degreewise.

    In degree p the basis tuple (g_0, ..., g_p) is scaled by F(g_0 ... g_p).
    """

    def __init__(self, spec: AlgebraSpec, values: dict[int, Fraction]):
        if spec.group_table is None:
            raise ValueError("class-function actions need a group algebra")
        self.spec = spec
        self.values = {k: _rat(v) for k, v in values.items()}

    def factor(self, stack: ChainStack, p: int, index: int) -> Fraction:
        parts = stack.decode(p, index)
        g = parts[0]
        for h in parts[1:]:
            g = self.spec.group_table[g][h]
        return self.values.get(g, Fraction(0))

    def apply(self, stack: ChainStack, p: int, vec: dict[int, Coeff]) -> dict[int, Coeff]:
        out = {}
        for index, coeff in vec.items():
            c = coeff * self.factor(stack, p, index)
            if c:
                out[index] = c
        return out

    def commutes_with_structure_maps(self, stack: ChainStack, up_to: int) -> bool:
        """Chain-level commutation with every d_i, with t, and with B."""
        for p in range(up_to + 1):
            for index in range(stack.dim_chain(p)):
                f_here = self.factor(stack, p, index)
                if p >= 1:
                    for i in range(p + 1):
                        face = stack.face(p, i, index)
                        if add_into({}, face, f_here) != self.apply(stack, p - 1, face):
                            return False
                rotated, _ = stack.cyclic(p, index)
                if self.factor(stack, p, rotated) != f_here:
                    return False
                if p + 1 <= stack.top_degree:
                    image = stack.connes_B(p, index)
                    if add_into({}, image, f_here) != self.apply(stack, p + 1, image):
                        return False
        return True

    def induced_matrix(self, stack: ChainStack, p: int, quotient: QuotientSpace) -> list[dict]:
        return _matrix_of(
            quotient.representatives,
            lambda rep: self.apply(stack, p, rep),
            quotient,
        )

    def induced_tot_matrix(
        self, report: HomologyReport, n: int
    ) -> list[dict]:
        stack = report._stack
        offsets = report._tot_offsets[n]

        def act(rep):
            out: dict[int, Coeff] = {}
            for index, coeff in rep.items():
                slot, local = _tot_slot(offsets, index)
                c = coeff * self.factor(stack, n - 2 * slot, local)
                if c:
                    out[index] = c
            return out

        return _matrix_of(report._hc[n].representatives, act, report._hc[n])


def class_function_action(
    spec: AlgebraSpec, values: dict[int, Fraction], stack: ChainStack
) -> ClassFunctionAction:
    """Build the diagonal action and verify it is a chain map."""
    action = ClassFunctionAction(spec, values)
    if not action.commutes_with_structure_maps(stack, stack.top_degree - 1):
        raise AssertionError("class-function action fails to commute with structure maps")
    return action


def idempotent_commutator_square_is_zero(
    report: HomologyReport, e_values: dict[int, Fraction], f_values: dict[int, Fraction]
) -> bool:
    """[e, F]^2 = 0 on every computed cyclic homology group."""
    spec = report._stack.spec
    e_action = ClassFunctionAction(spec, e_values)
    f_action = ClassFunctionAction(spec, f_values)
    for n in range(report.cutoff + 1):
        e_mat = e_action.induced_tot_matrix(report, n)
        f_mat = f_action.induced_tot_matrix(report, n)
        ef = _mat_compose(e_mat, f_mat)
        fe = _mat_compose(f_mat, e_mat)
        commutator = [add_into(dict(a), b, -1) for a, b in zip(ef, fe)]
        square = _mat_compose(commutator, commutator)
        if not _mat_is_zero(square):
            return False
    return True

