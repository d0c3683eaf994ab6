"""Run one heckehom command with per-layer spans, and write their summary.

    python3 perfbench/tracer.py SUMMARY.json verify hecke --format json ...

The arguments after SUMMARY.json are passed to ``heckehom.cli.main``
unchanged, in this fresh process, so the memo caches start cold as they do
for a user.  Before ``main`` runs, every public function of the library
modules, plus the methods and private helpers in ``EXTRA_TARGETS``, is
replaced by a wrapper where it is defined and wherever another module or a
module-level dict bound it by name.  Each call records a span (name, start,
end, parent) in four parallel arrays kept in memory; at exit the spans are
folded into per-name call counts, self time (the span minus the time its
child spans cover) and outermost inclusive time, and the summary is written
as JSON.  Cache hit ratios are measured from outside: the wrapper checks
whether the key is already in the memo dict before the call.

The library source is never modified; the program output is the same as
without tracing.
"""

from __future__ import annotations

# Only modules the interpreter has already loaded at start-up (and the small
# array module) are imported here: anything more would pre-load modules the
# program imports and shorten the import time measured in main().
import functools
import sys
import time
from array import array

clock = time.perf_counter

MODULES = (
    "laurent",
    "weyl",
    "hecke",
    "hh0",
    "hh0_oracle",
    "spectral",
    "linalg",
    "torus",
    "engine",
    "suites",
)

# methods and private helpers that carry a per-layer metric
EXTRA_TARGETS = {
    "laurent": ("LaurentQ.__mul__", "LaurentQ.__add__", "LaurentQ.divide_exact"),
    "linalg": ("GaussianBasis.insert", "GaussianBasis.reduce", "QuotientSpace.__init__"),
    "hh0_oracle": ("TruncatedTraceOracle.__init__", "TruncatedTraceOracle.class_of_word"),
    "torus": ("_invariant_sector_dims",),
    "engine": (
        "ChainStack.boundary",
        "ChainStack.connes_B",
        "ChainStack.dim_chain",
        "ChainStack.verify_structure_identities",
        "_build_sbi_maps",
    ),
}


class Spans:
    """Spans in four parallel arrays: name id, start, end, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.open = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def fold(self) -> dict:
        """Per name: calls, self_s, and s (time of the outermost spans only)."""
        n = len(self.name)
        name, start, end, parent = self.name, self.start, self.end, self.parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        outer_s = [0.0] * k
        active = [0] * k  # open spans of each name on the current path
        path: list[int] = []
        for i in range(n):
            p = parent[i]
            while path and path[-1] != p:
                active[name[path.pop()]] -= 1
            nid = name[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += duration - covered[i]
            if not active[nid]:
                outer_s[nid] += duration
            active[nid] += 1
            path.append(i)
        return {
            label: {"calls": calls[nid], "self_s": self_s[nid], "s": outer_s[nid]}
            for nid, label in enumerate(self.names)
        }


def _wrap(spans: Spans, label: str, fn, before=None, after=None):
    nid = spans.name_id(label)
    names, starts, ends, parents, open_ = (
        spans.name, spans.start, spans.end, spans.parent, spans.open,
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        index = len(names)
        names.append(nid)
        parents.append(open_[-1])
        ends.append(0.0)
        open_.append(index)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            open_.pop()
        if after is not None:
            after(result)
        return result

    return wrapper


def _hooks(spans: Spans, mods: dict) -> dict:
    """Counters measured around a call: (before(args), after(result))."""
    inverse_cache = mods["hecke"]._INVERSE_CACHE
    word_class_cache = mods["hh0"]._WORD_CLASS_CACHE

    def inverse_hit(args):
        if args[0] in inverse_cache:
            spans.count("hecke.t_inverse.hits")

    def word_class_hit(args):
        if args[0] in word_class_cache:
            spans.count("hh0.class_of_word.hits")

    def insert_dependent(result):
        if result[0] is None:
            spans.count("linalg.GaussianBasis.insert.dependent")

    def reduce_nnz(args):
        spans.count("linalg.GaussianBasis.reduce.input_nnz", len(args[1]))

    def chain_dim(result):
        key = "engine.ChainStack.dim_chain.max"
        spans.counters[key] = max(spans.counters.get(key, 0), result)

    return {
        "hecke.t_inverse": (inverse_hit, None),
        "hh0.class_of_word": (word_class_hit, None),
        "linalg.GaussianBasis.insert": (None, insert_dependent),
        "linalg.GaussianBasis.reduce": (reduce_nnz, None),
        "engine.ChainStack.dim_chain": (None, chain_dim),
    }


def _rebind(namespaces, old, new) -> None:
    """Replace every binding of ``old`` in the given namespaces and their dicts."""
    for space in namespaces:
        for key, value in list(space.items()):
            if value is old:
                space[key] = new
            elif isinstance(value, dict) and not key.startswith("__"):
                for inner_key, inner in list(value.items()):
                    if inner is old:
                        value[inner_key] = new


def install(spans: Spans, package) -> None:
    """Wrap the public functions and EXTRA_TARGETS of every module in MODULES."""
    import inspect

    mods = {short: sys.modules[f"{package.__name__}.{short}"] for short in MODULES}
    namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                  if name == package.__name__ or name.startswith(package.__name__ + ".")]
    hooks = _hooks(spans, mods)
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            label = f"{short}.{attr}"
            _rebind(namespaces, fn, _wrap(spans, label, fn, *hooks.get(label, (None, None))))
        for qualname in EXTRA_TARGETS.get(short, ()):
            label = f"{short}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = vars(owner)[attr]
            wrapper = _wrap(spans, label, fn, *hooks.get(label, (None, None)))
            if owner_name:
                # aliases such as __rmul__ = __mul__ share the span
                for alias, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, alias, wrapper)
            else:
                _rebind(namespaces, fn, wrapper)


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    t0 = clock()
    import heckehom
    import heckehom.cli as cli

    import_s = clock() - t0
    spans = Spans()
    install(spans, heckehom)
    t1 = clock()
    try:
        code = cli.main(cli_args)
    finally:
        run_s = clock() - t1
        hecke = sys.modules["heckehom.hecke"]
        hh0 = sys.modules["heckehom.hh0"]
        summary = {
            "import_s": import_s,
            "run_s": run_s,
            "spans": spans.fold(),
            "counters": spans.counters,
            "cache_entries": {
                "hecke._INVERSE_CACHE": len(hecke._INVERSE_CACHE),
                "hecke._R_RECURSIVE_CACHE": len(hecke._R_RECURSIVE_CACHE),
                "hh0._WORD_CLASS_CACHE": len(hh0._WORD_CLASS_CACHE),
            },
        }
        import json

        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
