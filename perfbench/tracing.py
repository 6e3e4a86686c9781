"""Spans around the public functions of each schurcalc module.

``install`` wraps every name in ``LAYERS`` and rebinds the wrapper wherever
the original object is bound in a loaded schurcalc module: the defining
module, the ``from .x import y`` copies in cli, koszul, symseq and the rest,
and the package namespace. ``GroupAlgebraElement.__mul__`` is wrapped on
the class, as the span ``symgroup.convolution``. Spans stay in memory;
``Tracer.summary`` folds them into per-name calls and self time.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "partitions": (
        "canonical_tableau", "all_partitions", "standard_tableaux",
        "dim_sym_irrep", "dim_gl_irrep",
    ),
    "symgroup": (
        "all_permutations", "sym_projector", "alt_projector", "row_symmetrizer",
        "column_antisymmetrizer", "young_symmetrizer", "char_irrep",
        "character_table", "centralizer_order", "conjugacy_class_size",
        "class_representative", "char_inner_product", "induction_multiplicity",
        "decompose_module",
    ),
    "symseq": ("free_generator", "tensor", "localize", "wedge_component"),
    "glchar": (
        "normalize_weight", "weight_of", "lr_coeff", "lr_expand", "gl_tensor",
        "schur_weyl", "hom_dim", "weight_monomials", "char_monomials",
        "exterior_power", "symmetric_power", "product_group_tensor",
    ),
    "koszul": (
        "shift", "euler", "graded_power_image", "wedge", "sym",
        "euler_falling_factorial", "certify_finiteness", "kimura_split",
    ),
    "serre": (
        "cech_cohomology", "gm_shift_functor", "build_serre_algebra",
        "verify_serre_duality",
    ),
    "cli": ("build_parser", "main"),
}

CONVOLUTION = "symgroup.convolution"

# Spans that must record calls on each workload; zero calls means a
# refactor moved the work out of sight of the trace.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "cli-deck": (
        "cli.main", "partitions.all_partitions", "symgroup.young_symmetrizer",
        CONVOLUTION, "symseq.tensor", "glchar.lr_coeff", "glchar.lr_expand",
        "koszul.wedge", "koszul.sym", "koszul.certify_finiteness",
        "serre.cech_cohomology", "serre.verify_serre_duality",
    ),
    "graded-powers": (
        "koszul.certify_finiteness", "koszul.kimura_split", "koszul.wedge",
        "koszul.sym", "koszul.graded_power_image", "symgroup.alt_projector",
        "symgroup.sym_projector", "symgroup.all_permutations",
        "symgroup.young_symmetrizer", CONVOLUTION, "glchar.exterior_power",
        "glchar.symmetric_power",
    ),
    "symmetrizers": (
        "symgroup.young_symmetrizer", CONVOLUTION, "symgroup.decompose_module",
        "symgroup.character_table",
    ),
}


class LayerMissingError(RuntimeError):
    """A wrapped name no longer exists in the package."""


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent index) span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder with a few counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._lr_pairs: set = set()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        observe = {
            "glchar.lr_coeff": self._observe_lr_coeff,
            "glchar.lr_expand": self._observe_lr_expand,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_convolution(self, mul, element_type):
        @functools.wraps(mul)
        def traced(a, b):
            if not isinstance(b, element_type):
                return mul(a, b)
            self.count("symgroup.convolution.products", len(a.terms) * len(b.terms))
            index = self._open(CONVOLUTION)
            try:
                return mul(a, b)
            finally:
                self._close(index)

        return traced

    def _observe_lr_coeff(self, args, result) -> None:
        if result:
            self.count("glchar.lr_coeff.nonzero")

    def _observe_lr_expand(self, args, result) -> None:
        pair = (args[0], args[1])
        if pair in self._lr_pairs:
            self.count("glchar.lr_expand.repeats")
        self._lr_pairs.add(pair)

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the counters."""
        if self._stack:
            raise RuntimeError("summary taken while spans are open")
        names: dict[str, dict] = {}
        for (name, *_rest), own in zip(self.spans, self_times(self.spans)):
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return {"spans": names, "counters": dict(self.counters)}


def check_layers() -> None:
    """Raise LayerMissingError unless every wrapped name still exists."""
    missing = []
    for module_name, names in LAYERS.items():
        module = importlib.import_module(f"schurcalc.{module_name}")
        missing += [f"{module_name}.{n}" for n in names if not callable(getattr(module, n, None))]
    symgroup = importlib.import_module("schurcalc.symgroup")
    element = getattr(symgroup, "GroupAlgebraElement", None)
    if element is None or "__mul__" not in vars(element):
        missing.append("symgroup.GroupAlgebraElement.__mul__")
    if missing:
        raise LayerMissingError("wrapped names no longer exist: " + ", ".join(missing))


def install(tracer: Tracer):
    """Wrap every layer function; returns a callable that undoes it."""
    check_layers()  # also imports every layer module, cli included
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "schurcalc" or name.startswith("schurcalc."))
    ]
    undo: list[tuple[object, str, object]] = []
    for module_name, names in LAYERS.items():
        home = sys.modules[f"schurcalc.{module_name}"]
        for name in names:
            original = getattr(home, name)
            wrapped = tracer.wrap(f"{module_name}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
    element = sys.modules["schurcalc.symgroup"].GroupAlgebraElement
    mul = element.__mul__
    element.__mul__ = tracer.wrap_convolution(mul, element)
    undo.append((element, "__mul__", mul))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
