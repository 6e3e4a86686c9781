"""Statistics of a run and the per-layer metrics of a traced round."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Value at the highest percentile with at least ``beyond`` samples beyond it.

    Returns (value, percentile). The value is the sample with exactly
    ``beyond`` samples after it in sorted order; the percentile is the
    share of samples at or below that position. A run of R rounds of N
    queries passes beyond = 10 R, which keeps the percentile at that of
    one round, (N - 10) / N, whatever the number of rounds.
    """
    ordered = sorted(samples)
    if len(ordered) <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {len(ordered)}")
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def merge_summaries(summaries) -> dict:
    """Sum the per-name calls, self seconds and counters of several traces."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


MODULES = ("partitions", "symgroup", "symseq", "glchar", "koszul", "serre")

# metric name -> the spans whose calls (or self seconds) it adds up
_CALLS = {
    "partitions.all_partitions.calls": ("partitions.all_partitions",),
    "symgroup.young_symmetrizer.calls": ("symgroup.young_symmetrizer",),
    "symgroup.convolution.calls": ("symgroup.convolution",),
    "symseq.tensor.calls": ("symseq.tensor",),
    "glchar.lr_coeff.calls": ("glchar.lr_coeff",),
    "koszul.wedge.calls": ("koszul.wedge",),
    "koszul.sym.calls": ("koszul.sym",),
    "serre.cech_cohomology.calls": ("serre.cech_cohomology",),
}
_SELF = {
    "cli.main.self_s": ("cli.main",),
    "symgroup.young_symmetrizer.self_s": ("symgroup.young_symmetrizer",),
    "symgroup.convolution.self_s": ("symgroup.convolution",),
    "symgroup.decompose_module.self_s": ("symgroup.decompose_module",),
    "symgroup.projector.self_s": (
        "symgroup.alt_projector", "symgroup.sym_projector", "symgroup.all_permutations",
    ),
    "symgroup.character_table.self_s": ("symgroup.character_table",),
    "glchar.lr_coeff.self_s": ("glchar.lr_coeff",),
    "glchar.powers.self_s": ("glchar.exterior_power", "glchar.symmetric_power"),
    "koszul.wedge.self_s": ("koszul.wedge",),
    "koszul.sym.self_s": ("koszul.sym",),
    "koszul.graded_power_image.self_s": ("koszul.graded_power_image",),
    "koszul.certify_finiteness.self_s": ("koszul.certify_finiteness",),
    "serre.cech_cohomology.self_s": ("serre.cech_cohomology",),
    "serre.verify_serre_duality.self_s": ("serre.verify_serre_duality",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, import_s: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    out: dict[str, tuple[float, str]] = {
        "cli.import_s": (import_s, "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
    for name, names in _CALLS.items():
        out[name] = (calls(names), "count")
    for name, names in _SELF.items():
        out[name] = (self_s(names), "s")
    for module in MODULES:
        own = [n for n in spans if n.startswith(module + ".")]
        out[f"{module}.self_s"] = (self_s(own), "s")
    products = counters.get("symgroup.convolution.products", 0)
    out["symgroup.convolution.products"] = (products, "count")
    out["symgroup.convolution.products_per_s"] = (
        _ratio(products, self_s(("symgroup.convolution",))), "1/s",
    )
    out["glchar.lr_coeff.nonzero_ratio"] = (
        _ratio(counters.get("glchar.lr_coeff.nonzero", 0), calls(("glchar.lr_coeff",))),
        "ratio",
    )
    out["glchar.lr_expand.repeat_ratio"] = (
        _ratio(counters.get("glchar.lr_expand.repeats", 0), calls(("glchar.lr_expand",))),
        "ratio",
    )
    return out
