"""Per-layer spans for the traced run, and the metrics derived from them.

The tracer wraps each layer's functions at the module bindings through which
their callers reach them (``search.tritter_from_modes``, not only
``tritter.tritter_from_modes``), so no file of the program is edited.
``installed()`` swaps the attributes in and puts the originals back on exit:
an untraced command runs the program exactly as shipped.

A span is ``[name, command, parent, start, end, raised]``: the layer-qualified
function name, the index of the CLI command it belongs to, the index of the
enclosing span (or None), ``perf_counter`` times, and whether the call raised.
Spans are kept in memory and written once, by ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict

from gravtritter import cli, modes, search, tritter


def _bindings() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every binding the tracer wraps.

    A binding the program no longer has is skipped, and its counters read 0.
    """
    return [
        ("cli.main", cli, "main"),
        ("cli.schema_validate", getattr(cli, "jsonschema", None), "validate"),
        ("modes.profile_from_json", cli, "profile_from_json"),
        ("search.sweep_chi", cli, "sweep_chi"),
        ("search.find_hom", cli, "find_hom"),
        ("search.rows_to_csv", cli, "rows_to_csv"),
        ("modes.orthonormalize_pair", search, "orthonormalize_pair"),
        # The per-chi steps of sweep_chi and find_hom.
        ("search.row", getattr(search, "_Pipeline", None), "row"),
        (
            "search.signed_coincidence",
            getattr(search, "_Pipeline", None),
            "signed_coincidence",
        ),
        ("tritter.tritter_from_modes", search, "tritter_from_modes"),
        ("fock.evolve_two_photon", search, "evolve_two_photon"),
        ("fock.trace_out_third", search, "trace_out_third"),
        ("fock.negativity", search, "negativity"),
        ("fock.negativity_lower_bound", search, "negativity_lower_bound"),
        ("fock.hom_record", search, "hom_record"),
        ("modes.inner_product", tritter, "inner_product"),
        ("modes.redshift_transform", tritter, "redshift_transform"),
        ("tritter.angles_from_overlaps", tritter, "angles_from_overlaps"),
        ("tritter.build_tritter", tritter, "build_tritter"),
        # Calls inside modes itself (norm, Gram-Schmidt), then the two routes.
        ("modes.inner_product", modes, "inner_product"),
        ("modes.inner_product.quad", modes, "quad_vec"),
        ("modes.inner_product.simpson", modes, "_piecewise_inner"),
    ]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.command, stack[-1] if stack else None, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr in _bindings():
                original = getattr(owner, attr, None)
                if original is not None:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "command", "parent", "start", "end", "raised"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# Per-layer metrics: name -> unit. Calls and self times are per traced
# command; the rest are as their unit says.
CALLS = [
    "modes.inner_product.quad",
    "modes.inner_product.simpson",
    "modes.orthonormalize_pair",
    "tritter.tritter_from_modes",
    "fock.evolve_two_photon",
    "fock.trace_out_third",
    "fock.negativity",
    "fock.negativity_lower_bound",
    "fock.hom_record",
]
SELF_TIMES = CALLS + [
    "modes.redshift_transform",
    "tritter.angles_from_overlaps",
    "tritter.build_tritter",
    "search.sweep_chi",
    "search.find_hom",
    "search.rows_to_csv",
    "cli.main",
    "cli.schema_validate",
]
PER_LAYER_UNITS = {
    **{f"{name}.calls": "calls/cmd" for name in CALLS},
    **{f"{name}.self_s": "s/cmd" for name in SELF_TIMES},
    "modes.inner_product.quad.wall_share": "ratio",
    "modes.errors": "count",
    "tritter.overlaps_per_tritter": "calls",
    "search.coincidence_evals": "calls/cmd",
    "search.evals_per_root": "calls",
    "search.candidates": "count/cmd",
    "search.roots_kept_ratio": "ratio",
    "search.rows_failed": "count",
    "cli.config_bytes": "bytes/cmd",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], traced: list, untraced: list) -> dict:
    """Per-layer metrics from the spans of the traced commands.

    ``traced`` and ``untraced`` are the run's command records (the same
    configs, run once each way); each has ``wall``, ``exit_code``, ``roots``,
    ``rows_failed`` and ``config_bytes``.
    """
    calls = Counter(span[0] for span in spans)
    child_time = defaultdict(float)
    for name, _cmd, parent, start, end, _raised in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, _cmd, _parent, start, end, _raised) in enumerate(spans):
        self_time[name] += end - start - child_time[index]

    def parent_name(span):
        return spans[span[2]][0] if span[2] is not None else None

    def layer(name):
        return name.split(".")[0] if name else None

    overlaps_in_tritter = sum(
        1
        for span in spans
        if span[0] == "modes.inner_product"
        and parent_name(span) == "tritter.tritter_from_modes"
    )
    candidates = sum(
        1
        for span in spans
        if span[0] == "search.row" and parent_name(span) == "search.find_hom"
    )
    modes_errors = sum(
        1
        for span in spans
        if span[5] and layer(span[0]) == "modes" and layer(parent_name(span)) != "modes"
    )
    n = len(traced)
    roots = sum(rec["roots"] for rec in traced)
    values = {
        **{f"{name}.calls": calls[name] / n for name in CALLS},
        **{f"{name}.self_s": self_time[name] / n for name in SELF_TIMES},
        "modes.inner_product.quad.wall_share": _ratio(
            self_time["modes.inner_product.quad"], sum(rec["wall"] for rec in traced)
        ),
        "modes.errors": modes_errors,
        "tritter.overlaps_per_tritter": _ratio(
            overlaps_in_tritter, calls["tritter.tritter_from_modes"]
        ),
        "search.coincidence_evals": calls["search.signed_coincidence"] / n,
        "search.evals_per_root": _ratio(calls["search.signed_coincidence"], roots),
        "search.candidates": candidates / n,
        "search.roots_kept_ratio": _ratio(roots, candidates),
        "search.rows_failed": sum(rec["rows_failed"] for rec in traced),
        "cli.config_bytes": statistics.fmean(rec["config_bytes"] for rec in traced),
        "cli.exit_nonzero": sum(rec["exit_code"] != 0 for rec in traced),
        "trace.overhead_ratio": statistics.median(rec["wall"] for rec in traced)
        / statistics.median(rec["wall"] for rec in untraced),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
