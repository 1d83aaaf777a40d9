"""Command-line front end: chi, tritter, evolve, sweep, find-hom, nogo.

Every subcommand reads a JSON config (``--config``), validates it against a
schema that rejects unknown keys, and emits a JSON report or a CSV table
with a reproducibility header carrying the library version and the config.
Both show a tabulated mode as its ``points`` and the ``sha256`` of its
float64 ``omega``, ``re``, ``im``.  Schemas compile to validators at import.

Exit codes: 0 success, 2 schema violation, 3 domain/numerical error,
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import jsonschema
import numpy as np
from jsonschema.validators import Draft202012Validator

from . import __version__
from .errors import GravTritterError
from .fock import (
    evolve_two_photon,
    hom_record,
    negativity,
    negativity_lower_bound,
    trace_out_third,
)
from .geometry import StaticSchwarzschildConfig, schwarzschild_chi, weak_field_chi
from .modes import orthonormalize_pair, profile_from_json
from .search import (
    HomRoot,
    SweepSpec,
    find_hom,
    rows_to_csv,
    rows_to_json,
    sweep_chi,
)
from .tritter import (
    TritterAngles,
    build_tritter,
    mixer_to_json,
    nogo_normalization,
    tritter_from_modes,
    unitarity_residual,
)

log = logging.getLogger("gravtritter")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_OUTPUT = 4
_NOGO_TOL = 1e-12  # a commutator norm this close to 1 allows a unitary shift

_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM}

PROFILE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "gaussian"},
                "omega0": _NUM,
                "sigma": _NUM,
                "phase": _NUM,
            },
            "required": ["kind", "omega0", "sigma"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "comb"},
                "peaks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 4,
                        "maxItems": 4,
                        "items": _NUM,
                    },
                },
            },
            "required": ["kind", "peaks"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "tabulated"},
                "omega": _NUM_ARRAY,
                "re": _NUM_ARRAY,
                "im": _NUM_ARRAY,
            },
            "required": ["kind", "omega", "re", "im"],
            "additionalProperties": False,
        },
    ]
}

CHI_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"r_s": _NUM, "r_A": _NUM, "r_B": _NUM},
            "required": ["r_s", "r_A", "r_B"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"g": _NUM, "h": _NUM, "c": _NUM},
            "required": ["g", "h"],
            "additionalProperties": False,
        },
    ]
}

NOGO_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"chi": _NUM},
            "required": ["chi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"chi_grid": {"type": "array", "items": _NUM, "minItems": 1}},
            "required": ["chi_grid"],
            "additionalProperties": False,
        },
    ]
}

TRITTER_SCHEMA = {
    "type": "object",
    "properties": {
        "mode1": PROFILE_SCHEMA,
        "mode2": PROFILE_SCHEMA,
        "chi": _NUM,
        "orthonormalize": {"type": "boolean"},
    },
    "required": ["mode1", "mode2", "chi"],
    "additionalProperties": False,
}

EVOLVE_SCHEMA = {
    "oneOf": [
        TRITTER_SCHEMA,
        {
            "type": "object",
            "properties": {
                "angles": {
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "items": _NUM,
                },
            },
            "required": ["angles"],
            "additionalProperties": False,
        },
    ]
}

SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "mode1": PROFILE_SCHEMA,
        "mode2": PROFILE_SCHEMA,
        "chi_lo": _NUM,
        "chi_hi": _NUM,
        "grid": {"type": "integer", "minimum": 2},
        "hom_tol": _NUM,
        "population_floor": _NUM,
    },
    "required": ["mode1", "mode2", "chi_lo", "chi_hi", "grid"],
    "additionalProperties": False,
}


_ITEMS = Draft202012Validator.VALIDATORS["items"]


def _items(validator, items, instance, schema):
    """``items``, with arrays of plain JSON numbers checked in one pass.

    ``type(x) in (int, float)`` is JSON Schema's ``number`` for parsed JSON
    (it excludes ``bool``); any other array goes through jsonschema's own
    per-item ``items``, which builds the errors.
    """
    if items == _NUM and isinstance(instance, list):
        if {int, float}.issuperset(map(type, instance)):
            return
    yield from _ITEMS(validator, items, instance, schema)


# Draft 2020-12 is what ``jsonschema.validate`` picks for these schemas,
# which carry no ``$schema`` key; the metaschema check it repeats on every
# call is a test instead.
_Validator = jsonschema.validators.extend(Draft202012Validator, {"items": _items})
_CHI = _Validator(CHI_SCHEMA)
_NOGO = _Validator(NOGO_SCHEMA)
_TRITTER = _Validator(TRITTER_SCHEMA)
_EVOLVE = _Validator(EVOLVE_SCHEMA)
_SWEEP = _Validator(SWEEP_SCHEMA)


def _configure_logging():
    level = os.environ.get("GRAVTRITTER_LOG", "off").lower()
    if level == "debug":
        logging.basicConfig(level=logging.DEBUG)
    elif level == "info":
        logging.basicConfig(level=logging.INFO)
    else:
        logging.basicConfig(level=logging.CRITICAL + 1)


def _finite_float(text: str) -> float:
    """JSON number or NaN/Infinity literal; only finite doubles pass."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def _overflowed(node) -> bool:
    """Whether a parsed JSON value holds a number literal that became ±inf."""
    if isinstance(node, dict):
        return any(map(_overflowed, node.values()))
    if isinstance(node, list):
        try:  # an array of plain numbers, without a Python call per item
            return not all(map(math.isfinite, node))
        except (TypeError, OverflowError):  # other items, or an int > 1e308
            return any(map(_overflowed, node))
    return isinstance(node, float) and not math.isfinite(node)


def _load_config(path: str, validator: _Validator) -> dict:
    """Parse and validate a config; every number in it must be finite.

    ``NaN``/``Infinity`` literals fail at parse time.  A config with an
    overflowing number such as ``1e400`` is parsed a second time, number by
    number, so that the error names the literal.  The schema error reported
    is the one ``jsonschema.validate`` would raise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, parse_constant=_finite_float)
        if _overflowed(doc):
            json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except (OSError, ValueError) as exc:
        raise _SchemaFailure(f"cannot read config {path}: {exc}") from exc
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise _SchemaFailure(f"config does not match schema: {error.message}")
    return doc


class _SchemaFailure(Exception):
    pass


def _report_head(config: dict) -> dict:
    """Version and config as reports show them: each table by the SHA-256 of
    its numbers as parsed, little-endian float64, so 1, 1.0 and 1e0 agree."""
    shown = dict(config)
    for key, mode in config.items():
        if key in ("mode1", "mode2") and mode["kind"] == "tabulated":
            import hashlib  # not at the top: only a table pays for its import
            raw = [np.asarray(mode[n], "<f8").tobytes() for n in ("omega", "re", "im")]
            shown[key] = {"kind": "tabulated", "points": len(mode["omega"]),
                          "sha256": hashlib.sha256(b"".join(raw)).hexdigest()}
    return {"version": __version__, "config": shown}


def _emit_report(payload: dict, config: dict, out_path: str | None) -> int:
    report = {**_report_head(config), **payload}
    return _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def cmd_chi(args) -> int:
    config = _load_config(args.config, _CHI)
    if "r_s" in config:
        chi = schwarzschild_chi(
            StaticSchwarzschildConfig(config["r_s"], config["r_A"], config["r_B"])
        )
    else:
        kwargs = {"c": config["c"]} if "c" in config else {}
        chi = weak_field_chi(config["g"], config["h"], **kwargs)
    return _emit_report(
        {"chi": chi, "chi_sq": chi * chi, "omega_ratio": 1.0 / (chi * chi)},
        config,
        args.out,
    )


def cmd_nogo(args) -> int:
    config = _load_config(args.config, _NOGO)
    chis = [config["chi"]] if "chi" in config else config["chi_grid"]
    entries = []
    for chi in chis:
        value = nogo_normalization(chi)
        entries.append(
            {
                "chi": chi,
                "commutator_norm": value,
                "unitary_shift_possible": bool(abs(value - 1.0) <= _NOGO_TOL),
            }
        )
        if abs(value - 1.0) > _NOGO_TOL:
            log.info("chi=%s: unitary shift impossible (norm %s)", chi, value)
    return _emit_report({"results": entries}, config, args.out)


def _build_mixer_from_config(config: dict):
    f1 = profile_from_json(config["mode1"])
    f2 = profile_from_json(config["mode2"])
    if config.get("orthonormalize", True):
        f1, f2 = orthonormalize_pair(f1, f2)
    return tritter_from_modes(f1, f2, config["chi"])


def cmd_tritter(args) -> int:
    config = _load_config(args.config, _TRITTER)
    u, angles, rec = _build_mixer_from_config(config)
    return _emit_report(
        {
            "angles": {"theta": angles.theta, "phi": angles.phi, "psi": angles.psi},
            "overlaps": {
                "o11": rec.o11,
                "o22": rec.o22,
                "o21": rec.o21,
                "o12": rec.o12,
                "u12_residual": rec.u12_residual,
            },
            "matrix": mixer_to_json(u),
            "unitarity_residual": unitarity_residual(u),
        },
        config,
        args.out,
    )


def cmd_evolve(args) -> int:
    config = _load_config(args.config, _EVOLVE)
    if "angles" in config:
        theta, phi, psi = config["angles"]
        u = build_tritter(TritterAngles(theta, phi, psi))
        extras = {}
    else:
        u, angles, _rec = _build_mixer_from_config(config)
        extras = {
            "angles": {"theta": angles.theta, "phi": angles.phi, "psi": angles.psi}
        }
    state = evolve_two_photon(u)
    rho = trace_out_third(state, n_max=2)
    rec = hom_record(u)
    return _emit_report(
        {
            **extras,
            "amplitudes": {
                "".join(map(str, occ)): [amp.real, amp.imag]
                for occ, amp in sorted(state.amplitudes.items())
            },
            "reduced_density_matrix": rho.to_json_dict(),
            "negativity": negativity(rho),
            "negativity_lower_bound": negativity_lower_bound(rho),
            "hom": {
                "coefficient": rec.coefficient,
                "rho2020": rec.rho2020,
                "rho0202": rec.rho0202,
                "flag": rec.flag,
            },
        },
        config,
        args.out,
    )


def _sweep_spec(config: dict) -> SweepSpec:
    kwargs = {}
    if "hom_tol" in config:
        kwargs["hom_tol"] = config["hom_tol"]
    if "population_floor" in config:
        kwargs["population_floor"] = config["population_floor"]
    return SweepSpec(
        profile1=profile_from_json(config["mode1"]),
        profile2=profile_from_json(config["mode2"]),
        chi_lo=config["chi_lo"],
        chi_hi=config["chi_hi"],
        grid=config["grid"],
        **kwargs,
    )


def _meta_comment(config: dict) -> str:
    return json.dumps(_report_head(config), sort_keys=True)


def cmd_sweep(args) -> int:
    config = _load_config(args.config, _SWEEP)
    rows = sweep_chi(_sweep_spec(config))
    if args.format == "csv":
        return _emit(rows_to_csv(rows, _meta_comment(config)), args.out)
    return _emit_report({"rows": rows_to_json(rows)}, config, args.out)


def cmd_find_hom(args) -> int:
    config = _load_config(args.config, _SWEEP)
    roots = find_hom(_sweep_spec(config))
    if args.format == "csv":
        return _emit(rows_to_csv(roots, _meta_comment(config), HomRoot), args.out)
    # An empty root list is a valid result, not a failure.
    return _emit_report({"roots": rows_to_json(roots)}, config, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravtritter",
        description=(
            "Model gravitational redshift as a three-mode mixing unitary on "
            "photon wavepackets and search for interference conditions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "chi": ("redshift parameter from geometry", cmd_chi),
        "nogo": ("commutator defect of the naive frequency shift", cmd_nogo),
        "tritter": ("mixer matrix from a mode pair and chi", cmd_tritter),
        "evolve": ("two-photon state, reduced state, negativity", cmd_evolve),
        "sweep": ("pipeline table over a chi grid", cmd_sweep),
        "find-hom": ("locate interference points on a chi grid", cmd_find_hom),
    }
    for name, (help_text, func) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=["csv", "json"], default="csv" if name in
            ("sweep", "find-hom") else "json",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _SchemaFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except GravTritterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
