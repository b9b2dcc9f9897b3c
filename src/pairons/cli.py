"""Command-line front ends.

`lmg`  - two-level quasispin model: spectrum, zeros, pairons, scan,
         collapse, crossings.
`bcs`  - multi-level boson pairing model: spectrum, pairons, ellipsoid.

Both tools emit a single table per invocation, as CSV (default) or as a
JSON document with a meta header; floats are printed with 17 significant
digits and repeated runs give byte-identical output (`bcs` output can
change with the number of BLAS threads).  `--threads` (or
PAIRONS_THREADS) is validated and has no effect.  Exit codes: 0 success,
2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import re
import sys
from itertools import chain, compress, repeat

import numpy as np

from . import __version__
from .bosonbcs import (BosonModel, _ranked_spectrum, boson_eigenstate,
                       ellipsoid_axes, extract_boson_pairons, verify_ellipsoid)
from .collapse import (LINE_DIAGONAL, LINE_SUM, SINGULAR_MARGIN,
                       TrajectorySpec, anchor_profile, collapse_rows,
                       crossing_points, find_collapses, scan_trajectory,
                       total_collapse_candidates)
from .errors import InconsistentPaironsError, PaironsError
from .paironmap import (PaironSet, extract_pairons, pairon_from_u,
                        pairon_sites, zero_sites)
from .sphere import angle_columns, coordinates
from .spin import ModelParams, build_hamiltonian, diagonalize

FLOAT_FMT = "%.17g"
ENV_THREADS = "PAIRONS_THREADS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

MAP_CHECK_TOL = 1e-9


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _code(kind: type) -> str:
    """The % conversion of a CSV cell of a type: FLOAT_FMT for a float, %d
    for an integer or bool, %s (str) for anything else."""
    if issubclass(kind, float):
        return FLOAT_FMT
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%s"


def _cell(value) -> str:
    return _code(type(value)) % (value,)


# a character without which csv.writer leaves a field unquoted
_CSV_QUOTED = re.compile('[,"\r\n]').search


def _csv_field(text: str, lone: bool) -> str:
    """A field as csv.writer writes it, as the one field of its row (lone)
    or beside others: a text with no comma, quote, CR or LF as it is, but
    for the lone empty field, which csv quotes."""
    if not (_CSV_QUOTED(text) or lone and not text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [text] if lone else [text, ""])
    return buf.getvalue()[:-1 if lone else -2]


def _json_value(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return FLOAT_FMT % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items()
        ) + "}"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _column(values: list, as_json: bool, lone: bool) -> tuple[str, list]:
    """The % conversion of a table column and the values it converts,
    which give each cell's text as csv.writer writes the _cell of the
    value (lone: the column is its table's only one), or as _json_value.

    A float column keeps FLOAT_FMT and an integer or bool one %d, except
    that in JSON a non-finite float or a bool makes the column mixed.  A
    str column (in JSON also a bool one) is converted once per distinct
    value; a mixed one is first converted cell by cell, by _cell (then
    as a str column) or _json_value."""
    kinds = set(map(type, values))
    codes = set(map(_code, kinds))
    if codes == {FLOAT_FMT} and (not as_json
                                 or all(map(math.isfinite, values))):
        return FLOAT_FMT, values
    if codes == {"%d"} and not (as_json and bool in kinds):
        return "%d", values
    if not kinds <= ({str, bool} if as_json else {str}):
        if as_json:
            return "%s", list(map(_json_value, values))
        values = list(map(_cell, values))
    text = {v: _json_value(v) if as_json else _csv_field(v, lone)
            for v in set(values)}
    if any(k != v for k, v in text.items()):
        values = list(map(text.__getitem__, values))
    return "%s", values


def _rows_text(columns: list[list], as_json: bool, shared: list[list],
               counts: list[int]) -> str:
    """The rows of a table, as CSV lines or as JSON's array of rows, from
    its columns (_column) by one % over the row's format repeated once per
    row.

    With shared columns, the rows come in groups of counts[g] rows, which
    begin with the cells of the shared columns' values g, formatted once
    per group; the columns hold the rest of each row.
    """
    sep = ", " if as_json else ","
    # a group without rows prints none of its cells
    shared = [list(compress(column, counts)) for column in shared]
    counts = list(filter(None, counts))
    lone = len(shared) + len(columns) == 1
    cols = [_column(c, as_json, lone) for c in columns]
    if shared:
        lead = [_column(c, as_json, lone) for c in shared]
        line = sep.join(code for code, _ in lead)
        texts = [line % cells for cells in zip(*(v for _, v in lead))]
        cols.insert(0, ("%s", list(chain.from_iterable(map(repeat, texts,
                                                            counts)))))
    row = sep.join(code for code, _ in cols)
    n = len(cols[0][1])
    flat = tuple(chain.from_iterable(zip(*(v for _, v in cols))))
    if as_json:
        return "[" + ", ".join([f"[{row}]"] * n) % flat + "]"
    return (row + "\n") * n % flat


def _emit(args, command: str, columns: dict[str, list],
          extra_meta: dict | None = None,
          shared: dict[str, list] | None = None,
          counts: list[int] = ()) -> None:
    """Write one table, given by its columns, to --out or stdout, as CSV
    or JSON.  With shared columns, first in the table, its rows come in
    groups of counts[g] rows that share their values g (_rows_text).  An
    --out file that cannot be opened or written is a usage error."""
    shared = shared or {}
    names = [*shared, *columns]
    as_json = args.format == "json"
    rows = _rows_text(list(columns.values()), as_json, list(shared.values()),
                      counts)
    if not as_json:
        text = ",".join(_csv_field(name, len(names) == 1)
                        for name in names) + "\n" + rows
    else:
        skip = {"config", "out", "threads", "func", "command", "format",
                "_fields", "_required"}
        config = {key.rstrip("_"): getattr(args, key)
                  for key in sorted(vars(args)) if key not in skip}
        meta = {
            "tool": "pairons",
            "version": __version__,
            "command": command,
            "seed": getattr(args, "seed", 0),
            "config": config,
        }
        if extra_meta:
            meta.update(extra_meta)
        text = (f'{{"meta": {_json_value(meta)}, '
                f'"columns": {_json_value(names)}, "rows": {rows}}}\n')
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out file: {exc}") from None


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

def _levels_value(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("--levels needs a comma-separated list of energies")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --levels entry: {exc}") from None


# the values argparse accepts for a flag
_CHOICES = {"line": (LINE_SUM, LINE_DIAGONAL), "format": ("csv", "json")}


def _positive(message: str):
    """The normalizer of an integer setting that must be at least 1."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise UsageError(message)
        return value
    return parse


def _format_value(text: str) -> str:
    if text not in _CHOICES["format"]:
        raise UsageError(f"unknown format {text!r}")
    return text


# dest -> (normalizer of the flag's text, the built-in default as that
# text); a None default means no value, which is a usage error where the
# command requires the setting
_FIELDS: dict[str, tuple] = {
    "j": (_positive("--j must be a positive integer"), None),
    "gx": (float, None),
    "gy": (float, None),
    "eps": (float, "1.0"),
    "line": (str, LINE_SUM),
    "line_sum": (float, "10.0"),
    "from_": (float, None),
    "to": (float, None),
    "steps": (int, None),
    "state": (int, "0"),
    "levels": (_levels_value, None),
    "gamma": (float, None),
    "n": (int, None),
    "slice": (int, "1"),
    "seed": (int, "0"),
    "threads": (_positive("--threads must be at least 1"), "1"),
    "format": (_format_value, "csv"),
    "out": (str, None),
}

# the settings of every command, after its own
_COMMON = ("seed", "threads", "format", "out")


def _flag(dest: str) -> str:
    """The command-line flag of a _FIELDS dest: from_ -> --from,
    line_sum -> --line-sum."""
    return "--" + dest.rstrip("_").replace("_", "-")


def _settings(fields: list[str]) -> list[str]:
    """A command's settings: its own fields, then the _COMMON ones."""
    return list(dict.fromkeys([*fields, *_COMMON]))


def _add_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in _settings(names):
        parser.add_argument(_flag(name), dest=name,
                            choices=_CHOICES.get(name))
    parser.add_argument("--config", default=None)


def _config_table(path: str) -> dict[str, str]:
    """The settings of a JSON config file by dest, each as the text its
    flag would take: a scalar as str(value), a list joined by commas
    (--levels); a null is left out, as an absent key.  An unreadable or
    non-UTF-8 file, bad JSON, a document that is not an object and an
    unknown key are usage errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    table = {}
    for key, value in raw.items():
        dest = "from_" if key == "from" else key.replace("-", "_")
        if dest not in _FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        if isinstance(value, list):
            table[dest] = ",".join(map(str, value))
        elif value is not None:
            table[dest] = str(value)
    return table


def _resolve(args: argparse.Namespace) -> None:
    """Set each setting of the command from the command line, else the
    config file, else PAIRONS_THREADS (--threads only), else its built-in
    default, parsed by its _FIELDS normalizer from that text.  A setting
    with none of them stays None, or is a usage error when required."""
    config = _config_table(args.config) if args.config else {}
    for dest in _settings(args._fields):
        parse, default = _FIELDS[dest]
        text, name = getattr(args, dest), _flag(dest)
        if text is None:
            text = config.get(dest)
        if text is None and dest == "threads" and ENV_THREADS in os.environ:
            text, name = os.environ[ENV_THREADS], ENV_THREADS
        if text is None:
            text = default
        if text is None:
            if dest in args._required:
                raise UsageError(f"missing required flag {name}")
            continue
        try:
            setattr(args, dest, parse(text))
        except ValueError as exc:
            raise UsageError(f"bad value for {name}: {exc}") from None


def _table(names: list[str], rows: list[list]) -> dict[str, list]:
    """The columns of a table of rows, by name."""
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def _built(factory, **kwargs):
    """factory(**kwargs), with the ValueError of a bad parameter raised as
    a UsageError."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_state_index(state: int, dim: int) -> None:
    if not 0 <= state < dim:
        raise UsageError(f"--state must be in 0..{dim - 1}, got {state}")


# ---------------------------------------------------------------------------
# Zero/pairon tables for a single parameter point
# ---------------------------------------------------------------------------

def _map_recheck(pairons: PaironSet) -> None:
    """Re-derive each pairon from its emitted zero site; small mismatch
    means the bidirectional map broke somewhere upstream."""
    sites = pairon_sites(pairons.energies, pairons.t)
    for e, z in zip(pairons.energies, sites.tolist()):
        if z == 0 or cmath.isinf(z):
            continue  # pole rows carry their own flag
        back = pairon_from_u(z ** 2, pairons.t)
        if abs(back - e) > MAP_CHECK_TOL * max(1.0, abs(e)):
            raise InconsistentPaironsError(
                f"zero site round trip moved pairon {e} to {back}")


def _zero_rows(pairons: PaironSet) -> list[list]:
    """Site rows (alpha, theta, phi, multiplicity, flags) of zero_sites,
    by alpha with the seniority-only sites (alpha = -1) last."""
    sites = zero_sites(pairons)
    theta, phi = angle_columns(coordinates([s[0] for s in sites]).tolist())
    rows = [[alpha, th, ph, mult, ";".join(sorted(flags.union(pairons.flags)))]
            for (_, alpha, mult, flags), th, ph in zip(sites, theta, phi)]
    rows.sort(key=lambda r: (r[0] < 0, r[0], r[1], r[2]))
    return rows


def _pairon_rows(pairons: PaironSet) -> list[list]:
    sites = pairon_sites(pairons.energies, pairons.t)
    texts = _flag_texts(pairons.flags, 0)
    return [[alpha, e.real, e.imag, texts[z == 0 or cmath.isinf(z)]]
            for alpha, (e, z) in enumerate(zip(pairons.energies,
                                               sites.tolist()))]


# ---------------------------------------------------------------------------
# lmg subcommands
# ---------------------------------------------------------------------------

def _cmd_lmg_spectrum(args) -> int:
    params = _built(ModelParams.from_gammas, j=args.j, gamma_x=args.gx,
                    gamma_y=args.gy, eps=args.eps)
    pairs = diagonalize(build_hamiltonian(params))
    rows = [[p.index, p.energy, p.state.parity, int(p.degenerate)]
            for p in pairs]
    _emit(args, "lmg spectrum",
          _table(["index", "energy", "parity", "degenerate"], rows))
    return EXIT_OK


def _cmd_lmg_point(command: str, columns: list[str], rows_of, args) -> int:
    """lmg zeros or lmg pairons: the rows_of table of one state's checked
    pairons, with the extraction's diagnostics in the JSON meta."""
    params = _built(ModelParams.from_gammas, j=args.j, gamma_x=args.gx,
                    gamma_y=args.gy, eps=args.eps)
    _check_state_index(args.state, 2 * args.j + 1)
    pairons, diag = extract_pairons(params, state_index=args.state)
    _map_recheck(pairons)
    _emit(args, command, _table(columns, rows_of(pairons)), extra_meta={
        "t": diag.t,
        "energy": diag.energy,
        "nu": pairons.nu,
        "reconstruction_fidelity": diag.reconstruction_fidelity,
        "reconstruction_residual": diag.reconstruction_residual,
    })
    return EXIT_OK


@functools.cache
def _flag_texts(flags: tuple[str, ...], seniority: int) -> tuple[str, str]:
    """The flags cells of a scan sample's records, away from a pole and
    at one: its set's flags, with "seniority" on a sample of nonzero
    seniority and "pole" at a pole, sorted and joined by ";"."""
    base = {*flags, *("seniority",) * bool(seniority)}
    return ";".join(sorted(base)), ";".join(sorted({*base, "pole"}))


def _cmd_lmg_scan(args) -> int:
    _check_state_index(args.state, 2 * args.j + 1)
    spec = _built(TrajectorySpec, j=args.j, start=args.from_, stop=args.to,
                  steps=args.steps, line=args.line, line_sum=args.line_sum,
                  state_index=args.state, eps=args.eps)
    table = scan_trajectory(spec)
    for gx, reason in table.failures:
        print(f"skipped gx={gx:.6g}: {reason}", file=sys.stderr)
    # the rows come in one group per sample: its cells, then one row of
    # each of its pairons, straight from the table's columns
    live = table.live
    sample, alpha = np.nonzero(live)
    pairons, nu = table.pairons[live], table.nu.tolist()
    theta, phi = angle_columns(table.sites[live].tolist())
    flags = np.array([_flag_texts(f, n) for f, n in zip(table.flags, nu)],
                     dtype=object).reshape(-1, 2)
    _emit(args, "lmg scan", {
        "alpha": alpha.tolist(),
        "re_e": pairons.real.tolist(),
        "im_e": pairons.imag.tolist(),
        "theta": theta,
        "phi": phi,
        "multiplicity": table.multiplicity[live].tolist(),
        "branch_id": table.branch[live].tolist(),
        "flags": flags[sample, table.pole[live].astype(int)].tolist(),
    }, shared={
        "gx": table.gamma_x.tolist(),
        "gy": table.gamma_y.tolist(),
        "t": table.t.tolist(),
        "state_index": [spec.state_index] * len(nu),
        "energy": table.energy.tolist(),
    }, counts=live.sum(axis=1).tolist())
    return EXIT_OK


def _cmd_lmg_collapse(args) -> int:
    if args.state != 0:
        raise UsageError("--state must be 0: the collapse points and zero "
                         "patterns are the ground state's")
    if args.eps < 0 or (args.line == LINE_SUM and args.line_sum <= 0):
        raise UsageError("--eps and --line-sum must be positive: the "
                         "collapse points are the ground state's for "
                         "eps > 0 on gx + gy = c > 0")
    if args.line == LINE_SUM:
        lo_default = SINGULAR_MARGIN + 0.049
        hi_default = args.line_sum - lo_default
    else:
        lo_default, hi_default = 0.05, 10.0
    start = args.from_ if args.from_ is not None else lo_default
    stop = args.to if args.to is not None else hi_default
    steps = args.steps if args.steps is not None else 1200
    spec = _built(TrajectorySpec, j=args.j, start=start, stop=stop,
                  steps=steps, line=args.line, line_sum=args.line_sum,
                  state_index=args.state, eps=args.eps)

    if args.line == LINE_DIAGONAL:
        # lam = 0 on the whole line: every sample is a Dicke state, so the
        # only collapse is the total one, checked at the midpoint
        found = total_collapse_candidates(spec)
    else:
        found = find_collapses(anchor_profile(spec))

    rows = [[r.point.k, r.point.branch, r.point.gamma_x,
             r.candidate.gamma_x, abs(r.candidate.gamma_x - r.point.gamma_x),
             r.candidate.anchor_value, "+".join(map(str, r.pattern)),
             int(r.pattern_ok)]
            for r in collapse_rows(spec, found)]
    _emit(args, "lmg collapse", _table(
        ["k", "branch", "gx_analytic", "gx_detected", "delta",
         "anchor_value", "pattern", "pattern_ok"], rows))
    return EXIT_OK


def _cmd_lmg_crossings(args) -> int:
    rows = []
    for cp in crossing_points(args.j):
        h = build_hamiltonian(_built(
            ModelParams.from_gammas, j=args.j, gamma_x=cp.gamma_x,
            gamma_y=cp.gamma_x, eps=args.eps))
        norm = h.norm  # refuses an overflowing H before any arithmetic
        # lam = 0 on the diagonal, so H is diagonal and its diagonal is its
        # spectrum; a difference that overflows to inf is not a crossing
        with np.errstate(over="ignore"):
            gap = float(np.abs(h.diag[0::2, None] - h.diag[1::2]).min())
        pair_text = "|".join(f"{m}:{mp}" for m, mp in cp.pairs)
        rows.append([cp.k, cp.gamma_x, pair_text, gap,
                     int(gap <= 1e-10 * norm)])
    _emit(args, "lmg crossings",
          _table(["k", "gx", "pairs", "min_gap", "verified"], rows))
    if not all(row[-1] for row in rows):
        print("numerical failure: a predicted crossing was not degenerate",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# bcs subcommands
# ---------------------------------------------------------------------------

def _cmd_bcs_spectrum(args) -> int:
    model = _built(BosonModel, levels=args.levels, gamma=args.gamma,
                   n_bosons=args.n)
    blocks, _, values, ranks = _ranked_spectrum(model)
    rows = [[i, float(values[s][c]), "".join(map(str, blocks[s][0])), int(f)]
            for i, (s, c, f) in enumerate(zip(*ranks))]
    _emit(args, "bcs spectrum",
          _table(["index", "energy", "seniority", "degenerate"], rows))
    return EXIT_OK


def _bcs_state(args):
    model = _built(BosonModel, levels=args.levels, gamma=args.gamma,
                   n_bosons=args.n)
    if not 1 <= args.slice <= model.n_levels - 1:
        raise UsageError(f"--slice must be in 1..{model.n_levels - 1}")
    _check_state_index(args.state, model.dim)
    return boson_eigenstate(model, args.state)


def _cmd_bcs_pairons(args) -> int:
    state = _bcs_state(args)
    pairons = extract_boson_pairons(state, axis=args.slice)
    # a certified set has no pairon at infinity, so no flag
    rows = [[alpha, e.real, e.imag, ""]
            for alpha, e in enumerate(pairons.energies)]
    _emit(args, "bcs pairons",
          _table(["alpha", "re_e", "im_e", "flags"], rows), extra_meta={
              "energy": state.energy,
              "seniority": list(state.seniority),
              "energy_sum": pairons.energy_sum,
              "reconstruction_fidelity": pairons.reconstruction_fidelity,
              "n_at_infinity": 0,
          })
    return EXIT_OK


def _cmd_bcs_ellipsoid(args) -> int:
    state = _bcs_state(args)
    n_points = args.steps if args.steps is not None else 100
    if n_points < 1:
        raise UsageError("--steps must be at least 1")
    pairons = extract_boson_pairons(state, axis=args.slice)
    rows = []
    for alpha, e in enumerate(pairons.energies):
        residual = verify_ellipsoid(state, e, n_points=n_points,
                                    seed=args.seed)
        axes = ellipsoid_axes(state.model, e)
        for axis, xi2 in enumerate(axes, start=1):
            rows.append([alpha, e.real, e.imag, axis,
                         complex(xi2).real, complex(xi2).imag, residual])
    _emit(args, "bcs ellipsoid", _table(
        ["alpha", "re_e", "im_e", "axis", "re_xi2", "im_xi2",
         "max_residual"], rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parsers and entry points
# ---------------------------------------------------------------------------

_LMG_COMMANDS = {
    "spectrum": (["j", "gx", "gy", "eps"], ["j", "gx", "gy"],
                 _cmd_lmg_spectrum),
    "zeros": (["j", "gx", "gy", "eps", "state"], ["j", "gx", "gy"],
              functools.partial(_cmd_lmg_point, "lmg zeros",
                                ["alpha", "theta", "phi", "multiplicity",
                                 "flags"], _zero_rows)),
    "pairons": (["j", "gx", "gy", "eps", "state"], ["j", "gx", "gy"],
                functools.partial(_cmd_lmg_point, "lmg pairons",
                                  ["alpha", "re_e", "im_e", "flags"],
                                  _pairon_rows)),
    "scan": (["j", "from_", "to", "steps", "line", "line_sum", "state",
              "eps", "seed", "threads"],
             ["j", "from_", "to", "steps"], _cmd_lmg_scan),
    "collapse": (["j", "from_", "to", "steps", "line", "line_sum", "state",
                  "eps", "seed", "threads"], ["j"], _cmd_lmg_collapse),
    "crossings": (["j", "eps"], ["j"], _cmd_lmg_crossings),
}

_BCS_COMMANDS = {
    "spectrum": (["levels", "gamma", "n"], ["levels", "gamma", "n"],
                 _cmd_bcs_spectrum),
    "pairons": (["levels", "gamma", "n", "state", "slice"],
                ["levels", "gamma", "n"], _cmd_bcs_pairons),
    "ellipsoid": (["levels", "gamma", "n", "state", "slice", "steps",
                   "seed"], ["levels", "gamma", "n"], _cmd_bcs_ellipsoid),
}


def _build_parser(prog: str, commands: dict,
                  argv: list[str]) -> argparse.ArgumentParser:
    """The parser of a tool.  Every subcommand is registered, so the help
    and the errors list them all, but only the one argv runs (its first
    word that is not an option) gets its flags."""
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--version", action="version",
                        version=f"pairons {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = next((a for a in argv if not a.startswith("-")), None)
    for name, (fields, required, func) in commands.items():
        p = sub.add_parser(name)
        if name == wanted:
            _add_flags(p, fields)
            p.set_defaults(func=func, _fields=fields, _required=required)
    return parser


def _run(prog: str, commands: dict, argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(prog, commands, argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        _resolve(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PaironsError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the shutdown
        # traceback and report the truncated write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def lmg_main(argv=None) -> int:
    return _run("lmg", _LMG_COMMANDS, argv)


def bcs_main(argv=None) -> int:
    return _run("bcs", _BCS_COMMANDS, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(lmg_main())
