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
from itertools import islice

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
from .spin import (PARITY_EVEN, PARITY_ODD, ModelParams, build_hamiltonian,
                   diagonalize)

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

def _cell_format(value) -> str:
    """The % conversion of one CSV cell: FLOAT_FMT for a float, %d for an
    integer, %s (str) for anything else."""
    if isinstance(value, float):
        return FLOAT_FMT
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%s"


def _cell(value) -> str:
    return _cell_format(value) % (value,)


# a character that makes csv quote the field that holds it
_CSV_QUOTED = re.compile('[,"\r\n]').search


def _csv_text(columns: list[str], rows: list[list],
              leads: list[list] | None = None) -> str:
    """The CSV of a table, as csv.writer writes the _cell of each value.

    With leads, the table comes in groups: rows[g] holds the rows of group
    g, each of at least one cell, and every one of them follows the cells
    of leads[g], which are formatted once per group.  Each row (or the
    rest of it after its lead) is formatted by one % string, joined from
    the _cell_format of its values and built once per sequence of value
    types.  A row that csv would quote (a str value holding a comma,
    quote, CR or LF, or a lone empty value) is written by csv.writer.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    formats: dict[tuple, tuple[str, list[int]]] = {}

    def template(cells) -> tuple[str, list[int]]:
        kinds = tuple(map(type, cells))
        if kinds not in formats:
            codes = [_cell_format(v) for v in cells]
            formats[kinds] = (",".join(codes),
                              [k for k, c in enumerate(codes) if c == "%s"])
        return formats[kinds]

    def quoted(cells, text_cells) -> bool:
        for k in text_cells:
            if _CSV_QUOTED(str(cells[k])):
                return True
        return False

    for lead, group in zip(leads, rows) if leads is not None else [([], rows)]:
        line, text_cells = template(lead)
        head = line % tuple(lead) + "," if lead else ""
        lead_quoted = quoted(lead, text_cells)
        for row in group:
            line, text_cells = template(row)
            if lead_quoted or text_cells and (
                    quoted(row, text_cells)
                    or not lead and line == "%s" and str(row[0]) == ""):
                writer.writerow([_cell(v) for v in [*lead, *row]])
            else:
                buf.write(head + line % tuple(row) + "\n")
    return buf.getvalue()


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


def _emit(args, command: str, columns: list[str], rows: list[list],
          extra_meta: dict | None = None,
          leads: list[list] | None = None) -> None:
    """Write one table to --out or stdout, as CSV or JSON; with leads, the
    rows come in groups that share their leading cells (_csv_text).  An
    --out file that cannot be opened or written is a usage error."""
    if args.format == "csv":
        text = _csv_text(columns, rows, leads)
    else:
        if leads is not None:
            rows = [[*lead, *row] for lead, group in zip(leads, rows)
                    for row in group]
        config = {}
        skip = {"config", "out", "threads", "func", "command", "format",
                "_fields", "_required"}
        for key in sorted(vars(args)):
            if key in skip:
                continue
            config[key.rstrip("_")] = getattr(args, key)
        meta = {
            "tool": "pairons",
            "version": __version__,
            "command": command,
            "seed": getattr(args, "seed", 0),
            "config": config,
        }
        if extra_meta:
            meta.update(extra_meta)
        doc = {"meta": meta, "columns": columns, "rows": rows}
        text = _json_value(doc) + "\n"
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
    rows = []
    for alpha, (e, z) in enumerate(zip(pairons.energies, sites.tolist())):
        fl = set(pairons.flags)
        if z == 0 or cmath.isinf(z):
            fl.add("pole")
        rows.append([alpha, e.real, e.imag, ";".join(sorted(fl))])
    return rows


# ---------------------------------------------------------------------------
# lmg subcommands
# ---------------------------------------------------------------------------

def _cmd_lmg_spectrum(args) -> int:
    params = _built(ModelParams.from_gammas, j=args.j, gamma_x=args.gx,
                    gamma_y=args.gy, eps=args.eps)
    pairs = diagonalize(build_hamiltonian(params))
    rows = [[p.index, p.energy, p.state.parity, int(p.degenerate)]
            for p in pairs]
    _emit(args, "lmg spectrum", ["index", "energy", "parity", "degenerate"],
          rows)
    return EXIT_OK


def _cmd_lmg_point(command: str, columns: list[str], rows_of, args) -> int:
    """lmg zeros or lmg pairons: the rows_of table of one state's checked
    pairons, with the extraction's diagnostics in the JSON meta."""
    params = _built(ModelParams.from_gammas, j=args.j, gamma_x=args.gx,
                    gamma_y=args.gy, eps=args.eps)
    _check_state_index(args.state, 2 * args.j + 1)
    pairons, diag = extract_pairons(params, state_index=args.state)
    _map_recheck(pairons)
    _emit(args, command, columns, rows_of(pairons), extra_meta={
        "t": diag.t,
        "energy": diag.energy,
        "nu": pairons.nu,
        "reconstruction_fidelity": diag.reconstruction_fidelity,
        "reconstruction_residual": diag.reconstruction_residual,
    })
    return EXIT_OK


SCAN_COLUMNS = ["gx", "gy", "t", "state_index", "energy", "alpha", "re_e",
                "im_e", "theta", "phi", "multiplicity", "branch_id", "flags"]


def _scan_rows(table) -> tuple[list[list], list[list[tuple]]]:
    """The rows of a ScanTable in groups, one per sample: the sample's
    cells (gx, gy, t, state_index, energy) and the rest of the row of
    each of its pairons (alpha, re_e, im_e, theta, phi, multiplicity,
    branch_id, flags), taken from the table's columns."""
    live = table.live
    sample, alpha = np.nonzero(live)
    pairons, flags, nu = table.pairons[live], table.flags, table.nu.tolist()
    rows = iter(zip(
        alpha.tolist(), pairons.real.tolist(), pairons.imag.tolist(),
        *angle_columns(table.sites[live].tolist()),
        table.multiplicity[live].tolist(), table.branch[live].tolist(),
        [_flag_text(flags[s], nu[s], pole)
         for s, pole in zip(sample.tolist(), table.pole[live].tolist())]))
    leads = [[gx, gy, t, table.spec.state_index, energy]
             for gx, gy, t, energy in zip(
                 table.gamma_x.tolist(), table.gamma_y.tolist(),
                 table.t.tolist(), table.energy.tolist())]
    return leads, [list(islice(rows, n)) for n in live.sum(axis=1).tolist()]


@functools.cache
def _flag_text(flags: tuple[str, ...], seniority: int, pole: bool) -> str:
    """The flags cell of a scan record: its set's flags, with "seniority"
    on a sample of nonzero seniority and "pole" at a pole, sorted and
    joined by ";"."""
    extra = ("seniority",) * bool(seniority) + ("pole",) * pole
    return ";".join(sorted({*flags, *extra}))


def _cmd_lmg_scan(args) -> int:
    _check_state_index(args.state, 2 * args.j + 1)
    spec = _built(TrajectorySpec, j=args.j, start=args.from_, stop=args.to,
                  steps=args.steps, line=args.line, line_sum=args.line_sum,
                  state_index=args.state, eps=args.eps)
    table = scan_trajectory(spec)
    for gx, reason in table.failures:
        print(f"skipped gx={gx:.6g}: {reason}", file=sys.stderr)
    leads, groups = _scan_rows(table)
    _emit(args, "lmg scan", SCAN_COLUMNS, groups, leads=leads)
    return EXIT_OK


def _cmd_lmg_collapse(args) -> int:
    if args.state != 0:
        raise UsageError("--state must be 0: the collapse points and zero "
                         "patterns are the ground state's")
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
    _emit(args, "lmg collapse",
          ["k", "branch", "gx_analytic", "gx_detected", "delta",
           "anchor_value", "pattern", "pattern_ok"], rows)
    return EXIT_OK


def _cmd_lmg_crossings(args) -> int:
    rows = []
    all_ok = True
    for cp in crossing_points(args.j):
        params = ModelParams.from_gammas(args.j, cp.gamma_x, cp.gamma_x,
                                         eps=args.eps)
        h = build_hamiltonian(params)
        pairs = diagonalize(h)
        evens = [p.energy for p in pairs if p.state.parity == PARITY_EVEN]
        odds = [p.energy for p in pairs if p.state.parity == PARITY_ODD]
        gap = min(abs(a - b) for a in evens for b in odds)
        ok = gap <= 1e-10 * h.norm
        all_ok &= ok
        pair_text = "|".join(f"{m}:{mp}" for m, mp in cp.pairs)
        rows.append([cp.k, cp.gamma_x, pair_text, gap, int(ok)])
    _emit(args, "lmg crossings",
          ["k", "gx", "pairs", "min_gap", "verified"], rows)
    if not all_ok:
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
    _emit(args, "bcs spectrum", ["index", "energy", "seniority", "degenerate"],
          rows)
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
    _emit(args, "bcs pairons", ["alpha", "re_e", "im_e", "flags"], rows,
          extra_meta={
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
    _emit(args, "bcs ellipsoid",
          ["alpha", "re_e", "im_e", "axis", "re_xi2", "im_xi2",
           "max_residual"], rows)
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
    except PaironsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
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
