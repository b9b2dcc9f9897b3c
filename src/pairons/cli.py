"""Command-line front ends.

`lmg`  - two-level quasispin model: spectrum, zeros, pairons, scan,
         collapse, crossings.
`bcs`  - multi-level boson pairing model: spectrum, pairons, ellipsoid.

Both tools emit a single table per invocation, as CSV (default) or as a
JSON document with a meta header; floats are printed with 17 significant
digits and the output is byte-identical across runs.  `--threads` (or
PAIRONS_THREADS) is validated and has no effect.  Exit codes: 0 success,
2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bosonbcs import (BosonModel, _sorted_eigensystem, boson_eigenstate,
                       boson_energy, ellipsoid_axes, extract_boson_pairons,
                       reconstruct_boson_state, verify_ellipsoid)
from .collapse import (LINE_DIAGONAL, LINE_SUM, SINGULAR_MARGIN,
                       TrajectorySpec, _canonical_site, anchor_profile,
                       collapse_rows, crossing_points, find_collapses,
                       scan_trajectory, total_collapse_candidates)
from .errors import InconsistentPaironsError, PaironsError
from .paironmap import (PaironSet, extract_pairons, fidelity, pairon_from_u,
                        u_from_pairon)
from .sphere import (SITE_MERGE_RADIUS, SpherePoint, chordal_distances,
                     coordinates)
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

def _cell(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


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
          extra_meta: dict | None = None) -> None:
    """Write one table to --out or stdout, as CSV or JSON."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    else:
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _levels_value(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    parts = [p for p in str(value).split(",") if p.strip()]
    if not parts:
        raise UsageError("--levels needs a comma-separated list of energies")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --levels entry: {exc}") from None


# dest -> (normalizer, builtin default); None default means "required"
_FIELDS: dict[str, tuple] = {
    "j": (int, None),
    "gx": (float, None),
    "gy": (float, None),
    "eps": (float, 1.0),
    "line": (str, LINE_SUM),
    "line_sum": (float, 10.0),
    "from_": (float, None),
    "to": (float, None),
    "steps": (int, None),
    "state": (int, 0),
    "levels": (_levels_value, None),
    "gamma": (float, None),
    "n": (int, None),
    "slice": (int, 1),
    "seed": (int, 0),
    "threads": (int, None),
}


def _add_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-").rstrip("-")
        dest = name
        if name == "from_":
            flag = "--from"
        if name == "line":
            parser.add_argument(flag, dest=dest, choices=(LINE_SUM, LINE_DIAGONAL))
        else:
            parser.add_argument(flag, dest=dest)
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None)
    if "threads" not in names:
        parser.add_argument("--threads", dest="threads")
    if "seed" not in names:
        parser.add_argument("--seed", dest="seed")


def _resolve(args: argparse.Namespace, fields: list[str],
             required: list[str]) -> None:
    """Merge CLI > config file > built-in defaults, then normalize types."""
    table: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        known = set(_FIELDS) | {"format", "out"}
        for key, value in raw.items():
            dest = str(key).replace("-", "_")
            if dest == "from":
                dest = "from_"
            if dest not in known:
                raise UsageError(f"unknown config key {key!r}")
            table[dest] = value

    for dest in list(fields) + ["seed", "threads"]:
        if getattr(args, dest, None) is None and dest in table:
            setattr(args, dest, table[dest])
    if args.out is None and "out" in table:
        args.out = str(table["out"])
    if args.format is None:
        args.format = table.get("format", "csv")
    if args.format not in ("csv", "json"):
        raise UsageError(f"unknown format {args.format!r}")

    for dest in list(fields) + ["seed"]:
        norm, default = _FIELDS[dest]
        value = getattr(args, dest, None)
        if value is None:
            value = default
        if value is None:
            if dest in required:
                flag = "--from" if dest == "from_" else "--" + dest.replace("_", "-")
                raise UsageError(f"missing required flag {flag}")
            continue
        try:
            setattr(args, dest, norm(value))
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for --{dest.replace('_', '-')}: {exc}") from None

    if getattr(args, "threads", None) is None:
        env = os.environ.get(ENV_THREADS)
        if env is not None:
            try:
                args.threads = int(env)
            except ValueError:
                raise UsageError(
                    f"{ENV_THREADS} must be an integer, got {env!r}") from None
        else:
            args.threads = 1
    else:
        try:
            args.threads = int(args.threads)
        except (TypeError, ValueError):
            raise UsageError("--threads must be an integer") from None
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")


def _model_params(args) -> ModelParams:
    try:
        return ModelParams.from_gammas(args.j, args.gx, args.gy, eps=args.eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None


def _boson_model(args) -> BosonModel:
    try:
        return BosonModel(levels=args.levels, gamma=args.gamma,
                          n_bosons=args.n)
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
    for e in pairons.energies:
        u = u_from_pairon(e, pairons.t)
        site = _canonical_site(u)
        if site.is_infinity or site.zeta == 0:
            continue  # pole rows carry their own flag
        back = pairon_from_u(site.zeta ** 2, pairons.t)
        if abs(back - e) > MAP_CHECK_TOL * max(1.0, abs(e)):
            raise InconsistentPaironsError(
                f"zero site round trip moved pairon {e} to {back}")


def _zero_rows(pairons: PaironSet) -> list[list]:
    """Site rows (alpha, theta, phi, multiplicity, flags).

    The two members of a +- pair share their pairon index alpha; sites
    closer than SITE_MERGE_RADIUS are merged and keep the smallest
    alpha.  Seniority zeros get alpha = -1 unless they merge into a
    pairon site.
    """
    base_flags = set(pairons.flags)
    entries: list[tuple[SpherePoint, int, int, set]] = []
    for alpha, e in enumerate(pairons.energies):
        u = u_from_pairon(e, pairons.t)
        site = _canonical_site(u)
        if site.is_infinity or site.zeta == 0:
            entries.append((site, alpha, 2, {"pole"}))
        else:
            entries.append((site, alpha, 1, set()))
            entries.append((SpherePoint.from_zeta(-site.zeta), alpha, 1, set()))
    if pairons.nu:
        entries.append((SpherePoint.from_zeta(0.0), -1, 1, {"seniority", "pole"}))
        entries.append((SpherePoint.infinity(), -1, 1, {"seniority", "pole"}))

    z = coordinates([point for point, _, _, _ in entries])
    near = chordal_distances(z[:, None], z[None, :]) <= SITE_MERGE_RADIUS
    merged: list[list] = []  # [first entry, alpha, multiplicity, flags]
    for k, (_, alpha, mult, fl) in enumerate(entries):
        for group in merged:
            if near[group[0], k]:
                group[2] += mult
                group[3] |= fl
                if alpha >= 0:
                    group[1] = alpha if group[1] < 0 else min(group[1], alpha)
                break
        else:
            merged.append([k, alpha, mult, set(fl)])

    rows = []
    for k, alpha, mult, fl in merged:
        point = entries[k][0]
        flags = ";".join(sorted(fl | base_flags))
        rows.append([alpha, point.theta(), point.phi(), mult, flags])
    rows.sort(key=lambda r: (r[0] < 0, r[0], r[1], r[2]))
    return rows


def _pairon_rows(pairons: PaironSet) -> list[list]:
    base = set(pairons.flags)
    rows = []
    for alpha, e in enumerate(pairons.energies):
        u = u_from_pairon(e, pairons.t)
        fl = set(base)
        if u is None or u == 0:
            fl.add("pole")
        rows.append([alpha, e.real, e.imag, ";".join(sorted(fl))])
    return rows


# ---------------------------------------------------------------------------
# lmg subcommands
# ---------------------------------------------------------------------------

def _cmd_lmg_spectrum(args) -> int:
    params = _model_params(args)
    pairs = diagonalize(build_hamiltonian(params))
    rows = [[p.index, p.energy, p.state.parity, int(p.degenerate)]
            for p in pairs]
    _emit(args, "lmg spectrum", ["index", "energy", "parity", "degenerate"],
          rows)
    return EXIT_OK


def _extract_for_args(args):
    params = _model_params(args)
    _check_state_index(args.state, 2 * args.j + 1)
    pairons, diag = extract_pairons(params, state_index=args.state)
    _map_recheck(pairons)
    return params, pairons, diag


def _diag_meta(pairons, diag) -> dict:
    return {
        "t": diag.t,
        "energy": diag.energy,
        "nu": pairons.nu,
        "reconstruction_fidelity": diag.reconstruction_fidelity,
        "reconstruction_residual": diag.reconstruction_residual,
        "max_pairing_defect": diag.max_pairing_defect,
    }


def _cmd_lmg_zeros(args) -> int:
    _, pairons, diag = _extract_for_args(args)
    rows = _zero_rows(pairons)
    _emit(args, "lmg zeros", ["alpha", "theta", "phi", "multiplicity", "flags"],
          rows, extra_meta=_diag_meta(pairons, diag))
    return EXIT_OK


def _cmd_lmg_pairons(args) -> int:
    _, pairons, diag = _extract_for_args(args)
    rows = _pairon_rows(pairons)
    _emit(args, "lmg pairons", ["alpha", "re_e", "im_e", "flags"], rows,
          extra_meta=_diag_meta(pairons, diag))
    return EXIT_OK


def _trajectory_spec(args, start, stop, steps) -> TrajectorySpec:
    try:
        return TrajectorySpec(j=args.j, start=start, stop=stop, steps=steps,
                              line=args.line, line_sum=args.line_sum,
                              state_index=args.state, eps=args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


SCAN_COLUMNS = ["gx", "gy", "t", "state_index", "energy", "alpha", "re_e",
                "im_e", "theta", "phi", "multiplicity", "branch_id", "flags"]


def _scan_rows(table) -> list[list]:
    rows = []
    for s in table.samples:
        for r in s.records:
            flags = set(r.flags)
            if s.nu:
                flags.add("seniority")
            rows.append([
                s.gamma_x, s.gamma_y, s.t, s.state_index, s.energy,
                r.alpha, r.energy.real, r.energy.imag,
                r.site.theta(), r.site.phi(), r.site_multiplicity,
                r.branch_id, ";".join(sorted(flags)),
            ])
    return rows


def _cmd_lmg_scan(args) -> int:
    _check_state_index(args.state, 2 * args.j + 1)
    spec = _trajectory_spec(args, args.from_, args.to, args.steps)
    table = scan_trajectory(spec)
    for gx, reason in table.failures:
        print(f"skipped gx={gx:.6g}: {reason}", file=sys.stderr)
    _emit(args, "lmg scan", SCAN_COLUMNS, _scan_rows(table))
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
    spec = _trajectory_spec(args, start, stop, steps)

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
    model = _boson_model(args)
    rows = [[i, energy, "".join(str(s) for s in seniority), int(flag)]
            for i, (energy, seniority, _, _, _, flag)
            in enumerate(_sorted_eigensystem(model))]
    _emit(args, "bcs spectrum", ["index", "energy", "seniority", "degenerate"],
          rows)
    return EXIT_OK


def _bcs_state(args):
    model = _boson_model(args)
    if not 1 <= args.slice <= model.n_levels - 1:
        raise UsageError(f"--slice must be in 1..{model.n_levels - 1}")
    _check_state_index(args.state, len(model.basis))
    return model, boson_eigenstate(model, args.state)


def _cmd_bcs_pairons(args) -> int:
    model, state = _bcs_state(args)
    pairons = extract_boson_pairons(state, axis=args.slice)
    total = boson_energy(pairons)
    if abs(total - state.energy) > 1e-8 * max(1.0, abs(state.energy)):
        raise InconsistentPaironsError(
            f"pairon sum {total} disagrees with eigenvalue {state.energy}")
    recon = reconstruct_boson_state(model, state.seniority, pairons.energies)
    fid = fidelity(recon, state)
    flags = ";".join(sorted(pairons.flags))
    rows = [[alpha, e.real, e.imag, flags]
            for alpha, e in enumerate(pairons.energies)]
    _emit(args, "bcs pairons", ["alpha", "re_e", "im_e", "flags"], rows,
          extra_meta={
              "energy": state.energy,
              "seniority": list(state.seniority),
              "energy_sum": total,
              "reconstruction_fidelity": fid,
              "n_at_infinity": pairons.n_at_infinity,
          })
    return EXIT_OK


def _cmd_bcs_ellipsoid(args) -> int:
    model, state = _bcs_state(args)
    pairons = extract_boson_pairons(state, axis=args.slice)
    n_points = args.steps if args.steps is not None else 100
    if n_points < 1:
        raise UsageError("--steps must be at least 1")
    rows = []
    for alpha, e in enumerate(pairons.energies):
        residual = verify_ellipsoid(state, e, n_points=n_points,
                                    seed=args.seed)
        axes = ellipsoid_axes(model, e)
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
              _cmd_lmg_zeros),
    "pairons": (["j", "gx", "gy", "eps", "state"], ["j", "gx", "gy"],
                _cmd_lmg_pairons),
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


def _build_parser(prog: str, commands: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--version", action="version",
                        version=f"pairons {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fields, required, func) in commands.items():
        p = sub.add_parser(name)
        _add_flags(p, fields)
        p.set_defaults(func=func, _fields=fields, _required=required)
    return parser


def _run(prog: str, commands: dict, argv) -> int:
    parser = _build_parser(prog, commands)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        _resolve(args, args._fields, args._required)
        if "j" in args._fields and args.j is not None and args.j < 1:
            raise UsageError("--j must be a positive integer")
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
