"""Command line interface.

Three subcommands:

* ``estimate``: point estimates and bootstrap standard errors for chosen
  estimand/estimator combinations on a CSV dataset;
* ``simulate``: the Monte Carlo study grid (bias/RMSE per cell);
* ``true-values``: population contrasts of the built-in generator.

Every option can also be supplied through ``--config FILE`` holding
``key = value`` lines (keys are the long option names); explicit flags win
over the file, the file wins over built-in defaults. Reports embed the
resolved configuration as comment lines, except for ``workers`` and ``out``
which cannot change any number in the report.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import __version__
from .bootstrap import bootstrap_vector, cell_se
from .data import ObservationalDataset, load_csv
from .design import DesignSpec, main_effects, parse_design
from .errors import DesignError, MissingColumnError, WateError
from .estimators import (
    CellPlan,
    EstimationPipeline,
    EstimatorKind,
    fill_cells,
    has_formula,
    plan_cells,
)
from .simulation import SimulationDesign, reference_truth, run_study, study_cells
from .targets import (
    STANDARD_TARGETS,
    TargetFunction,
    covariate_target,
    linear_in_propensity,
)

_ESTIMATE_DEFAULTS = {
    "treatment": "a",
    "outcome": "y",
    "covariates": "",
    "estimand": "ate,att,atc,ato",
    "estimator": "regression,ipw,aipw",
    "pi-design": "",
    "m-design": "",
    "m-interaction": "",
    "truncate": "",
    "bootstrap": "1000",
    "seed": "0",
    "workers": "1",
    "out": "",
    "format": "both",
}

_SIMULATE_DEFAULTS = {
    "outcome-model": "1",
    "n": "1000",
    "reps": "1000",
    "estimand": "ate,att,atc,ato",
    "estimator": "regression,ipw,dr",
    "truncate": "",
    "seed": "0",
    "workers": "1",
    "out": "",
    "format": "both",
}

_TRUE_VALUES_DEFAULTS = {
    "outcome-model": "1,2",
    "out": "",
}


class CliError(Exception):
    """Bad usage detected after argument parsing."""


@dataclass(frozen=True)
class _DesignSum:
    """Picklable h(x) built from a design expression: the row sum of the
    evaluated terms."""

    spec: DesignSpec

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        cols = self.spec.matrix(X)
        return cols.sum(axis=1)


def parse_estimand_token(token: str, covariate_names: tuple[str, ...]) -> TargetFunction:
    """ate | att | atc | ato | linear:a,b | expr:<column expression>."""
    t = token.strip()
    if t.lower() in STANDARD_TARGETS:
        return STANDARD_TARGETS[t.lower()]
    if t.lower().startswith("linear:"):
        body = t[len("linear:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise CliError(f"estimand {token!r}: expected linear:a,b")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise CliError(f"estimand {token!r}: coefficients must be numbers") from None
        try:
            return linear_in_propensity(a, b)
        except ValueError as exc:
            raise CliError(f"estimand {token!r}: {exc}") from None
    if t.lower().startswith("expr:"):
        body = t[len("expr:"):].strip()
        try:
            spec = parse_design(body, covariate_names)
        except WateError as exc:
            raise CliError(f"estimand {token!r}: {exc}") from None
        if not spec.terms:
            raise CliError(f"estimand {token!r}: empty expression")
        return covariate_target(_DesignSum(spec), label=f"expr:{body}")
    raise CliError(
        f"unknown estimand token {token!r} "
        "(expected ate, att, atc, ato, linear:a,b or expr:...)"
    )


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _split_estimands(text: str) -> list[str]:
    """Split a comma-separated estimand list, keeping ``linear:a,b`` whole:
    a numeric fragment right after ``linear:<number>`` is its b coefficient,
    not a new token."""
    parts = [t.strip() for t in text.split(",")]
    out: list[str] = []
    i = 0
    while i < len(parts):
        t = parts[i]
        if (
            t.lower().startswith("linear:")
            and _is_number(t[len("linear:"):])
            and i + 1 < len(parts)
            and _is_number(parts[i + 1])
        ):
            out.append(t + "," + parts[i + 1])
            i += 2
            continue
        if t:
            out.append(t)
        i += 1
    return out


def _parse_truncate(text: str) -> tuple[float, float] | None:
    if not text.strip():
        return None
    parts = _split_list(text)
    if len(parts) != 2:
        raise CliError(f"--truncate expects two percentiles, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(f"--truncate values must be numbers, got {text!r}") from None
    if not (0.0 <= lo < hi <= 100.0):
        raise CliError(f"--truncate needs 0 <= low < high <= 100, got {text!r}")
    return (lo, hi)


def _parse_int(
    resolved: dict[str, str], key: str, minimum: int, maximum: int | None = None
) -> int:
    try:
        value = int(resolved[key])
    except ValueError:
        raise CliError(f"--{key} must be an integer, got {resolved[key]!r}") from None
    if value < minimum:
        raise CliError(f"--{key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise CliError(f"--{key} must be <= {maximum}, got {value}")
    return value


def _parse_int_list(
    resolved: dict[str, str], key: str, minimum: int, maximum: int | None = None
) -> list[int]:
    tokens = _split_list(resolved[key])
    if not tokens:
        raise CliError(f"--{key} needs at least one value, got {resolved[key]!r}")
    return [_parse_int({key: t}, key, minimum, maximum) for t in tokens]


def _parse_design_option(
    resolved: dict[str, str], key: str, names: tuple[str, ...], default: DesignSpec | None
) -> DesignSpec | None:
    if not resolved[key].strip():
        return default
    try:
        return parse_design(resolved[key], names)
    except DesignError as exc:
        raise CliError(f"--{key}: {exc}") from None


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip().replace("_", "-")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    return out


def _resolve_options(
    args: argparse.Namespace, defaults: dict[str, str]
) -> dict[str, str]:
    """Built-in defaults, overridden by the config file, overridden by
    explicit flags (argparse stores None when a flag was not given)."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        config = _load_config(args.config)
        unknown = set(config) - set(defaults)
        if unknown:
            raise CliError(
                f"config file has unknown keys for this command: {sorted(unknown)}"
            )
        resolved.update(config)
    for key in defaults:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _echo_lines(command: str, resolved: dict[str, str]) -> list[str]:
    lines = [f"# command = {command}"]
    for key in sorted(resolved):
        if key in ("workers", "out"):
            continue
        lines.append(f"# {key} = {resolved[key]}")
    return lines


# ---------------------------------------------------------------------------
# estimate


@dataclass(frozen=True)
class ReportTask:
    """Every cell of a report, with one pipeline per cell in ``plan``."""

    methods: tuple[str, ...]
    tokens: tuple[str, ...]
    cells: tuple[tuple[str, str], ...]  # (method, estimand token)
    plan: CellPlan


# Report rows; "unweighted" is always the first and is not an --estimator token.
_METHOD_KINDS = {
    "unweighted": EstimatorKind.UNWEIGHTED,
    "regression": EstimatorKind.REGRESSION,
    "ipw": EstimatorKind.IPW_NORMALIZED,
    "aipw": EstimatorKind.AIPW,
}


def build_report_task(
    methods: list[str],
    tokens: list[str],
    covariate_names: tuple[str, ...],
    pi_design: DesignSpec | None,
    m_design: DesignSpec | None,
    m_interaction: DesignSpec | None,
    truncate: tuple[float, float] | None,
) -> ReportTask:
    targets = [parse_estimand_token(t, covariate_names) for t in tokens]
    cells = []
    pipelines = []
    for method in methods:
        kind = _METHOD_KINDS[method]
        for token, target in zip(tokens, targets):
            if not has_formula(kind, target):
                continue
            cells.append((method, token))
            pipelines.append(
                EstimationPipeline(
                    estimand=target,
                    kind=kind,
                    pi_design=pi_design if method in ("ipw", "aipw") else None,
                    m_design=m_design if method in ("regression", "aipw") else None,
                    m_interaction=m_interaction,
                    truncate=truncate,
                )
            )
    return ReportTask(
        methods=tuple(methods),
        tokens=tuple(tokens),
        cells=tuple(cells),
        plan=plan_cells(pipelines),
    )


def _report_cells(
    task: ReportTask, ds: ObservationalDataset
) -> tuple[NDArray[np.float64], list[str]]:
    """Cell values (NaN where a cell failed) and failure notes."""
    results = fill_cells(ds, task.plan)
    values = np.array([np.nan if isinstance(r, WateError) else r.value for r in results])
    notes = [str(r) if isinstance(r, WateError) else "" for r in results]
    return values, notes


def _fmt_value(v: float) -> str:
    return "%.6g" % v


def _pivot(
    keys: tuple[str, ...],
    columns: tuple[str, ...],
    subs: tuple[str, ...],
    rows: list[tuple[str, ...]],
    cells: dict[tuple[tuple[str, ...], str], tuple[str, ...]],
) -> list[str]:
    """Markdown table lines: one row per key in ``rows`` (a tuple of labels,
    one per ``keys``) and one cell per ``column + sub``. ``cells[row, column]``
    holds a row's texts under ``column``; a missing pair prints ``-`` in each."""
    lines = [
        "| " + " | ".join([*keys, *(c + s for c in columns for s in subs)]) + " |",
        "|" + "---|" * (len(keys) + len(columns) * len(subs)),
    ]
    for row in rows:
        texts = [t for c in columns for t in cells.get((row, c), ("-",) * len(subs))]
        lines.append("| " + " | ".join([*row, *texts]) + " |")
    return lines


def _estimate_report_lines(
    ds: ObservationalDataset,
    task: ReportTask,
    echo: list[str],
    b: int,
    seed: int,
    workers: int,
) -> tuple[list[str], list[str], bool]:
    """Returns (csv lines, markdown lines, all cells ok). The bootstrap is
    skipped when no cell has a point estimate: no replicate could succeed,
    and the report then shows why each cell failed."""
    points, notes = _report_cells(task, ds)
    ses = np.full(len(task.cells), np.nan)
    b_ok = np.zeros(len(task.cells), dtype=int)
    bootstrap_line = f"bootstrap B = {b}" if b > 0 else "no bootstrap"
    if b > 0 and not np.any(np.isfinite(points)):
        b, bootstrap_line = 0, "bootstrap skipped: no cell has a point estimate"
    if b > 0:
        samples = bootstrap_vector(ds, task.plan, b=b, seed=seed, workers=workers)
        for j, column in enumerate(samples.T):
            se, b_ok[j], note = cell_se(column)
            # A cell without a point estimate keeps its own note and no SE.
            if not notes[j]:
                ses[j], notes[j] = se, note

    csv_lines = list(echo)
    csv_lines.append(
        f"# n = {ds.n}, treated = {ds.n_treated}, control = {ds.n_control}"
    )
    csv_lines.append("method,estimand,estimate,se,bootstrap_ok,note")
    cells = {}
    failures = []
    for j, (method, token) in enumerate(task.cells):
        token_csv = f'"{token}"' if "," in token else token
        est_txt = _fmt_value(points[j]) if np.isfinite(points[j]) else ""
        se_txt = _fmt_value(ses[j]) if np.isfinite(ses[j]) else ""
        note = notes[j].replace(",", ";").replace("\n", " ")
        csv_lines.append(
            f"{method},{token_csv},{est_txt},{se_txt},{b_ok[j] if b > 0 else ''},{note}"
        )
        md_cell = f"{est_txt} ({se_txt})" if se_txt else est_txt
        cells[(method,), token] = (md_cell if est_txt else "failed",)
        if notes[j]:
            failures.append(f"- {method} / {token}: {notes[j]}")

    md_lines = list(echo)
    md_lines.append("")
    md_lines.append(
        f"n = {ds.n} ({ds.n_treated} treated, {ds.n_control} control); {bootstrap_line}"
    )
    md_lines.append("")
    md_lines += _pivot(("method",), task.tokens, ("",), [(m,) for m in task.methods], cells)
    if failures:
        md_lines += ["", "Failures:", *failures]
    return csv_lines, md_lines, not failures


def _output_paths(out: str, fmt: str) -> dict[str, str]:
    """The report file ``--out`` names for each format ``--format`` asks for;
    none when the report goes to stdout."""
    return {ext: f"{out}.{ext}" for ext in ("csv", "md") if out and fmt in ("both", ext)}


def _check_outputs(out: str, fmt: str) -> None:
    """Refuse, before any work, every report file that is a directory or
    whose directory does not exist, so no run is thrown away and no report
    pair is half written. Any other failure is reported when writing."""
    for path in _output_paths(out, fmt).values():
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            continue
        raise CliError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write_outputs(out: str, fmt: str, csv_lines: list[str], md_lines: list[str]) -> None:
    """Writes each report as its lines, each ended by a newline."""
    texts = {"csv": "\n".join(csv_lines) + "\n", "md": "\n".join(md_lines) + "\n"}
    if not out:
        sys.stdout.write(texts["md"] if fmt in ("both", "md") else texts["csv"])
        return
    for ext, path in _output_paths(out, fmt).items():
        try:
            with open(path, "w") as fh:
                fh.write(texts[ext])
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}") from None


def _check_format(resolved: dict[str, str]) -> str:
    fmt = resolved["format"].strip().lower()
    if fmt not in ("both", "csv", "md"):
        raise CliError(f"--format must be csv, md or both, got {resolved['format']!r}")
    return fmt


def _cmd_estimate(args: argparse.Namespace) -> int:
    resolved = _resolve_options(args, _ESTIMATE_DEFAULTS)
    if not getattr(args, "data", None):
        raise CliError("estimate: a dataset CSV path is required")
    fmt = _check_format(resolved)
    covariates = _split_list(resolved["covariates"]) or None
    try:
        ds = load_csv(
            args.data,
            treatment=resolved["treatment"],
            outcome=resolved["outcome"],
            covariates=covariates,
        )
    except OSError as exc:
        raise CliError(f"cannot read {args.data}: {exc}") from None
    except MissingColumnError as exc:
        raise CliError(str(exc)) from None
    names = ds.covariate_names
    methods = ["unweighted"] + _split_list(resolved["estimator"])
    for m in methods[1:]:
        if m == "unweighted" or m not in _METHOD_KINDS:
            raise CliError(f"unknown estimator token {m!r} (regression, ipw, aipw)")
    tokens = _split_estimands(resolved["estimand"])
    if not tokens:
        raise CliError("no estimands requested")
    task = build_report_task(
        methods,
        tokens,
        names,
        _parse_design_option(resolved, "pi-design", names, main_effects(names)),
        _parse_design_option(resolved, "m-design", names, main_effects(names)),
        _parse_design_option(resolved, "m-interaction", names, None),
        _parse_truncate(resolved["truncate"]),
    )
    b = _parse_int(resolved, "bootstrap", 0)
    if b == 1:
        raise CliError("--bootstrap must be 0 (off) or at least 2")
    seed = _parse_int(resolved, "seed", 0)
    workers = _parse_int(resolved, "workers", 1)
    _check_outputs(resolved["out"], fmt)
    echo = _echo_lines("estimate", {**resolved, "data": args.data})
    csv_lines, md_lines, all_ok = _estimate_report_lines(
        ds, task, echo, b, seed, workers
    )
    _write_outputs(resolved["out"], fmt, csv_lines, md_lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# simulate

# A working model's specification in the CSV and the markdown; None: no such model.
_SPEC_CSV = {None: "", True: "correct", False: "misspecified"}
_SPEC_MD = {None: "-", True: "yes", False: "no"}


def _cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve_options(args, _SIMULATE_DEFAULTS)
    fmt = _check_format(resolved)
    models = _parse_int_list(resolved, "outcome-model", 1, 2)
    sizes = _parse_int_list(resolved, "n", 1)
    reps = _parse_int(resolved, "reps", 2)
    seed = _parse_int(resolved, "seed", 0)
    workers = _parse_int(resolved, "workers", 1)
    estimators = tuple(_split_list(resolved["estimator"]))
    estimands = tuple(_split_list(resolved["estimand"]))
    try:
        study_cells(SimulationDesign(estimators=estimators, estimands=estimands))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    truncate = _parse_truncate(resolved["truncate"])
    _check_outputs(resolved["out"], fmt)
    echo = _echo_lines("simulate", resolved)

    csv_lines = [
        *echo,
        "outcome_model,n,replications,estimator,pi_spec,m_spec,estimand,"
        "truth,bias,sd,rmse,mc_se,n_ok,n_failed",
    ]
    md_lines = list(echo)
    for model in models:
        for n in sizes:
            design = SimulationDesign(
                outcome_model=model,
                n=n,
                replications=reps,
                seed=seed,
                estimators=estimators,
                estimands=estimands,
                truncate=truncate,
                workers=workers,
            )
            report = run_study(design)
            cells = {}
            for c in report.cells:
                stats = (report.truth.value(c.estimand), c.bias, c.sd, c.rmse, c.mc_se)
                nums = ",".join("" if v is None else "%.10g" % v for v in stats)
                pc, mc = c.pi_correct, c.m_correct
                csv_lines.append(
                    f"{model},{n},{reps},{c.estimator},{_SPEC_CSV[pc]},{_SPEC_CSV[mc]},"
                    f"{c.estimand},{nums},{c.n_ok},{c.n_failed}"
                )
                row = (c.estimator, _SPEC_MD[pc], _SPEC_MD[mc])
                if c.bias is None:
                    cells[row, c.estimand] = ("!", "!")
                else:
                    cells[row, c.estimand] = (f"{c.bias:.2f}", f"{c.rmse:.2f}")
            md_lines += [
                "",
                f"Outcome model {model}, n = {n}, {reps} replications.",
                "",
                *_pivot(
                    ("estimator", "pi ok", "m ok"),
                    estimands,
                    (" bias", " rmse"),
                    list(dict.fromkeys(row for row, _ in cells)),
                    cells,
                ),
            ]
    _write_outputs(resolved["out"], fmt, csv_lines, md_lines)
    return 0


# ---------------------------------------------------------------------------
# true-values


def _cmd_true_values(args: argparse.Namespace) -> int:
    resolved = _resolve_options(args, _TRUE_VALUES_DEFAULTS)
    models = _parse_int_list(resolved, "outcome-model", 1, 2)
    _check_outputs(resolved["out"], "csv")
    echo = _echo_lines("true-values", resolved)
    lines = list(echo)
    lines.append("outcome_model,estimand,value,mc_se,draws")
    for model in models:
        truth = reference_truth(model)
        for estimand in STANDARD_TARGETS:
            lines.append(
                f"{model},{estimand},{truth.value(estimand):.6f},"
                f"{truth.mc_se(estimand):.6f},{truth.draws}"
            )
    _write_outputs(resolved["out"], "csv", lines, lines)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wate",
        description="Weighted average treatment effect estimation and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"wate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate effects on a CSV dataset")
    est.add_argument("data", help="path to a CSV file with a header row")
    est.add_argument("--config", help="key = value option file")
    for key in _ESTIMATE_DEFAULTS:
        est.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study grid")
    sim.add_argument("--config", help="key = value option file")
    for key in _SIMULATE_DEFAULTS:
        sim.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)
    sim.set_defaults(func=_cmd_simulate)

    tv = sub.add_parser("true-values", help="population contrasts of the generator")
    tv.add_argument("--config", help="key = value option file")
    for key in _TRUE_VALUES_DEFAULTS:
        tv.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)
    tv.set_defaults(func=_cmd_true_values)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
