"""Report rendering and persistence.

A benchmark run is persisted as:

* ``run_seed<N>.csv`` - the trajectory plus ``pred_<name>``/``err_<name>``
                      columns (loadable by ``signals.load_trajectory``),
                      written by `write_run_csv` as soon as seed N is back,
                      while later seeds may still be running;
* ``report.json``   - config echo, per-estimator window errors, timings,
                      failures and covariance-health audit results;
* ``summary.csv``   - one row per (seed, estimator) with window errors and
                      the wall-clock seconds column;
* ``table.txt``     - the aligned text table (table format only).

The last three need every seed; `emit_report` writes them once the run
has ended.  Each `write_run_csv` first removes them from the directory, so
a run that stops after some seeds (a seed that raises, an interrupt) leaves
its new run CSVs but no report of an earlier run beside them.

Accumulated errors are shown scaled by 1e4 (noted in the heading) whenever
the largest value reaches 1e4.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bench import RunReport, SeedRun
from .runners import ConfigError
from .signals import read_utf8, save_trajectory

SCALE_THRESHOLD = 1e4
SCALE_LABEL = "×10⁴"  # x10^4
_RUN_CSV = "run_seed{seed}.csv"
# The files `emit_report` writes, which describe every seed of one run.
_REPORT_FILES = ("report.json", "summary.csv", "table.txt")


def report_to_dict(report: RunReport) -> dict:
    data = {
        "config": report.config.echo(),
        "horizon": report.config.horizon,
        "warmup": report.warmup,
        "metric": report.config.metric.value,
        "windows": [list(w) for w in report.config.windows],
        "seeds": [run.seed for run in report.seed_runs],
        "results": [],
    }
    for run in report.seed_runs:
        entry = {
            "seed": run.seed,
            "series_csv": _RUN_CSV.format(seed=run.seed),
            "order": list(run.order),
            "estimators": {},
        }
        for name in run.order:
            res = run.results[name]
            entry["estimators"][name] = {
                "windows": {k: v for k, v in res.window_errors.items()},
                "seconds": round(res.seconds, 4),
                "failure": res.failure,
                "min_eigenvalue": res.min_eigenvalue,
                "max_asymmetry": res.max_asymmetry,
            }
        data["results"].append(entry)
    return data


def _window_labels(data: dict) -> list[str]:
    return [f"{w[0]}-{w[1]}" for w in data["windows"]]


def _max_error(data: dict) -> float:
    return max((abs(v) for entry in data["results"] for res in entry["estimators"].values()
                for v in res["windows"].values()), default=0.0)


def _render_block(title: str, order: list[str], rows: dict[str, dict],
                  labels: list[str], scale: float) -> list[str]:
    cols = [f"steps {lbl}" for lbl in labels] + ["time (s)"]
    flagged: dict[str, list[str]] = {name: [] for name in order}
    for j, lbl in enumerate(labels):
        vals = {n: rows[n]["windows"].get(lbl) for n in order
                if rows[n]["failure"] is None and lbl in rows[n]["windows"]}
        lo = min(vals.values()) if vals else None
        hi = max(vals.values()) if vals else None
        for n in order:
            v = vals.get(n)
            if v is None:
                flagged[n].append("failed" if rows[n]["failure"] else "")
                continue
            mark = ""
            if len(vals) > 1:
                if v == lo:
                    mark = " (min)"
                elif v == hi:
                    mark = " (max)"
            flagged[n].append(f"{v / scale:.4f}{mark}")
    for n in order:
        flagged[n].append(f"{rows[n]['seconds']:.4f}")

    name_w = max(len("estimator"), *(len(n) for n in order))
    col_ws = [max(len(c), *(len(flagged[n][j]) for n in order))
              for j, c in enumerate(cols)]
    lines = [title]
    header = "estimator".ljust(name_w) + "".join(
        "  " + c.rjust(w) for c, w in zip(cols, col_ws))
    lines.append(header)
    lines.append("-" * len(header))
    for n in order:
        lines.append(n.ljust(name_w) + "".join(
            "  " + cell.rjust(w) for cell, w in zip(flagged[n], col_ws)))
    return lines


def _median(values: list[float]) -> float:
    """Median of a non-empty list.  Of an even count the two middle values
    are halved and then added, which is exact in the normal range and so
    equals their rounded mean, and stays finite for two values above half
    the largest float, whose sum overflows."""
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return values[mid - 1] / 2 + values[mid] / 2


def render_table(data: dict) -> str:
    """Aligned text table: one block per seed, plus a median block."""
    labels = _window_labels(data)
    scaled = _max_error(data) >= SCALE_THRESHOLD
    scale = SCALE_THRESHOLD if scaled else 1.0
    unit = f" ({SCALE_LABEL})" if scaled else ""
    lines = [f"Accumulated prediction error{unit} and run time",
             f"metric: {data['metric']}; horizon: {data['horizon']}; "
             f"warmup: {data['warmup']} steps", ""]
    for entry in data["results"]:
        lines.extend(_render_block(f"seed {entry['seed']}", entry["order"],
                                   entry["estimators"], labels, scale))
        lines.append("")
    if len(data["results"]) > 1:
        order = data["results"][0]["order"]
        med_rows: dict[str, dict] = {}
        for n in order:
            per_window = {}
            for lbl in labels:
                vals = [e["estimators"][n]["windows"][lbl]
                        for e in data["results"]
                        if e["estimators"][n]["failure"] is None
                        and lbl in e["estimators"][n]["windows"]]
                if vals:
                    per_window[lbl] = _median(vals)
            seconds = _median([e["estimators"][n]["seconds"] for e in data["results"]])
            failures = [e["estimators"][n]["failure"] for e in data["results"]]
            med_rows[n] = {"windows": per_window, "seconds": seconds,
                           "failure": next((f for f in failures if f), None)}
        seeds = ", ".join(str(s) for s in data["seeds"])
        lines.extend(_render_block(f"median over seeds {seeds}", order,
                                   med_rows, labels, scale))
        lines.append("")
    return "\n".join(lines)


def write_summary_csv(path, data: dict) -> None:
    labels = _window_labels(data)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["seed", "estimator"] + [f"err_{lbl}" for lbl in labels] + \
            ["seconds", "failure"]
        fh.write(",".join(header) + "\n")
        for entry in data["results"]:
            for name in entry["order"]:
                res = entry["estimators"][name]
                cells = [str(entry["seed"]), name]
                for lbl in labels:
                    v = res["windows"].get(lbl)
                    cells.append("" if v is None else format(v, ".17g"))
                cells.append(format(res["seconds"], ".4f"))
                cells.append(res["failure"] or "")
                fh.write(",".join(cells) + "\n")


def write_run_csv(out_dir, run: SeedRun) -> Path:
    """Write one seed's run CSV into out_dir, creating the directory if need
    be, and return its path.  Any report.json, summary.csv or table.txt in
    out_dir is removed first: until `emit_report` rewrites them they describe
    an earlier run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _REPORT_FILES:
        (out / name).unlink(missing_ok=True)
    path = out / _RUN_CSV.format(seed=run.seed)
    save_trajectory(path, run.trajectory, run.csv_columns())
    return path


def emit_report(report: RunReport, fmt: str,
                out_dir) -> tuple[Path, list[Path], str | None]:
    """Write the files that need every seed: report.json, summary.csv and,
    for fmt 'table', table.txt (the run CSVs are `write_run_csv`'s).  A fmt
    other than 'table' or 'csv' raises before any write.  Returns the path of
    report.json, the paths of the files after it and the table (None for
    'csv')."""
    if fmt not in ("table", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = report_to_dict(report)
    json_path, summary_path, table_path = (out / name for name in _REPORT_FILES)

    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    write_summary_csv(summary_path, data)
    later = [summary_path]

    table = None
    if fmt == "table":
        table = render_table(data)
        table_path.write_text(table, encoding="utf-8")
        later.append(table_path)
    return json_path, later, table


def _missing(obj, keys, where: str = "") -> list[str]:
    return [where + key for key in keys if not isinstance(obj, dict) or key not in obj]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _report_fault(data) -> str | None:
    """The first key or type in data that `render_table` and
    `write_summary_csv` cannot read, or None."""
    missing = _missing(data, ("horizon", "warmup", "metric", "windows", "seeds", "results"))
    if missing:
        return "missing " + ", ".join(missing)
    windows = data["windows"]
    if not (isinstance(windows, list) and all(
            isinstance(w, list) and len(w) == 2 and all(map(_number, w)) for w in windows)):
        return "windows must be a list of [start, end] number pairs"
    for key in ("seeds", "results"):
        if not isinstance(data[key], list):
            return f"{key} must be a list"
    for i, entry in enumerate(data["results"]):
        where = f"results[{i}]."
        missing = _missing(entry, ("seed", "order", "estimators"), where)
        if missing:
            return "missing " + ", ".join(missing)
        order = entry["order"]
        if not (isinstance(order, list) and all(isinstance(n, str) for n in order)):
            return f"{where}order must be a list of strings"
        rows = entry["estimators"] if isinstance(entry["estimators"], dict) else {}
        # the median block reads the first seed's roster in every seed, and
        # the scale every row's window errors
        names = dict.fromkeys([*order, *data["results"][0]["order"], *rows])
        missing = [m for name in names for m in _missing(
            rows.get(name), ("windows", "seconds", "failure"), f"{where}estimators[{name!r}].")]
        if missing:
            return "missing " + ", ".join(missing)
        for name in names:
            row, at = rows[name], f"{where}estimators[{name!r}]."
            errors = row["windows"]
            if not (isinstance(errors, dict) and all(map(_number, errors.values()))):
                return f"{at}windows must map window labels to numbers"
            if not _number(row["seconds"]):
                return f"{at}seconds must be a number"
            if not (row["failure"] is None or isinstance(row["failure"], str)):
                return f"{at}failure must be a string or null"
    return None


def load_report(path) -> dict:
    """Read back a persisted report.json (or the directory holding one); one
    that cannot be read, is not UTF-8 or JSON, or lacks a key rendering reads
    or holds it with the wrong type, is a `ConfigError`."""
    p = Path(path)
    if p.is_dir():
        p = p / "report.json"
    try:
        data = json.loads(read_utf8(p, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p} is not valid JSON: {exc}") from None
    fault = _report_fault(data)
    if fault:
        raise ConfigError(f"{p} is not a report: {fault}")
    return data
