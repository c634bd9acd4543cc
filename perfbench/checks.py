"""Correctness gate for one finished CLI task.

A task fails when any of these holds:

* its exit code is not 0 or 1 (2 is a usage error, 3 a numerical failure);
* an expected artifact is missing or malformed;
* ``trace.csv`` has the wrong row count or a field that does not parse, or
  its values disagree with the closed form of an exact-constant oracle;
* the JSON printed on stdout differs from the artifact it mirrors;
* the exit code disagrees with the certificate or report verdicts.

Exit 1 is a verdict (a certificate or check failed), not a task failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from tasks import (QUADRATIC_DIAGONALS, QUADRATIC_GAMMA, QUADRATIC_L,
                   REQUIRED_FUNCTIONS, Task, dim_of)

_REL_TOL = 1e-12
_ABS_TOL = 1e-300


def _close(a: float, b: float, rel: float = _REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) + _ABS_TOL


def _canonical(obj) -> str:
    # NaN never equals itself, so compare canonical text, not objects
    return json.dumps(obj, sort_keys=True, allow_nan=True)


def _load_json(path: Path, errors: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable JSON ({exc})")
        return None


def _stdout_json(stdout: str, errors: list):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        errors.append("stdout: no JSON line printed")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        errors.append(f"stdout: last line is not JSON ({exc})")
        return None


def _h_and_grad_norm(function: str, x: list[float]):
    """Closed-form (h, |grad h|) where the benchmark knows the oracle exactly."""
    if function in QUADRATIC_DIAGONALS:
        d = QUADRATIC_DIAGONALS[function]
        h = 0.5 * sum(di * xi * xi for di, xi in zip(d, x))
        g = math.sqrt(sum((di * xi) ** 2 for di, xi in zip(d, x)))
        return h, g
    if function == "sin_quadratic":
        t = x[0]
        return t * t + 3.0 * math.sin(t) ** 2, abs(2.0 * t + 3.0 * math.sin(2.0 * t))
    return None


def _expected_trace_rows(task: Task) -> tuple[int, int]:
    """(min, max) number of data rows trace.csv may hold."""
    p = task.params
    if task.command == "flow":
        n = max(1, round(float(p["t_end"]) / float(p["dt"]))) + 1
        return n, n
    return 1, p["max_iters"] + 1


def check_trace(task: Task, path: Path) -> tuple[list[str], int]:
    """(failures, steps): steps is the number of data rows minus one."""
    errors: list[str] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"trace.csv: unreadable ({exc})"], 0
    if not lines:
        return ["trace.csv: empty"], 0
    header = lines[0].split(",")
    index_name = "t" if task.command == "flow" else "k"
    dim = dim_of(task.function)
    want_head = [index_name] + [f"x{i}" for i in range(dim)] + ["h", "grad_norm"]
    if header[:len(want_head)] != want_head:
        errors.append(f"trace.csv: header {header[:len(want_head)]} != {want_head}")
        return errors, 0
    rows = lines[1:]
    lo, hi = _expected_trace_rows(task)
    if not lo <= len(rows) <= hi:
        want = str(lo) if lo == hi else f"{lo}..{hi}"
        errors.append(f"trace.csv: {len(rows)} data rows, expected {want}")
    dt = float(task.params["dt"]) if task.command == "flow" else None
    for k, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != len(header):
            errors.append(f"trace.csv row {k}: {len(fields)} fields, "
                          f"header has {len(header)}")
            break
        try:
            vals = [float(v) for v in fields]
        except ValueError:
            errors.append(f"trace.csv row {k}: unparsable field in {line!r}")
            break
        index = k * dt if dt is not None else float(k)
        if vals[0] != index:
            errors.append(f"trace.csv row {k}: index {vals[0]!r} != {index!r}")
            break
        exact = _h_and_grad_norm(task.function, vals[1:1 + dim])
        if exact is not None and not (_close(vals[1 + dim], exact[0])
                                      and _close(vals[2 + dim], exact[1])):
            errors.append(f"trace.csv row {k}: h/grad_norm "
                          f"{vals[1 + dim]!r}/{vals[2 + dim]!r} != closed form "
                          f"{exact[0]!r}/{exact[1]!r}")
            break
    return errors, max(len(rows) - 1, 0)


def _check_certificates(certs, exit_code: int) -> list[str]:
    if not isinstance(certs, list) or not certs or not all(
            isinstance(c, dict) and "kind" in c and isinstance(c.get("satisfied"), bool)
            for c in certs):
        return ["certificate.json: expected a non-empty list of certificates "
                "with kind and satisfied"]
    verdict = all(c["satisfied"] for c in certs)
    if verdict != (exit_code == 0):
        return [f"exit {exit_code} disagrees with certificates "
                f"(all satisfied = {verdict})"]
    return []


def _check_report(report, errors: list) -> bool | None:
    keys = ("property", "holds_on_samples", "samples_tested", "violations_count")
    if not isinstance(report, dict) or any(k not in report for k in keys):
        errors.append("certificate.json: report lacks " + ", ".join(keys))
        return None
    if report["samples_tested"] < 1:
        errors.append(f"report {report['property']}: no samples tested")
    if report["holds_on_samples"] != (report["violations_count"] == 0):
        errors.append(f"report {report['property']}: verdict disagrees with "
                      "its violation count")
    return report["holds_on_samples"]


def _check_verify(task: Task, payload, exit_code: int) -> tuple[list[str], int]:
    """(failures, samples tested over all reports)."""
    errors: list[str] = []
    if task.params["property"] == "ladder":
        if not isinstance(payload, dict) or "reports" not in payload \
                or "implications_broken" not in payload:
            return ["certificate.json: ladder payload lacks reports"], 0
        reports = payload["reports"]
        if len(reports) < 12:
            errors.append(f"ladder: {len(reports)} reports, expected >= 12")
        for r in reports:
            _check_report(r, errors)
        ok = None if errors else not payload["implications_broken"]
    else:
        reports = [payload]
        ok = _check_report(payload, errors)
        if ok is not None and payload["property"] != task.params["property"]:
            errors.append(f"report property {payload['property']!r} != "
                          f"{task.params['property']!r}")
    if ok is not None and ok != (exit_code == 0):
        errors.append(f"exit {exit_code} disagrees with the report verdict {ok}")
    if errors:
        return errors, 0
    return errors, sum(r["samples_tested"] for r in reports)


def _check_estimate(task: Task, payload, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"estimate exited {exit_code}"]
    which = task.params["constant"]
    if not isinstance(payload, dict) or payload.get("constant") != which:
        return [f"estimate.json: constant is not {which!r}"]
    value = payload.get("value")
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        return [f"estimate.json: value {value!r} is not finite and positive"]
    # sampled extrema can only err on one side of an exact constant
    if task.function in QUADRATIC_DIAGONALS:
        if which == "L0" and value > QUADRATIC_L * (1 + 1e-9):
            return [f"L0 estimate {value!r} exceeds the exact L = {QUADRATIC_L}"]
        if which == "gamma" and value < QUADRATIC_GAMMA * (1 - 1e-9):
            return [f"gamma estimate {value!r} is below the exact "
                    f"modulus {QUADRATIC_GAMMA}"]
    return []


def _check_list_functions(task: Task, stdout: str) -> list[str]:
    if task.params.get("json"):
        try:
            names = [e["name"] for e in json.loads(stdout)]
        except (ValueError, TypeError, KeyError) as exc:
            return [f"list-functions --json: malformed ({exc})"]
    else:
        names = [ln.split()[0] for ln in stdout.splitlines() if ln.strip()]
    missing = [n for n in REQUIRED_FUNCTIONS if n not in names]
    return [f"list-functions: missing {missing}"] if missing else []


def check_task(task: Task, exit_code: int, out_dir: Path,
               stdout: str) -> tuple[list[str], int]:
    """(failures, work): failures is empty when the task passed its gate;
    work is the samples tested (verify) or trace steps (flow, gd, hb)."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], 0
    if task.command == "list-functions":
        errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
        return errors + _check_list_functions(task, stdout), 0
    errors = [f"missing artifact {name}" for name in task.artifacts()
              if not (out_dir / name).is_file()]
    if errors:
        return errors, 0
    mirrored = "estimate.json" if task.command == "estimate" else "certificate.json"
    payload = _load_json(out_dir / mirrored, errors)
    printed = _stdout_json(stdout, errors)
    meta = _load_json(out_dir / "meta.json", errors)
    if errors:
        return errors, 0
    if _canonical(printed) != _canonical(payload):
        errors.append(f"printed JSON differs from {mirrored}")
    config = meta.get("config", {}) if isinstance(meta, dict) else {}
    if config.get("function") != task.function or config.get("task") != task.command:
        errors.append("meta.json: config does not name the task's function/command")
    if task.command == "estimate":
        return errors + _check_estimate(task, payload, exit_code), 0
    if task.command == "verify":
        more, work = _check_verify(task, payload, exit_code)
    else:
        more, work = check_trace(task, out_dir / "trace.csv")
        more = _check_certificates(payload, exit_code) + more
    return errors + more, work
