"""``repro-runner regress`` — the regression gate over benchmark runs.

The repository's benchmark is ``python3 perfbench/run.py``.  The
sentinel reads its saved stdout, a *transcript*: one JSON line per
operation, then, for a run of every workload, a plain-text table of the
metrics, then one JSON result line.  ``regress --against A [--against
...] --current B`` classifies transcript ``B`` against the pooled
baselines:

* **End to end.** Every untraced operation line gives its workload one
  sample of each end-to-end field (:data:`OP_FIELDS`: ``setup_s``,
  ``run_s`` and ``peak_rss_mb``).  Per field, the current median is
  compared with the median of the pooled baseline samples under the
  band ``max(min_rel, sigma * cv)``, where ``cv`` is the coefficient of
  variation (stddev/mean) of those baseline samples: quiet workloads
  get the tight floor, jittery ones earn a wider band, and a genuine
  2x regression clears any plausible band.  Verdicts are **PASS**,
  **REGRESSED** (above ``baseline * (1 + threshold)``), **IMPROVED**
  (below ``baseline / (1 + threshold)``), and **NEW** / **MISSING**
  for a workload on one side only; a REGRESSED field fails as
  ``<workload>/<field>``.
* **Counts.** Every result-line metric whose unit is ``count`` (the
  work counts of a ``--trace 1`` run, such as ``engine.events``) is
  deterministic, so it is gated exactly: any difference is **CHANGED**
  and fails, whatever the band.  Counts are keyed
  ``<workload>/<metric>``; a single-workload run's bare names get its
  workload as prefix, so either form of run compares with the other.
* **Digests.** A workload whose result digest differs from the
  baseline's is reported; the digest pins in the test suite are the
  hard gate on results.

The newest baseline (the last ``--against``) carrying a count or digest
is its anchor.  The exit code is 1 iff a workload's end-to-end field
REGRESSED or a count CHANGED.  A transcript that cannot be trusted is an
error, never a verdict: no operation lines, a failed operation,
``"correct": false``, an untraced operation without a positive value of
every end-to-end field, or seeds unlike the current run's.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

__all__ = [
    "REGRESS_SCHEMA_ID",
    "evaluate",
    "load_transcript",
    "noise_bands",
    "regress_table",
]

REGRESS_SCHEMA_ID = "repro.regress/3"

#: Relative slowdown floor: never flag less than a 10% delta, however
#: quiet the baseline samples look.
DEFAULT_MIN_REL = 0.10
#: Band width in baseline noise units (coefficients of variation).
DEFAULT_SIGMA = 4.0
#: The end-to-end fields of an operation line, each gated by the same
#: band rules, with the format of their values in the table.
OP_FIELDS = {
    "setup_s": "{:.3f}s",
    "run_s": "{:.3f}s",
    "peak_rss_mb": "{:.1f} MB",
}


def load_transcript(path: Union[str, Path]) -> dict:
    """Read one saved ``perfbench/run.py`` stdout (raises ``ValueError``).

    Returns ``{"path", "seeds", "samples", "digests", "counts"}``:
    ``samples`` maps each of :data:`OP_FIELDS` to a map of each workload
    to its untraced operations' values, ``digests`` maps each workload to
    its result digest, and ``counts`` maps ``<workload>/<metric>`` to
    every count metric of the result line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise ValueError(f"{path}: {error.strerror or error}") from error
    ops: List[dict] = []
    result = None
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # the metric table of a run of every workload
        if isinstance(record, dict) and "op" in record:
            ops.append(record)
        elif isinstance(record, dict) and "metrics" in record:
            result = record
    if not ops:
        raise ValueError(f"{path}: no perfbench op lines")
    samples: Dict[str, Dict[str, List[float]]] = {
        field: {} for field in OP_FIELDS}
    digests: Dict[str, object] = {}
    for op in ops:
        workload = op.get("workload")
        if op.get("failures"):
            raise ValueError(
                f"{path}: op {op['op']} of {workload} failed: "
                f"{op['failures'][0]}")
        digests.setdefault(workload, op.get("digest"))
        if op.get("traced"):
            continue
        for field, into in samples.items():
            value = op.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"{path}: op {op['op']} of {workload} "
                                 f"reports no positive {field}")
            into.setdefault(workload, []).append(float(value))
    if result is None:
        raise ValueError(f"{path}: no result line")
    if result.get("correct") is not True:
        raise ValueError(f"{path}: the result line says correct: "
                         f"{json.dumps(result.get('correct'))}")
    counts = {
        (name if "/" in name else f"{ops[0]['workload']}/{name}"):
            metric.get("value")
        for name, metric in result["metrics"].items()
        if isinstance(metric, Mapping) and metric.get("unit") == "count"
    }
    return {
        "path": str(path),
        "seeds": sorted({op.get("seed") for op in ops}, key=str),
        "samples": samples,
        "digests": digests,
        "counts": counts,
    }


def noise_bands(
    baselines: Sequence[Mapping],
    min_rel: float = DEFAULT_MIN_REL,
    sigma: float = DEFAULT_SIGMA,
    field: str = "run_s",
) -> Dict[str, Dict[str, object]]:
    """Per-workload noise bands of one of :data:`OP_FIELDS`, fitted from
    pooled baseline samples.

    Pooling every baseline's operations gives the band more degrees of
    freedom than any one run; a single sample falls back to the
    ``min_rel`` floor (cv is 0).
    """
    pooled: Dict[str, List[float]] = {}
    for transcript in baselines:
        for workload, values in transcript["samples"][field].items():
            pooled.setdefault(workload, []).extend(values)
    bands: Dict[str, Dict[str, object]] = {}
    for workload, samples in pooled.items():
        cv = (statistics.stdev(samples) / statistics.fmean(samples)
              if len(samples) > 1 else 0.0)
        bands[workload] = {
            "samples": samples,
            "median": statistics.median(samples),
            "cv": cv,
            "threshold": max(min_rel, sigma * cv),
        }
    return bands


def _band_rows(
    current: Mapping[str, List[float]],
    bands: Mapping[str, Mapping[str, object]],
) -> List[Dict[str, object]]:
    """One verdict row per workload: the current median against its band."""
    rows: List[Dict[str, object]] = []
    for name in sorted(set(bands) | set(current)):
        band = bands.get(name)
        if band is None or name not in current:
            rows.append(
                {"name": name, "verdict": "NEW" if band is None else "MISSING"})
            continue
        current_median = statistics.median(current[name])
        threshold = float(band["threshold"])
        ratio = current_median / float(band["median"])
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
        elif ratio < 1.0 / (1.0 + threshold):
            verdict = "IMPROVED"
        else:
            verdict = "PASS"
        rows.append({
            "name": name,
            "verdict": verdict,
            "current_median": current_median,
            "baseline_median": band["median"],
            "baseline_samples": len(band["samples"]),
            "cv": band["cv"],
            "threshold": threshold,
            "ratio": ratio,
        })
    return rows


def evaluate(
    current: Mapping,
    baselines: Sequence[Mapping],
    min_rel: float = DEFAULT_MIN_REL,
    sigma: float = DEFAULT_SIGMA,
) -> dict:
    """Classify one current transcript against baseline transcripts."""
    if min_rel < 0:
        raise ValueError("min_rel must be >= 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if not baselines:
        raise ValueError("regress needs at least one baseline transcript")
    for transcript in baselines:
        if transcript["seeds"] != current["seeds"]:
            raise ValueError(
                f"{transcript['path']}: seed {transcript['seeds']} differs "
                f"from {current['seeds']} in {current['path']}")
    # Dict order: the newest baseline carrying a name wins.
    base_digests = {name: digest for transcript in baselines
                    for name, digest in transcript["digests"].items()}
    base_counts = {name: value for transcript in baselines
                   for name, value in transcript["counts"].items()}

    fields = {
        field: _band_rows(
            current["samples"][field],
            noise_bands(baselines, min_rel=min_rel, sigma=sigma, field=field),
        )
        for field in OP_FIELDS
    }
    digests = [
        {
            "name": name,
            "digest": current["digests"][name],
            "baseline_digest": base_digests[name],
        }
        for name in sorted(set(current["digests"]) & set(base_digests))
    ]

    counts: List[Dict[str, object]] = []
    for name in sorted(set(base_counts) | set(current["counts"])):
        if name not in base_counts:
            verdict = "NEW"
        elif name not in current["counts"]:
            verdict = "MISSING"
        else:
            verdict = ("PASS" if current["counts"][name] == base_counts[name]
                       else "CHANGED")
        counts.append({"name": name, "verdict": verdict,
                       "current": current["counts"].get(name),
                       "baseline": base_counts.get(name)})

    failed = [
        f"{row['name']}/{field}"
        for field, rows in fields.items()
        for row in rows
        if row["verdict"] == "REGRESSED"
    ]
    failed += [row["name"] for row in counts if row["verdict"] == "CHANGED"]
    return {
        "schema": REGRESS_SCHEMA_ID,
        "current": current["path"],
        "baselines": [transcript["path"] for transcript in baselines],
        "seeds": current["seeds"],
        "min_rel": min_rel,
        "sigma": sigma,
        "fields": fields,
        "digests": digests,
        "counts": counts,
        "failed": failed,
        "verdict": "FAIL" if failed else "PASS",
        "exit_code": 1 if failed else 0,
    }


def regress_table(report: Mapping) -> str:
    """Human-readable rendering of one :func:`evaluate` report."""
    lines = [
        f"regress: {report['current']} vs {' + '.join(report['baselines'])} "
        f"(seed {', '.join(map(str, report['seeds']))}, "
        f"min_rel={report['min_rel']:.0%}, sigma={report['sigma']:g})"
    ]
    named = set()
    for field, rows in report["fields"].items():
        value = OP_FIELDS[field]
        for row in rows:
            if row["verdict"] in ("NEW", "MISSING"):
                if row["name"] not in named:
                    named.add(row["name"])
                    lines.append(f"  {row['verdict']:9s} {row['name']}")
                continue
            lines.append(
                f"  {row['verdict']:9s} {row['name']}: {field} "
                f"{value.format(row['current_median'])} vs "
                f"{value.format(row['baseline_median'])} "
                f"({row['ratio']:.2f}x, band +/-{row['threshold']:.0%}, "
                f"{row['baseline_samples']} baseline samples)")
    for row in report["digests"]:
        if row["digest"] != row["baseline_digest"]:
            lines.append(f"  NOTE      {row['name']}: digest changed: "
                         f"{str(row['baseline_digest'])[:16]} -> "
                         f"{str(row['digest'])[:16]}")
    verdicts = [row["verdict"] for row in report["counts"]]
    lines.append(
        f"  counts: {verdicts.count('PASS')} equal, "
        f"{verdicts.count('CHANGED')} changed, "
        f"{verdicts.count('NEW') + verdicts.count('MISSING')} on one side "
        f"only")
    for row in report["counts"]:
        if row["verdict"] == "CHANGED":
            lines.append(f"  CHANGED   {row['name']}: "
                         f"{row['current']} vs {row['baseline']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)
