"""``repro-runner regress`` — the regression gate over benchmark runs.

The repository's benchmark is ``python3 perfbench/run.py``.  The
sentinel reads its saved stdout, a *transcript*: one JSON line per
operation, then, for a run of every workload, a plain-text table of the
metrics, then one JSON result line.  ``regress --against A [--against
...] --current B`` classifies transcript ``B`` against the pooled
baselines:

* **Time.** Every untraced operation line gives its workload one
  ``run_s`` sample.  The current median is compared with the median of
  the pooled baseline samples under the band ``max(min_rel, sigma *
  cv)``, where ``cv`` is the coefficient of variation (stddev/mean) of
  those baseline samples: quiet workloads get the tight floor, jittery
  ones earn a wider band, and a genuine 2x slowdown clears any
  plausible band.  Verdicts are **PASS**, **REGRESSED** (slower than
  ``baseline * (1 + threshold)``), **IMPROVED** (faster than
  ``baseline / (1 + threshold)``), and **NEW** / **MISSING** for a
  workload on one side only.
* **Memory.** Every untraced operation line also gives its workload one
  ``peak_rss_mb`` sample, classified by the same band rules; a
  workload whose memory REGRESSED fails as ``<workload>/peak_rss_mb``.
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
is its anchor.  The exit code is 1 iff a workload's time or memory
REGRESSED or a count CHANGED.  A transcript that cannot be trusted is an
error, never a verdict: no operation lines, a failed operation,
``"correct": false``, an untraced operation without a positive
``run_s`` or ``peak_rss_mb``, or seeds unlike the current run's.
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

REGRESS_SCHEMA_ID = "repro.regress/2"

#: Relative slowdown floor: never flag less than a 10% delta, however
#: quiet the baseline samples look.
DEFAULT_MIN_REL = 0.10
#: Band width in baseline noise units (coefficients of variation).
DEFAULT_SIGMA = 4.0
#: The operation field the time gate compares: the timed workload run.
TIME_FIELD = "run_s"
#: The operation field the memory gate compares: the op's peak RSS.
MEMORY_FIELD = "peak_rss_mb"


def load_transcript(path: Union[str, Path]) -> dict:
    """Read one saved ``perfbench/run.py`` stdout (raises ``ValueError``).

    Returns ``{"path", "seeds", "samples", "memory", "digests",
    "counts"}``: ``samples`` maps each workload to its untraced ``run_s``
    values, ``memory`` to their ``peak_rss_mb`` values, ``digests`` to
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
    samples: Dict[str, List[float]] = {}
    memory: Dict[str, List[float]] = {}
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
        for field, into in ((TIME_FIELD, samples), (MEMORY_FIELD, memory)):
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
        "memory": memory,
        "digests": digests,
        "counts": counts,
    }


def noise_bands(
    baselines: Sequence[Mapping],
    min_rel: float = DEFAULT_MIN_REL,
    sigma: float = DEFAULT_SIGMA,
    key: str = "samples",
) -> Dict[str, Dict[str, object]]:
    """Per-workload noise bands fitted from pooled baseline samples.

    Pooling every baseline's operations gives the band more degrees of
    freedom than any one run; a single sample falls back to the
    ``min_rel`` floor (cv is 0).  ``key`` picks the transcript's time
    (``samples``) or memory (``memory``) samples.
    """
    pooled: Dict[str, List[float]] = {}
    for transcript in baselines:
        for workload, values in transcript[key].items():
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
    unit: str,
) -> List[Dict[str, object]]:
    """One verdict row per workload: the current median against its band.

    ``unit`` suffixes the median fields (``current_median_<unit>``).
    """
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
            f"current_median_{unit}": current_median,
            f"baseline_median_{unit}": band["median"],
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

    workloads = _band_rows(
        current["samples"],
        noise_bands(baselines, min_rel=min_rel, sigma=sigma), "s")
    for row in workloads:
        if row["verdict"] not in ("NEW", "MISSING"):
            row["digest"] = current["digests"].get(row["name"])
            row["baseline_digest"] = base_digests.get(row["name"])
    memory = _band_rows(
        current["memory"],
        noise_bands(baselines, min_rel=min_rel, sigma=sigma, key="memory"),
        "mb")

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

    failed = [row["name"] for row in workloads + counts
              if row["verdict"] in ("REGRESSED", "CHANGED")]
    failed += [f"{row['name']}/{MEMORY_FIELD}" for row in memory
               if row["verdict"] == "REGRESSED"]
    return {
        "schema": REGRESS_SCHEMA_ID,
        "current": current["path"],
        "baselines": [transcript["path"] for transcript in baselines],
        "seeds": current["seeds"],
        "min_rel": min_rel,
        "sigma": sigma,
        "workloads": workloads,
        "memory": memory,
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
    for row in report["workloads"]:
        if row["verdict"] in ("NEW", "MISSING"):
            lines.append(f"  {row['verdict']:9s} {row['name']}")
            continue
        lines.append(
            f"  {row['verdict']:9s} {row['name']}: {TIME_FIELD} "
            f"{row['current_median_s']:.3f}s vs "
            f"{row['baseline_median_s']:.3f}s ({row['ratio']:.2f}x, "
            f"band +/-{row['threshold']:.0%}, "
            f"{row['baseline_samples']} baseline samples)")
        if row["digest"] != row["baseline_digest"]:
            lines.append(f"            digest changed: "
                         f"{str(row['baseline_digest'])[:16]} -> "
                         f"{str(row['digest'])[:16]}")
    for row in report["memory"]:
        if row["verdict"] in ("NEW", "MISSING"):
            continue  # already named by its time row
        lines.append(
            f"  {row['verdict']:9s} {row['name']}: {MEMORY_FIELD} "
            f"{row['current_median_mb']:.1f} MB vs "
            f"{row['baseline_median_mb']:.1f} MB ({row['ratio']:.2f}x, "
            f"band +/-{row['threshold']:.0%})")
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
