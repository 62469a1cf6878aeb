"""Compare sets of end-to-end runs (``run.py --out`` files).

    python benchmarks/e2e/compare.py agree --a A1.json A2.json ... \
        --b B1.json B2.json ...
    python benchmarks/e2e/compare.py pairs --parent P1.json ... \
        --change C1.json ...

``agree`` checks two sets of runs of one commit: for every bounded
end-to-end metric and workload, the second set's median is within the
metric's bound of the first's; the reported metrics are listed without a
verdict.  ``pairs`` takes at least ten parent/change pairs (``--parent``
and ``--change`` in pair order; run them alternating which side goes
first) and reports each side's median and quartiles and the share of
pairs the change won (ties count for neither).  A metric is a gain only
when the change wins at least 9 of 10 pairs and the medians differ by
more than the parent's interquartile range.  A bounded metric is a
regression when the change's median is worse by more than the bound, and
unresolved when the parent's own spread exceeds the bound, unless every
change run beats every parent run.  A reported metric, which has no
bound, is worse when the parent wins by the rule a gain needs.  Both
modes exit 1 on a failure (disagreement, regression or worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from spec import END_TO_END, REPORTED

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per file."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("trace"):
            raise SystemExit(f"{path}: traced runs carry no end-to-end "
                             "metrics")
        for wl, res in doc["workloads"].items():
            for metric, value in {**res["metrics"],
                                  **res["reported"]}.items():
                out.setdefault(wl, {}).setdefault(metric, []).append(value)
    return out


def metrics():
    """(name, better, bound) of every bounded, then every reported,
    end-to-end metric; a reported one has bound None."""
    return ([(m, better, bound) for m, _, better, bound in END_TO_END]
            + [(m, better, None) for m, _, better in REPORTED])


def title(metric: str, better: str, bound) -> str:
    limit = f"bound {bound:.0%}" if bound is not None else "reported"
    return f"{metric} ({limit}, {better} is better)"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(q) -> str:
    return f"{q[1]:10.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def worse_by(better: str, base: float, other: float) -> float:
    """Relative amount by which ``other`` is worse than ``base``."""
    change = (other - base) / base if base else 0.0
    return change if better == "lower" else -change


def agree(a: dict, b: dict) -> int:
    bad = 0
    for metric, better, bound in metrics():
        print(title(metric, better, bound))
        print(f"  {'workload':12s} {'set A median [q1, q3]':>30s} "
              f"{'set B median [q1, q3]':>30s} {'diff':>7s}")
        for wl in a:
            if metric not in a[wl] or metric not in b.get(wl, {}):
                continue
            qa, qb = quartiles(a[wl][metric]), quartiles(b[wl][metric])
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            verdict = ""
            if bound is not None:
                ok = abs(diff) <= bound
                bad += not ok
                verdict = "agree" if ok else "DISAGREE"
            print(f"  {wl:12s} {fmt(qa):>30s} {fmt(qb):>30s} "
                  f"{diff:+7.1%} {verdict}")
    return 1 if bad else 0


def pairs(parent: dict, change: dict, count: int) -> int:
    bad = 0
    for metric, better, bound in metrics():
        print(title(metric, better, bound))
        print(f"  {'workload':12s} {'parent median [q1, q3]':>30s} "
              f"{'change median [q1, q3]':>30s} {'wins':>6s}  verdict")
        for wl in parent:
            p = parent[wl].get(metric)
            c = change.get(wl, {}).get(metric)
            if not p or not c:
                continue
            qp, qc = quartiles(p), quartiles(c)
            wins = sum(worse_by(better, pv, cv) < 0 for pv, cv in zip(p, c))
            losses = sum(worse_by(better, pv, cv) > 0 for pv, cv in zip(p, c))
            iqr = qp[2] - qp[0]
            gap = abs(qc[1] - qp[1]) > iqr
            all_better = (max(c) < min(p) if better == "lower"
                          else min(c) > max(p))
            improved = worse_by(better, qp[1], qc[1]) < 0
            gain = wins / count >= WIN_SHARE and improved and gap
            if bound is None:
                verdict = "gain" if gain else "no clear change"
                if losses / count >= WIN_SHARE and not improved and gap:
                    verdict = "WORSE"
                    bad += 1
            elif iqr / qp[1] > bound and not all_better:
                verdict = "unresolved"
            elif gain:
                verdict = "gain"
            elif worse_by(better, qp[1], qc[1]) > bound:
                verdict = "REGRESSION"
                bad += 1
            else:
                verdict = "within bound"
            print(f"  {wl:12s} {fmt(qp):>30s} {fmt(qc):>30s} "
                  f"{wins:3d}/{count:<2d}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("agree", help="two sets of runs of one commit")
    p.add_argument("--a", nargs="+", required=True)
    p.add_argument("--b", nargs="+", required=True)
    p = sub.add_parser("pairs", help="alternating parent/change pairs")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    if args.mode == "agree":
        return agree(load(args.a), load(args.b))
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        ap.error(f"pairs needs at least {MIN_PAIRS} parent/change pairs "
                 "of equal count")
    return pairs(load(args.parent), load(args.change), len(args.parent))


if __name__ == "__main__":
    sys.exit(main())
