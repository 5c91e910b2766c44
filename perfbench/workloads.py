"""The three benchmark workloads: set-up, one timed pass, output checks.

Each workload drives the documented CLI (``vibroaudit.cli.main``) through
``ctx.cli`` and checks its outputs through ``ctx.check`` against the
independent computations in :mod:`oracles` or against properties the
method must have.  Sizes are fixed here and documented in README.md;
the seed given to the benchmark is both the scenario seed and the audit
seed.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.stats import fisher_exact

import oracles

LABEL_COLUMNS = ("session_id", "repetition_index", "subject", "health", "side", "device")

# the feature band the device-shift and day-nuisance scenarios recommend
# (sigsynth.recommended_feature_config); passed with --config because the
# CLI's automatic Nyquist clamp never runs (see CHANGES.md)
LOW_RATE_CONFIG = {"band_lo": 250.0, "band_hi": 6000.0}


# ---------------------------------------------------------------------------
# independent readers of the program's files


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_feature_csv(path: Path):
    """(labels by column, feature names, float matrix) of a feature CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_id = len(LABEL_COLUMNS)
    labels = {c: np.array([r[j] for r in body], dtype=object) for j, c in enumerate(LABEL_COLUMNS)}
    X = np.array([[float(v) for v in r[n_id:]] for r in body], dtype=np.float64)
    return labels, header[n_id:], X


def read_series(path: Path, column: str) -> np.ndarray:
    """One numeric column of a series CSV; empty cells read as NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([float(r[column]) if r[column] else math.nan for r in csv.DictReader(fh)])


def principal_angle(z: np.ndarray, side: np.ndarray) -> float:
    """Angle in [0, 90] between the leading principal axes of two sides."""
    axes = []
    for v in sorted(set(side.tolist())):
        _, vecs = np.linalg.eigh(np.cov(z[side == v].T))
        axes.append(vecs[:, -1])
    c = abs(float(np.dot(axes[0], axes[1])))
    return math.degrees(math.acos(min(1.0, c)))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up writes the inputs; prepare derives check data from them."""

    def prepare(self, ctx, data: Path) -> None:
        pass


class ToneFrontEnd(Workload):
    """tone-bias at 100 kHz: band scan (five 10 kHz bands) and tones."""

    name = "tone-front-end"
    SUBJECTS, REPETITIONS, DURATION_S = 8, 12, 0.3
    NEAR_HZ = 100.0

    def setup(self, ctx, data: Path) -> None:
        ctx.cli(["synth", "--scenario", "tone-bias", "--subjects", str(self.SUBJECTS),
                 "--repetitions", str(self.REPETITIONS), "--duration", str(self.DURATION_S),
                 "--seed", str(ctx.seed), "--out", str(data)])

    def run_pass(self, ctx, data: Path, out: Path) -> None:
        manifest = str(data / "manifest.json")
        ctx.cli(["audit", "band-scan", "--manifest", manifest, "--seed", str(ctx.seed),
                 "--out", str(out / "band_scan")])
        ctx.cli(["audit", "tones", "--manifest", manifest, "--seed", str(ctx.seed),
                 "--out", str(out / "tones")])

    def check(self, ctx, data: Path, out: Path) -> None:
        truth = read_json(data / "ground_truth.json")
        tone = next(s for s in truth["world"]["sources"] if s["kind"] == "tone")
        f_tone = tone["waveform_params"]["freq"]

        scan = read_json(out / "band_scan" / "report.json")["sections"]["band_scan"]
        lo, hi = scan["best_band"]
        ctx.check("best band holds the planted tone", lo <= f_tone <= hi,
                  f"best band {lo}-{hi} Hz, tone {f_tone} Hz")

        sections = read_json(out / "tones" / "report.json")["sections"]
        with_tone = {
            sid for sid, s in truth["sessions"].items()
            if any(r["observed_event"].get(tone["name"]) for r in s["repetitions"])
        }
        detected = {
            sid for sid, dets in sections["tones"]["sessions"].items()
            if any(abs(d["center_freq_hz"] - f_tone) <= self.NEAR_HZ for d in dets)
        }
        ctx.check("tone detections match ground truth", detected == with_tone,
                  f"detected {sorted(detected)}, rendered {sorted(with_tone)}")

        prev = sections["prevalence"]
        (k1, n1), (k2, n2) = (prev["counts"][c] for c in prev["classes"])
        p_ref = fisher_exact([[k1, n1 - k1], [k2, n2 - k2]], alternative="two-sided").pvalue
        ctx.check("prevalence p equals fisher_exact",
                  math.isclose(prev["p_value"], p_ref, rel_tol=1e-9, abs_tol=1e-15),
                  f"{prev['p_value']} vs {p_ref}")


class DeviceMonteCarlo(Workload):
    """device-shift at 16 kHz: covariate, condition, mixing, rotate."""

    name = "device-montecarlo"
    CONTROL_REPEATS, MIXING_REPEATS = 50, 2
    CONTROL_FRACTION, QUANTILE = 0.5, 0.025
    PAIR = ("mfcc01_mean", "mfcc02_mean")
    GRID = [float(t) for t in range(0, 91, 5)]

    def setup(self, ctx, data: Path) -> None:
        ctx.cli(["synth", "--scenario", "device-shift", "--seed", str(ctx.seed),
                 "--out", str(data / "cohort")])
        (data / "config.json").write_text(json.dumps(LOW_RATE_CONFIG), encoding="utf-8")
        ctx.cli(["features", "--manifest", str(data / "cohort" / "manifest.json"),
                 "--config", str(data / "config.json"), "--out", str(data / "features.csv")])

    def prepare(self, ctx, data: Path) -> None:
        self.labels, names, self.X = read_feature_csv(data / "features.csv")
        pair = self.X[:, [names.index(n) for n in self.PAIR]]
        self.z = (pair - pair.mean(axis=0)) / pair.std(axis=0)
        self.phi = principal_angle(self.z, self.labels["side"])
        # the observed angle joins the grid, where the rotation is the identity
        self.grid = self.GRID + [self.phi]

    def run_pass(self, ctx, data: Path, out: Path) -> None:
        features, seed = str(data / "features.csv"), str(ctx.seed)
        ctx.cli(["audit", "covariate", "--features", features, "--covariate", "device",
                 "--seed", seed, "--out", str(out / "covariate")])
        ctx.cli(["audit", "condition", "--features", features, "--covariate", "device",
                 "--repeats", str(self.CONTROL_REPEATS), "--quantile", str(self.QUANTILE),
                 "--seed", seed, "--out", str(out / "condition")])
        ctx.cli(["audit", "mixing", "--features", features, "--covariate", "device",
                 "--repeats", str(self.MIXING_REPEATS), "--seed", seed,
                 "--out", str(out / "mixing")])
        ctx.cli(["audit", "rotate", "--features", features, "--feature-pair", ",".join(self.PAIR),
                 "--grid-degrees", ",".join(repr(t) for t in self.grid),
                 "--seed", seed, "--out", str(out / "rotate")])

    def check(self, ctx, data: Path, out: Path) -> None:
        labels, X = self.labels, self.X
        subject, health = labels["subject"], labels["health"]

        cov = read_json(out / "covariate" / "report.json")["sections"]["covariate"]
        cov = cov["covariates"]["device"]
        ref = oracles.loso(X, subject, labels["device"])
        ok = oracles.accuracy_matches(cov["accuracy"], ref)
        for g, acc in cov["per_group_accuracy"].items():
            rows = subject == g
            slack = ref["ambiguous"][rows].sum() / rows.sum()
            ok &= abs(acc - ref["correct"][rows].mean()) <= slack + 1e-12
        ctx.check("device LOSO predictions match the oracle", ok,
                  f"program {cov['accuracy']}, oracle {ref['accuracy']}")

        cond = read_json(out / "condition" / "report.json")["sections"]["conditioning"]
        full = oracles.loso(X, subject, health)
        ctx.check("full-table LOSO accuracy matches the oracle",
                  oracles.accuracy_matches(cond["full_accuracy"], full),
                  f"program {cond['full_accuracy']}, oracle {full['accuracy']}")
        ok = True
        for v, acc in cond["stratum_accuracy"].items():
            if acc is None:  # undefined stratum (reports write NaN as null)
                continue
            rows = labels["device"] == v
            ok &= oracles.accuracy_matches(acc, oracles.loso(X[rows], subject[rows], health[rows]))
        ctx.check("stratum accuracies match the oracle", ok, str(cond["stratum_accuracy"]))

        control = read_series(out / "condition" / "conditioning_control.csv", "accuracy")
        groups = sorted(set(subject.tolist()))
        k = int(round(self.CONTROL_FRACTION * len(groups)))
        ok = len(control) == self.CONTROL_REPEATS
        for i in (0, len(control) // 2, len(control) - 1):
            picked = oracles.philox(ctx.seed, "control", i).choice(len(groups), size=k, replace=False)
            rows = np.isin(subject, [groups[j] for j in picked])
            if len(set(health[rows].tolist())) < 2:
                ok &= math.isnan(control[i])
                continue
            ok &= oracles.accuracy_matches(control[i], oracles.loso(X[rows], subject[rows], health[rows]))
        ctx.check("control draws redrawn and rescored match the CSV", ok, f"{len(control)} draws")

        valid = control[~np.isnan(control)]
        cutoff = float(np.quantile(valid, self.QUANTILE))
        below = sorted(v for v, a in cond["stratum_accuracy"].items()
                       if a is not None and a < cutoff)
        ctx.check("control cutoff and flagged strata",
                  cutoff == cond["control"]["cutoff"] and below == sorted(cond["flagged_strata"]),
                  f"cutoff {cond['control']['cutoff']} vs {cutoff}, flagged {cond['flagged_strata']}")

        mix = read_json(out / "mixing" / "report.json")["sections"]["mixing_curve"]
        ok = all(s["n_valid"] + s["n_invalid"] == self.MIXING_REPEATS
                 for s in mix["stratified"] + mix["reference"])
        last = mix["stratified"][-1]
        ok &= last["std"] == 0.0 and last["q025"] == last["q975"]
        ok &= oracles.accuracy_matches(mix["full_accuracy"], full)
        ctx.check("mixing sample counts and full-stratum value", ok,
                  f"{len(mix['counts'])} counts, last {last}")

        rot = read_json(out / "rotate" / "report.json")["sections"]["rotation"]
        at_phi = dict((t, a) for t, a in rot["accuracy_vs_rotation"])[self.phi]
        ok = abs(rot["phi_degrees"] - self.phi) < 1e-6 and at_phi == rot["unmodified_accuracy"]
        ok &= oracles.accuracy_matches(rot["unmodified_accuracy"], oracles.loso(self.z, subject, health))
        ctx.check("rotation at the observed angle is the unmodified accuracy", ok,
                  f"phi {rot['phi_degrees']} vs {self.phi}, {at_phi} vs {rot['unmodified_accuracy']}")


class DayRegroup(Workload):
    """day-nuisance: features, then counterfactual with the day relabel."""

    name = "day-regroup"
    PERMUTATIONS = 200

    def setup(self, ctx, data: Path) -> None:
        ctx.cli(["synth", "--scenario", "day-nuisance", "--seed", str(ctx.seed),
                 "--out", str(data / "cohort")])
        (data / "config.json").write_text(json.dumps(LOW_RATE_CONFIG), encoding="utf-8")

    def run_pass(self, ctx, data: Path, out: Path) -> None:
        ctx.cli(["features", "--manifest", str(data / "cohort" / "manifest.json"),
                 "--config", str(data / "config.json"), "--out", str(out / "features.csv")])
        ctx.cli(["audit", "counterfactual", "--features", str(out / "features.csv"),
                 "--repeats", str(self.PERMUTATIONS), "--seed", str(ctx.seed),
                 "--out", str(out / "counterfactual")])

    def check(self, ctx, data: Path, out: Path) -> None:
        manifest = read_json(data / "cohort" / "manifest.json")
        expected = sum(s["n_repetitions"] for s in manifest["sessions"])
        labels, _, X = read_feature_csv(out / "features.csv")
        ctx.check("feature CSV has sessions x repetitions finite rows",
                  X.shape[0] == expected and bool(np.isfinite(X).all()),
                  f"{X.shape[0]} rows for {expected}")

        # the CLI's automatic regrouping: sessions sorted, first half Healthy
        sessions = labels["session_id"]
        days = sorted(set(sessions.tolist()))
        n_first = len(days) // 2

        def scored(first: set) -> dict:
            target = np.array(["Healthy" if s in first else "Unhealthy" for s in sessions], dtype=object)
            return oracles.loso(X, sessions, target)

        cf = read_json(out / "counterfactual" / "report.json")["sections"]["counterfactual"]
        observed = scored(set(days[:n_first]))
        ctx.check("observed counterfactual accuracy matches the oracle",
                  oracles.accuracy_matches(cf["accuracy"], observed),
                  f"program {cf['accuracy']}, oracle {observed['accuracy']}")

        refs = [scored(set(first)) for first in combinations(days, n_first)]
        null = read_series(out / "counterfactual" / "counterfactual_null.csv", "accuracy")
        ok = len(null) == self.PERMUTATIONS and all(
            any(oracles.accuracy_matches(a, ref) for ref in refs) for a in null
        )
        ctx.check("every null accuracy is an enumerated assignment's", ok,
                  f"{len(set(null.tolist()))} distinct nulls, {len(refs)} assignments")


WORKLOADS = {w.name: w for w in (ToneFrontEnd, DeviceMonteCarlo, DayRegroup)}
