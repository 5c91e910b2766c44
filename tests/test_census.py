"""Call census: every function in ``src/vibroaudit`` either runs in the
documented workflow or is listed in ``KEPT`` with the reason it stays.

The census renders each preset small (4 subjects x 3 repetitions x 0.4 s),
extracts its features and runs ``audit suite`` on it, at one worker thread,
under ``sys.setprofile`` and ``threading.setprofile``.  The documented
options that the suite does not take (``features --config``, ``audit
band-scan --bands``, ``audit tones --spectrogram-csv`` and ``audit
counterfactual --relabel``) run once more on the 16 kHz device-shift
cohort.  A function counts as reached when any call enters it.  The whole
census takes a few seconds.
"""

import ast
import json
import re
import sys
import threading
from pathlib import Path

import pytest

import vibroaudit
from vibroaudit.cli import EXIT_ERROR, main
from vibroaudit.sigsynth import SCENARIOS

SRC = Path(vibroaudit.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

_README_API = "named in the README's Python API"
_GATES = "imported by tests/test_acceptance.py as an oracle of the signal-chain gate"
_CAUSAL = "the causal framework behind the enumerated-ceiling gate"

# each function no census run reaches, with the reason it stays; an entry
# also covers the functions defined inside it, and a module entry every
# function of the module
KEPT = {
    "dataset.extract_features": _README_API,
    "report.read_report": _README_API,
    "report.strip_timing": _README_API,
    "dsp.fir_response_db": _GATES,
    "dsp.spectral_frame_energy": _GATES,
    "dsp.stft_complex": _GATES,
    "learn.fit_linear": "imported by tests/test_acceptance.py and perfbench/tests; "
                        "perfbench/spans.py patches it",
    "learn.predict": "imported by tests/test_acceptance.py and perfbench/tests",
    "learn.LinearModel.weight_vector": "called by learn.predict",
    "dataset.FeatureTable.select": "patched by perfbench/spans.py",
    "dsp.bandpass": "patched by perfbench/spans.py as dataset.bandpass",
    "sigsynth.posterior": _CAUSAL,
    "sigsynth.world.CompositeEvent": _CAUSAL,
    "sigsynth.world.WorldSpec.n_sources": _CAUSAL,
    "sigsynth.world.enumerate_composite_events": _CAUSAL,
    "sigsynth.world.event_index": _CAUSAL,
    "sigsynth.world.event_probability": _CAUSAL,
    "sigsynth.world.event_signs": _CAUSAL,
    "sigsynth.world.independent_sensor_channel": _CAUSAL,
    "dsp.Signal.duration": "runs only for a manifest with repetition_boundaries",
    "cli._Parser.error": "runs only on a usage error",
    "dataset._bad_number": "runs only on a feature CSV field that does not parse",
}


def _definitions() -> dict[tuple[str, int], str]:
    """Every ``def`` under SRC, keyed by (file, first line) as its code
    object gives them, named ``module.qualname``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{module}.")
    return found


def _run(*argv) -> int:
    code = main([str(a) for a in argv])
    assert code != EXIT_ERROR, argv
    return code


def _census_runs(tmp: Path) -> None:
    for preset in SCENARIOS:
        data, features = tmp / preset, tmp / f"{preset}.csv"
        _run("synth", "--scenario", preset, "--subjects", 4, "--repetitions", 3,
             "--duration", 0.4, "--seed", 0, "--out", data)
        _run("features", "--manifest", data / "manifest.json", "--out", features)
        _run("audit", "suite", "--manifest", data / "manifest.json", "--features", features,
             "--repeats", 5, "--feature-pair", "mfcc01_mean,mfcc02_mean",
             "--out", tmp / f"{preset}-audit")

    manifest = tmp / "device-shift" / "manifest.json"
    config, relabel = tmp / "config.json", tmp / "relabel.json"
    config.write_text(json.dumps({"band_lo": 250.0, "band_hi": 6000.0}))
    sessions = sorted(s["session_id"] for s in json.loads(manifest.read_text())["sessions"])
    relabel.write_text(json.dumps({
        sid: [f"g{i}", "Healthy" if 2 * i < len(sessions) else "Unhealthy"]
        for i, sid in enumerate(sessions)
    }))
    out = tmp / "options"
    _run("features", "--manifest", manifest, "--config", config, "--out", out / "features.csv")
    _run("audit", "band-scan", "--manifest", manifest, "--bands", "250-4000,4000-8000",
         "--out", out)
    _run("audit", "tones", "--manifest", manifest, "--spectrogram-csv", "--out", out)
    _run("audit", "counterfactual", "--features", out / "features.csv", "--relabel", relabel,
         "--repeats", 5, "--out", out)


def _clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, so that the census enters
    a cached function even when an earlier test filled its cache."""
    for name, module in list(sys.modules.items()):
        if name == "vibroaudit" or name.startswith("vibroaudit."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _covered_by(name: str, entry: str) -> bool:
    return name == entry or name.startswith(entry + ".")


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """(every definition's name, the names the census runs reach)."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    mp = pytest.MonkeyPatch()
    mp.setenv("VIBROAUDIT_THREADS", "1")
    previous = sys.getprofile(), threading.getprofile()
    _clear_caches()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        _census_runs(tmp_path_factory.mktemp("census"))
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
        mp.undo()

    definitions = _definitions()
    reached = {definitions.get((str(Path(f).resolve()), line)) for f, line in entered}
    return set(definitions.values()), reached - {None}


def test_definition_names_are_unique():
    names = list(_definitions().values())
    assert len(names) == len(set(names))


def test_every_unreached_function_is_kept_for_a_stated_reason(census):
    names, reached = census
    unlisted = sorted(n for n in names - reached if not any(_covered_by(n, e) for e in KEPT))
    assert unlisted == [], "no census run reaches these; delete them or list them in KEPT"


def test_every_kept_entry_names_functions_no_census_run_reaches(census):
    names, reached = census
    for entry, reason in KEPT.items():
        covered = {n for n in names if _covered_by(n, entry)}
        assert covered, f"{entry} names no function"
        assert not covered & reached, f"{entry} ({reason}) is reached: {sorted(covered & reached)}"


def test_each_reason_that_names_a_file_holds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    api = readme[readme.index("## Python API"):]
    api = api[:api.index("\n## ")]
    for entry, reason in KEPT.items():
        short = entry.rsplit(".", 1)[-1]
        if reason == _README_API:
            assert short in api, entry
        for ref in re.findall(r"(?:tests|perfbench)/[\w/.]*\w", reason):
            files = [ROOT / ref] if ref.endswith(".py") else sorted((ROOT / ref).rglob("*.py"))
            assert any(short in f.read_text(encoding="utf-8") for f in files), (entry, ref)
