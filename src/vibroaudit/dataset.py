"""Dataset ingestion and feature extraction.

This module turns recordings plus a manifest into the per-repetition
feature table every audit consumes: WAV parsing, manifest validation,
repetition segmentation, and the band-limited feature map g.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ._parallel import pmap
from .dsp import (
    DEFAULT_BANDPASS_TAPS,
    MfccConfig,
    Signal,
    bandpass,
    mel_filterbank,
    mfcc_from_power,
    power_frames,
)
from .errors import FormatError, ManifestError, ParameterError

HEALTH_LABELS = ("Healthy", "Unhealthy")
SIDES = ("left", "right")

EXTRA_FEATURES = ("rms", "zero_crossing_rate", "spectral_centroid", "spectral_rolloff_95")
AGGREGATORS = ("mean", "std")

# identifier columns of the feature CSV, in order, before the features
LABEL_COLUMNS = ("session_id", "repetition_index", "subject", "health", "side", "device")
# the SessionRecord field behind each string label column; repetition_index
# is the segment's position in its session
LABEL_FIELDS = {"session_id": "session_id", "subject": "subject_id", "health": "health_label",
                "side": "side", "device": "device_id"}
_REP_COLUMN = LABEL_COLUMNS.index("repetition_index")


# ---------------------------------------------------------------------------
# manifest


@dataclass
class SessionRecord:
    session_id: str
    subject_id: str
    side: str
    device_id: str
    health_label: str
    wav_path: str
    n_repetitions: int
    repetition_boundaries: list[float] | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class Manifest:
    """Validated, immutable-after-load collection of session records."""

    sessions: list[SessionRecord]
    root: Path

    def class_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in HEALTH_LABELS}
        for rec in self.sessions:
            counts[rec.health_label] += 1
        return counts

    def wav_file(self, rec: SessionRecord) -> Path:
        p = Path(rec.wav_path)
        return p if p.is_absolute() else self.root / p


def _json_int(value, where: str, key: str) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or (isinstance(value, float) and value != n):
        raise ManifestError(f"{where}: {key} must be an integer, got {value!r}")
    return n


def _json_boundaries(value, where: str) -> list[float] | None:
    if value is None:
        return None
    try:
        bounds = [float(b) for b in value] if isinstance(value, list) else None
    except (TypeError, ValueError, OverflowError):
        bounds = None
    if bounds is None or not all(np.isfinite(bounds)):
        raise ManifestError(
            f"{where}: repetition_boundaries must be a list of finite numbers, got {value!r}"
        )
    return bounds


def _session_from_json(obj: dict, where: str) -> SessionRecord:
    if not isinstance(obj, dict):
        raise ManifestError(f"{where}: a session must be an object, got {obj!r}")
    required = ("session_id", "subject_id", "side", "device_id", "health_label", "wav_path", "n_repetitions")
    for key in required:
        if key not in obj:
            raise ManifestError(f"{where}: missing required field {key!r}")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ManifestError(f"{where}: metadata must be an object, got {metadata!r}")
    rec = SessionRecord(
        session_id=str(obj["session_id"]),
        subject_id=str(obj["subject_id"]),
        side=str(obj["side"]),
        device_id=str(obj["device_id"]),
        health_label=str(obj["health_label"]),
        wav_path=str(obj["wav_path"]),
        n_repetitions=_json_int(obj["n_repetitions"], where, "n_repetitions"),
        repetition_boundaries=_json_boundaries(obj.get("repetition_boundaries"), where),
        metadata=dict(metadata),
    )
    if rec.health_label not in HEALTH_LABELS:
        raise ManifestError(
            f"session {rec.session_id}: health_label must be one of {HEALTH_LABELS}, got {rec.health_label!r}"
        )
    if rec.side not in SIDES:
        raise ManifestError(
            f"session {rec.session_id}: side must be one of {SIDES}, got {rec.side!r}"
        )
    if rec.n_repetitions < 1:
        raise ManifestError(f"session {rec.session_id}: n_repetitions must be >= 1")
    return rec


def load_manifest(path) -> Manifest:
    """Load and validate a manifest.json.

    Schema: {"sessions": [{session_id, subject_id, side, device_id,
    health_label, wav_path, n_repetitions, repetition_boundaries?,
    metadata?}, ...]} with at least one session.  wav_path is resolved
    relative to the manifest's directory and must exist.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("sessions"), list):
        raise ManifestError(f"{path}: top level must be an object with a 'sessions' list")
    if not payload["sessions"]:
        raise ManifestError(f"{path}: the 'sessions' list is empty")
    sessions = [
        _session_from_json(obj, f"{path} sessions[{i}]")
        for i, obj in enumerate(payload["sessions"])
    ]
    seen: set[str] = set()
    for rec in sessions:
        if rec.session_id in seen:
            raise ManifestError(f"duplicate session_id {rec.session_id!r}")
        seen.add(rec.session_id)
    manifest = Manifest(sessions=sessions, root=path.parent)
    for rec in sessions:
        wav = manifest.wav_file(rec)
        try:
            found = wav.is_file()
        except OSError:  # e.g. a name too long for the file system
            found = False
        if not found:
            raise ManifestError(f"session {rec.session_id}: wav file missing: {wav}")
    return manifest


def save_manifest(manifest: Manifest, path) -> None:
    """Write a manifest back to JSON (sorted keys, stable bytes)."""
    # optional fields are written only when set
    sessions = [{k: v for k, v in asdict(rec).items() if v is not None and v != {}}
                for rec in manifest.sessions]
    text = json.dumps({"sessions": sessions}, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# WAV I/O (RIFF little-endian, PCM 16/24/32-bit int and 32-bit float)


def ingest_wav(path) -> Signal:
    """Parse a RIFF/WAVE file into a normalized Signal.

    Integer PCM is scaled by 2^(bits-1) so full scale maps into [-1, 1];
    32-bit float passes through bit-exactly.  Unknown chunks are
    skipped; compressed encodings are rejected.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        body_end = body_start + chunk_size
        if body_end > len(data):
            raise FormatError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start:body_end]
        pos = body_end + (chunk_size & 1)
    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if n_channels not in (1, 2):
        raise FormatError(f"{path}: {n_channels} channels unsupported (need 1 or 2)")
    if audio_format in (1, 3) and bits in (16, 32) and len(payload) % (bits // 8):
        raise FormatError(f"{path}: {bits}-bit payload of {len(payload)} bytes")
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 1 and bits == 24:
        if len(payload) % 3:
            raise FormatError(f"{path}: 24-bit payload not a multiple of 3 bytes")
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        raw = vals.astype(np.float64) / float(1 << 23)
    elif audio_format == 1 and bits == 32:
        raw = np.frombuffer(payload, dtype="<i4").astype(np.float64) / float(1 << 31)
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise FormatError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit)"
        )
    if n_channels == 2:
        if len(raw) % 2:
            raise FormatError(f"{path}: odd sample count for 2-channel data")
        raw = raw.reshape(-1, 2)
    try:
        return Signal(raw, float(sample_rate))
    except ParameterError as exc:  # zero sample rate, non-finite samples
        raise FormatError(f"{path}: {exc}") from None


def write_wav(path, signal: Signal, encoding: str = "float32") -> None:
    """Write a Signal as RIFF/WAVE.

    float32 keeps synthesis bit-exact across a write/read round trip;
    pcm16 is provided for interoperability and clips to full scale.
    """
    x = signal.samples if signal.channels == 2 else signal.samples[:, None]
    if encoding == "float32":
        body = x.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    elif encoding == "pcm16":
        clipped = np.clip(np.round(x * 32768.0), -32768, 32767)
        body = clipped.astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        raise ParameterError(f"unsupported wav encoding {encoding!r}")
    n_channels = x.shape[1]
    sample_rate = int(round(signal.sample_rate))
    block_align = n_channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, sample_rate,
        sample_rate * block_align, block_align, bits,
    )
    header += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(header + body)


# ---------------------------------------------------------------------------
# segmentation


def segment_repetitions(signal: Signal, record: SessionRecord) -> list[Signal]:
    """Split a session signal into per-repetition segments.

    With explicit repetition_boundaries (n_repetitions + 1 ascending
    times in seconds) the signal is cut at those sample positions;
    otherwise it is split into n_repetitions equal parts and the
    remainder samples at the tail are dropped.
    """
    n_reps = record.n_repetitions
    if n_reps < 1:
        raise ParameterError(f"session {record.session_id}: n_repetitions must be >= 1")
    fs = signal.sample_rate
    if record.repetition_boundaries is not None:
        bounds = record.repetition_boundaries
        if len(bounds) != n_reps + 1:
            raise ParameterError(
                f"session {record.session_id}: need {n_reps + 1} boundaries for "
                f"{n_reps} repetitions, got {len(bounds)}"
            )
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise ParameterError(f"session {record.session_id}: boundaries must ascend")
        if bounds[0] < 0 or bounds[-1] > signal.duration + 1e-9:
            raise ParameterError(
                f"session {record.session_id}: boundaries exceed signal duration "
                f"{signal.duration:.6f}s"
            )
        cuts = [int(round(b * fs)) for b in bounds]
        cuts[-1] = min(cuts[-1], signal.n_samples)
        return [Signal(signal.samples[a:b].copy(), fs) for a, b in zip(cuts, cuts[1:])]
    seg_len = signal.n_samples // n_reps
    if seg_len < 1:
        raise ParameterError(f"session {record.session_id}: signal too short to split")
    return [
        Signal(signal.samples[k * seg_len : (k + 1) * seg_len].copy(), fs)
        for k in range(n_reps)
    ]


# ---------------------------------------------------------------------------
# feature extraction


@dataclass
class FeatureConfig:
    """Configuration of the feature map g.

    The mel analysis band defaults to the band-pass edges.  With
    two-channel input, channel_mode 'per-channel' computes every feature
    per channel with _ch0/_ch1 suffixes, 'mixdown' averages the channels
    first.
    """

    band_lo: float
    band_hi: float
    mfcc: MfccConfig | None = None
    aggregators: tuple[str, ...] = ("mean", "std")
    extra_features: tuple[str, ...] = EXTRA_FEATURES
    taps: int = DEFAULT_BANDPASS_TAPS
    channel_mode: str = "per-channel"

    def __post_init__(self) -> None:
        if not (0 < self.band_lo < self.band_hi):
            raise ParameterError(
                f"need 0 < band_lo < band_hi, got ({self.band_lo}, {self.band_hi})"
            )
        if not self.aggregators:
            raise ParameterError("aggregators must be non-empty")
        for agg in self.aggregators:
            if agg not in AGGREGATORS:
                raise ParameterError(f"unknown aggregator {agg!r}")
        for name in self.extra_features:
            if name not in EXTRA_FEATURES:
                raise ParameterError(f"unknown extra feature {name!r}")
        if self.channel_mode not in ("per-channel", "mixdown"):
            raise ParameterError(f"unknown channel_mode {self.channel_mode!r}")
        if self.mfcc is None:
            self.mfcc = MfccConfig(fmin=self.band_lo, fmax=self.band_hi)

    def to_json_dict(self) -> dict:
        m = self.mfcc
        return {
            "band_lo": self.band_lo,
            "band_hi": self.band_hi,
            "mfcc": {
                "fmin": m.fmin,
                "fmax": m.fmax,
                "frame_ms": m.frame_ms,
                "hop_fraction": m.hop_fraction,
                "n_mels": m.n_mels,
                "n_coeffs": m.n_coeffs,
                "log_floor": m.log_floor,
            },
            "aggregators": list(self.aggregators),
            "extra_features": list(self.extra_features),
            "taps": self.taps,
            "channel_mode": self.channel_mode,
        }

    @staticmethod
    def from_json_dict(obj) -> "FeatureConfig":
        """Inverse of :meth:`to_json_dict`; every key but the band edges
        (and, inside ``mfcc``, fmin and fmax) may be left out."""
        kwargs = _config_kwargs(FeatureConfig, obj, "feature config")
        if kwargs.get("mfcc") is not None:
            kwargs["mfcc"] = MfccConfig(**_config_kwargs(MfccConfig, kwargs["mfcc"], "feature config mfcc"))
        for key in ("aggregators", "extra_features"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return FeatureConfig(**kwargs)


# JSON form of each config field type: (description, check)
_JSON_TYPES = {
    # the comparison also rejects nan, infinities and ints beyond float range
    "float": ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "int": ("an integer", lambda v: type(v) is int),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[str, ...]": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
    "MfccConfig | None": ("an object or null", lambda v: v is None or type(v) is dict),
}


def _config_kwargs(cls, obj, where: str) -> dict:
    """Keyword arguments of config dataclass ``cls`` from a parsed JSON value, checked
    for shape, keys and JSON types (FormatError); ``cls`` checks value ranges."""
    if type(obj) is not dict:
        raise FormatError(f"{where} must be a JSON object, got {type(obj).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in obj.items():
        if key not in types:
            raise FormatError(f"{where}: unknown key {key!r}; known keys are {sorted(types)}")
        what, ok = _JSON_TYPES[types[key]]
        if not ok(value):
            raise FormatError(f"{where}: {key!r} must be {what}, got {value!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise FormatError(f"{where}: missing required key {missing[0]!r}")
    return dict(obj)


@dataclass
class FeatureVector:
    values: dict[str, float]

    def __post_init__(self) -> None:
        for name, val in self.values.items():
            if not np.isfinite(val):
                raise ParameterError(f"feature {name} is not finite: {val}")


def minimum_segment_samples(cfg: FeatureConfig, sample_rate: float) -> int:
    """Shortest segment the feature map accepts, in samples.

    The band-pass warm-up of (taps - 1) / 2 samples at each end is
    discarded before framing, and at least one full analysis frame must
    remain after that.
    """
    trim = cfg.taps - 1
    return trim + cfg.mfcc.frame_len(sample_rate)


def _frame_feature_block(x: np.ndarray, fs: float, cfg: FeatureConfig) -> dict[str, np.ndarray]:
    """Per-frame feature series for one mono channel."""
    m = (cfg.taps - 1) // 2
    filtered = bandpass(Signal(x, fs), cfg.band_lo, cfg.band_hi, cfg.taps).samples
    core = filtered[m : len(filtered) - m]
    mc = cfg.mfcc
    frame_len = mc.frame_len(fs)
    hop = mc.hop(fs)
    if len(core) < frame_len:
        min_dur = minimum_segment_samples(cfg, fs) / fs
        raise ParameterError(
            f"segment too short for feature extraction: need at least "
            f"{min_dur:.6f}s at {fs:.0f} Hz"
        )
    freqs, power = power_frames(Signal(core, fs), frame_len, hop)
    n_fft = (power.shape[1] - 1) * 2
    fbank = mel_filterbank(mc.n_mels, n_fft, fs, mc.fmin, mc.fmax)
    coeffs = mfcc_from_power(power, fbank, mc.n_coeffs, mc.log_floor)

    series: dict[str, np.ndarray] = {}
    for j in range(mc.n_coeffs):
        series[f"mfcc{j:02d}"] = coeffs[:, j]
    if cfg.extra_features:
        in_band = (freqs >= cfg.band_lo) & (freqs <= cfg.band_hi)
        bf = freqs[in_band]
        bp = power[:, in_band]
        total = bp.sum(axis=1)
        ok = total > 0
        mid = 0.5 * (cfg.band_lo + cfg.band_hi)
        if "rms" in cfg.extra_features:
            # one-sided Parseval weights; window loss (mean of hann^2
            # = 3/8) compensated so a stationary tone reads its true rms
            w = np.full(power.shape[1], 2.0)
            w[0] = 1.0
            if n_fft % 2 == 0:
                w[-1] = 1.0
            energy = bp @ w[in_band]
            series["rms"] = np.sqrt(energy / (n_fft * frame_len * 0.375))
        if "zero_crossing_rate" in cfg.extra_features:
            mom2 = bp @ (bf**2)
            zcr = np.zeros(len(total))
            zcr[ok] = 2.0 * np.sqrt(mom2[ok] / total[ok])
            series["zero_crossing_rate"] = zcr
        if "spectral_centroid" in cfg.extra_features:
            cen = np.full(len(total), mid)
            cen[ok] = (bp[ok] @ bf) / total[ok]
            series["spectral_centroid"] = cen
        if "spectral_rolloff_95" in cfg.extra_features:
            roll = np.full(len(total), mid)
            if np.any(ok):
                cum = np.cumsum(bp[ok], axis=1)
                idx = np.argmax(cum >= 0.95 * cum[:, -1:], axis=1)
                roll[ok] = bf[idx]
            series["spectral_rolloff_95"] = roll
    return series


def _aggregate(series: dict[str, np.ndarray], aggregators: tuple[str, ...], suffix: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, values in series.items():
        if "mean" in aggregators:
            out[f"{name}{suffix}_mean"] = float(np.mean(values))
        if "std" in aggregators:
            out[f"{name}{suffix}_std"] = float(np.std(values))
    return out


def extract_features(segment: Signal, cfg: FeatureConfig) -> FeatureVector:
    """The feature map g: one repetition segment -> named features.

    Deterministic: identical (segment, cfg) give an identical vector.
    Features are computed strictly inside the band (the frame power
    spectrum is restricted to [band_lo, band_hi]), so components well
    outside the band cannot move them.
    """
    if segment.channels == 2 and cfg.channel_mode == "mixdown":
        mono = Signal(segment.samples.mean(axis=1), segment.sample_rate)
        channels = [("", mono)]
    elif segment.channels == 2:
        channels = [("_ch0", segment.channel(0)), ("_ch1", segment.channel(1))]
    else:
        channels = [("", segment)]
    values: dict[str, float] = {}
    for suffix, chan in channels:
        series = _frame_feature_block(chan.samples, chan.sample_rate, cfg)
        values.update(_aggregate(series, cfg.aggregators, suffix))
    return FeatureVector(values)


# ---------------------------------------------------------------------------
# feature table


@dataclass
class FeatureTable:
    """Column-oriented feature matrix plus aligned label columns.

    ``labels`` maps label name -> array of strings, one entry per row;
    ``repetition_index`` is kept numeric.  Rows are repetitions.
    """

    feature_names: list[str]
    matrix: np.ndarray
    labels: dict[str, np.ndarray]
    repetition_index: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.feature_names):
            raise ParameterError("matrix shape does not match feature_names")
        for key, col in self.labels.items():
            if len(col) != self.matrix.shape[0]:
                raise ParameterError(f"label column {key} length mismatch")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def label(self, key: str) -> np.ndarray:
        if key not in self.labels:
            raise ParameterError(
                f"unknown label column {key!r}; have {sorted(self.labels)}"
            )
        return self.labels[key]

    def select(self, mask: np.ndarray) -> "FeatureTable":
        mask = np.asarray(mask)
        return FeatureTable(
            feature_names=list(self.feature_names),
            matrix=self.matrix[mask],
            labels={k: v[mask] for k, v in self.labels.items()},
            repetition_index=self.repetition_index[mask],
        )

    def restrict_features(self, names: list[str]) -> "FeatureTable":
        cols = [self.feature_names.index(n) if n in self.feature_names else -1 for n in names]
        for n, c in zip(names, cols):
            if c < 0:
                raise ParameterError(f"unknown feature {n!r}")
        return FeatureTable(
            feature_names=list(names),
            matrix=self.matrix[:, cols],
            labels=dict(self.labels),
            repetition_index=self.repetition_index,
        )

    def to_csv(self, path) -> None:
        """Header = identifier columns then feature names; floats use
        repr so a read back is value-exact.  Fields holding a comma, quote
        or newline are quoted (RFC 4180); no other field is."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(LABEL_COLUMNS) + self.feature_names)
            idents = [self.repetition_index.astype(np.int64) if c == "repetition_index" else self.labels[c]
                      for c in LABEL_COLUMNS]
            for i in range(self.n_rows):
                writer.writerow([str(col[i]) for col in idents] + [repr(float(v)) for v in self.matrix[i]])

    @staticmethod
    def from_csv(path) -> "FeatureTable":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            try:
                # blank lines carry no row
                records = [
                    rec for rec in csv.reader(fh)
                    if len(rec) > 1 or (rec and rec[0].strip())
                ]
            except csv.Error as exc:
                raise FormatError(f"{path}: {exc}") from None
        if not records:
            raise FormatError(f"{path}: empty feature CSV")
        header = records[0]
        if header[: len(LABEL_COLUMNS)] != list(LABEL_COLUMNS):
            raise FormatError(
                f"{path}: feature CSV must start with columns {LABEL_COLUMNS}"
            )
        names = header[len(LABEL_COLUMNS) :]
        body = records[1:]
        reps = []
        rows = []
        for row, parts in enumerate(body, start=1):
            if len(parts) != len(header):
                raise FormatError(f"{path}: row with {len(parts)} fields, expected {len(header)}")
            try:
                reps.append(int(parts[_REP_COLUMN]))
                rows.append([float(v) for v in parts[len(LABEL_COLUMNS) :]])
            except ValueError:
                raise _bad_number(path, row, header, parts) from None
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
        bad = np.argwhere(~np.isfinite(matrix))
        if len(bad):
            i, j = bad[0]
            raise FormatError(
                f"{path}: data row {i + 1}, column {names[j]!r}: "
                f"{records[i + 1][len(LABEL_COLUMNS) + j]!r} is not a finite number"
            )
        return FeatureTable(
            feature_names=names,
            matrix=matrix,
            labels={
                col: np.array([parts[LABEL_COLUMNS.index(col)] for parts in body], dtype=object)
                for col in LABEL_FIELDS
            },
            repetition_index=np.array(reps, dtype=np.int64),
        )


def _bad_number(path, row: int, header: list[str], parts: list[str]) -> FormatError:
    """The error naming the first field of a feature CSV row that does not parse."""
    for j in [_REP_COLUMN] + list(range(len(LABEL_COLUMNS), len(parts))):
        kind = int if j == _REP_COLUMN else float
        try:
            kind(parts[j])
        except ValueError:
            return FormatError(
                f"{path}: data row {row}, column {header[j]!r}: "
                f"{parts[j]!r} is not {'an integer' if j == _REP_COLUMN else 'a number'}"
            )
    raise AssertionError("no unparsable field in the row")


def extract_tables(manifest: Manifest, cfgs: list[FeatureConfig]) -> list[FeatureTable]:
    """One feature table per config, reading and segmenting each session once.

    A row is one repetition: its features are g of the segment, its label
    columns the session record's fields (LABEL_FIELDS) and its
    repetition_index the segment's position in the session.
    """
    if not manifest.sessions:
        raise ParameterError("cannot build a feature table from zero sessions")
    if not cfgs:
        return []

    def one_session(rec: SessionRecord) -> list[list[dict[str, float]]]:
        segments = segment_repetitions(ingest_wav(manifest.wav_file(rec)), rec)
        return [[extract_features(seg, cfg).values for seg in segments] for cfg in cfgs]

    per_session = pmap(one_session, manifest.sessions)
    n_reps = [len(values[0]) for values in per_session]
    labels = {
        col: np.repeat(np.array([getattr(rec, f) for rec in manifest.sessions], dtype=object), n_reps)
        for col, f in LABEL_FIELDS.items()
    }
    reps = np.concatenate([np.arange(n, dtype=np.int64) for n in n_reps])
    tables = []
    for c in range(len(cfgs)):
        names = list(per_session[0][c][0])
        for rec, values in zip(manifest.sessions, per_session):
            if list(values[c][0]) != names:  # a session's segments share its channel layout
                raise ParameterError(f"feature name mismatch in session {rec.session_id}: "
                                     f"{sorted(set(values[c][0]) ^ set(names))}")
        matrix = np.array([list(v.values()) for values in per_session for v in values[c]], dtype=np.float64)
        tables.append(FeatureTable(names, matrix, dict(labels), reps))
    return tables


def extract_table(manifest: Manifest, cfg: FeatureConfig) -> FeatureTable:
    """Run the feature map over every repetition of every session."""
    return extract_tables(manifest, [cfg])[0]
