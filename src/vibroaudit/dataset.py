"""Dataset ingestion and feature extraction.

This module turns recordings plus a manifest into the per-repetition
feature table every audit consumes: WAV parsing, manifest validation,
repetition segmentation, and the band-limited feature map g.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import pmap
from .dsp import (
    DEFAULT_BANDPASS_TAPS,
    MfccConfig,
    Signal,
    band_spectrum,
    bandpass,  # noqa: F401  unused here; perfbench/spans.py patches dataset.bandpass
    bandpass_problem,
    fft_length,
    mel_bins_problem,
    mel_filterbank,
    mel_filterbank_problem,
    mfcc_from_power,
    parseval_weights,
    power_frames,
    zero_delay_filter,
)
from .errors import FormatError, ManifestError, ParameterError, VibroauditError

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
# JSON files


def read_json(path, what: str, error: type[VibroauditError]):
    """The JSON value in the UTF-8 file at ``path``; ``error`` if it does not parse.

    ``what`` names the file kind in the message.  A missing or unreadable
    file raises the OSError unchanged.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, overlong integers
        raise error(f"{what} {path}: not valid JSON ({exc})") from None


def json_text(obj) -> str:
    """The one JSON layout of every file written: sorted keys, two-space
    indents and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON in the :func:`json_text` layout."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


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

    def wav_file(self, rec: SessionRecord) -> Path:
        p = Path(rec.wav_path)
        return p if p.is_absolute() else self.root / p


def _session_from_json(obj, where: str) -> SessionRecord:
    rec = SessionRecord(**_json_kwargs(SessionRecord, obj, where, ManifestError))
    if rec.repetition_boundaries is not None:
        rec.repetition_boundaries = [float(b) for b in rec.repetition_boundaries]
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
    metadata?}, ...]} with at least one session, each checked like a
    config (exact JSON types, no unknown keys).  wav_path is resolved
    relative to the manifest's directory and must exist.
    """
    path = Path(path)
    try:
        payload = read_json(path, "manifest", ManifestError)
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
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
    write_json(path, {"sessions": sessions})


# ---------------------------------------------------------------------------
# WAV I/O (RIFF little-endian, PCM 16/24/32-bit int and 32-bit float)


# (format tag, bits) pairs that ingest_wav decodes: integer PCM and 32-bit float
_WAV_ENCODINGS = ((1, 16), (1, 24), (1, 32), (3, 32))


def _wav_header(fh, path: Path) -> tuple[int, int, float, int, int, int]:
    """Walk the RIFF chunks of an open WAV file, checking everything that
    needs no sample values.

    Returns (format tag, channels, sample rate, bits, data offset, data
    size).  Unknown chunks are skipped by seeking past them.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        body_start = pos + 8
        body_end = body_start + chunk_size
        if body_end > size:
            raise FormatError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"{path}: fmt chunk too small")
            fmt = struct.unpack("<HHIIHH", fh.read(16))
        elif chunk_id == b"data":
            data = (body_start, chunk_size)
        pos = body_end + (chunk_size & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    offset, n_bytes = data
    if n_channels not in (1, 2):
        raise FormatError(f"{path}: {n_channels} channels unsupported (need 1 or 2)")
    if (audio_format, bits) not in _WAV_ENCODINGS:
        raise FormatError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit)"
        )
    if n_bytes % (bits // 8):
        raise FormatError(f"{path}: {bits}-bit payload of {n_bytes} bytes")
    if n_channels == 2 and (n_bytes // (bits // 8)) % 2:
        raise FormatError(f"{path}: odd sample count for 2-channel data")
    if sample_rate == 0:
        raise FormatError(f"{path}: sample_rate must be > 0, got 0.0")
    return audio_format, n_channels, float(sample_rate), bits, offset, n_bytes


def wav_sample_rate(path) -> float:
    """Sample rate of a WAV file, read from its header alone.

    Raises the FormatError that :func:`ingest_wav` would for any fault
    of the file's layout or encoding.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        return _wav_header(fh, path)[2]


def wav_frames(path) -> int:
    """Samples per channel of a WAV file, read from its header alone."""
    path = Path(path)
    with open(path, "rb") as fh:
        _, n_channels, _, bits, _, n_bytes = _wav_header(fh, path)
    return n_bytes // (bits // 8) // n_channels


def ingest_wav(path) -> Signal:
    """Parse a RIFF/WAVE file into a normalized Signal.

    Integer PCM is scaled by 2^(bits-1) so full scale maps into [-1, 1];
    32-bit float passes through bit-exactly.  Unknown chunks are
    skipped; compressed encodings are rejected.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        audio_format, n_channels, sample_rate, bits, offset, n_bytes = _wav_header(fh, path)
        fh.seek(offset)
        payload = fh.read(n_bytes)
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 1 and bits == 24:
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        raw = vals.astype(np.float64) / float(1 << 23)
    elif audio_format == 1 and bits == 32:
        raw = np.frombuffer(payload, dtype="<i4").astype(np.float64) / float(1 << 31)
    else:  # 32-bit float
        raw = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if n_channels == 2:
        raw = raw.reshape(-1, 2)
    try:
        return Signal(raw, sample_rate)
    except ParameterError as exc:  # non-finite samples
        raise FormatError(f"{path}: {exc}") from None


def write_wav(path, signal: Signal, encoding: str = "float32") -> None:
    """Write a Signal as RIFF/WAVE.

    float32 keeps synthesis bit-exact across a write/read round trip;
    pcm16 is provided for interoperability and clips to full scale.  The
    header and the encoded samples are written one after the other, never
    joined into one buffer.
    """
    x = signal.samples if signal.channels == 2 else signal.samples[:, None]
    if encoding == "float32":
        body = x.astype("<f4", order="C")
        audio_format, bits = 3, 32
    elif encoding == "pcm16":
        body = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2", order="C")
        audio_format, bits = 1, 16
    else:
        raise ParameterError(f"unsupported wav encoding {encoding!r}")
    n_channels = x.shape[1]
    sample_rate = int(round(signal.sample_rate))
    block_align = n_channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + body.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, sample_rate,
        sample_rate * block_align, block_align, bits,
    )
    header += b"data" + struct.pack("<I", body.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.data)


# ---------------------------------------------------------------------------
# segmentation


def segment_repetitions(signal: Signal, record: SessionRecord) -> list[np.ndarray]:
    """Split a session signal into per-repetition sample arrays.

    With explicit repetition_boundaries (n_repetitions + 1 ascending
    times in seconds) the signal is cut at those sample positions;
    otherwise it is split into n_repetitions equal parts and the
    remainder samples at the tail are dropped.  Each segment is a view
    into ``signal.samples``, at ``signal.sample_rate``.
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
        return [signal.samples[a:b] for a, b in zip(cuts, cuts[1:])]
    seg_len = signal.n_samples // n_reps
    if seg_len < 1:
        raise ParameterError(f"session {record.session_id}: signal too short to split")
    return [signal.samples[k * seg_len : (k + 1) * seg_len] for k in range(n_reps)]


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
        if self.taps < 3 or self.taps % 2 == 0:
            raise ParameterError(f"taps must be an odd integer >= 3, got {self.taps}")
        if self.mfcc is None:
            self.mfcc = MfccConfig(fmin=self.band_lo, fmax=self.band_hi)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        for key in ("aggregators", "extra_features"):
            out[key] = list(out[key])
        return out

    @staticmethod
    def from_json_dict(obj) -> "FeatureConfig":
        """Inverse of :meth:`to_json_dict`; every key but the band edges
        (and, inside ``mfcc``, fmin and fmax) may be left out."""
        kwargs = _json_kwargs(FeatureConfig, obj, "feature config", FormatError)
        if kwargs.get("mfcc") is not None:
            mfcc = _json_kwargs(MfccConfig, kwargs["mfcc"], "feature config mfcc", FormatError)
            kwargs["mfcc"] = MfccConfig(**mfcc)
        for key in ("aggregators", "extra_features"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return FeatureConfig(**kwargs)


def default_feature_config(sample_rate: float | None) -> FeatureConfig:
    """The feature config of a run without a config file: band 250 Hz to
    10 kHz.

    With the data's sample rate the upper edge is clamped to 3/4 of its
    Nyquist, so low-rate recordings work out of the box; 3/4 leaves
    filter transition and mel headroom.
    """
    hi = 10_000.0
    if sample_rate is not None:
        hi = min(hi, 0.75 * (sample_rate / 2.0))
    return FeatureConfig(band_lo=250.0, band_hi=hi)


def _finite(v) -> bool:
    """A JSON number that fits a float; the comparison also rejects nan,
    infinities and ints beyond float range."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# JSON form of each dataclass field type read from a file: (description, check)
_JSON_TYPES = {
    "float": ("a finite number", _finite),
    "int": ("an integer", lambda v: type(v) is int),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[str, ...]": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
    "list[float] | None": ("a list of finite numbers or null",
                           lambda v: v is None or type(v) is list and all(map(_finite, v))),
    "MfccConfig | None": ("an object or null", lambda v: v is None or type(v) is dict),
    "dict": ("an object", lambda v: type(v) is dict),
}


def _json_kwargs(cls, obj, where: str, error: type[VibroauditError]) -> dict:
    """Keyword arguments of dataclass ``cls`` from a parsed JSON value, checked for
    shape, keys and JSON types (``error``); ``cls`` or its caller checks value ranges."""
    if type(obj) is not dict:
        raise error(f"{where} must be a JSON object, got {type(obj).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in obj.items():
        if key not in types:
            raise error(f"{where}: unknown key {key!r}; known keys are {sorted(types)}")
        what, ok = _JSON_TYPES[types[key]]
        if not ok(value):
            raise error(f"{where}: {key!r} must be {what}, got {value!r}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in obj]
    if missing:
        raise error(f"{where}: missing required key {missing[0]!r}")
    return dict(obj)


def minimum_segment_samples(cfg: FeatureConfig, sample_rate: float) -> int:
    """Shortest segment the feature map accepts, in samples.

    The band-pass warm-up of (taps - 1) / 2 samples at each end is
    discarded before framing, and at least one full analysis frame must
    remain after that.
    """
    trim = cfg.taps - 1
    return trim + cfg.mfcc.frame_len(sample_rate)


def check_segment_length(n_samples: int, cfg: FeatureConfig, sample_rate: float) -> None:
    """Raise unless a segment of ``n_samples`` is long enough for the feature
    map, and its frame has an FFT bin for every mel filter.

    Neither depends on the band or the mel range, so a band scan, which
    keeps cfg's frame and filter count in every band, raises them too.
    """
    need = minimum_segment_samples(cfg, sample_rate)
    if n_samples < need:
        raise ParameterError(
            f"segment too short for feature extraction: need at least "
            f"{need / sample_rate:.6f}s at {sample_rate:.0f} Hz"
        )
    problem = mel_bins_problem(cfg.mfcc.n_mels, fft_length(cfg.mfcc.frame_len(sample_rate)))
    if problem:
        raise ParameterError(problem)


def _mel_grid(cfg: FeatureConfig, sample_rate: float) -> np.ndarray:
    """The mel filterbank the feature map applies to cfg's frames at ``sample_rate``."""
    mc = cfg.mfcc
    return mel_filterbank(mc.n_mels, fft_length(mc.frame_len(sample_rate)), sample_rate, mc.fmin, mc.fmax)


def feature_map_problem(cfg: FeatureConfig, sample_rate: float) -> str | None:
    """Why the feature map refuses cfg at ``sample_rate``, or None.

    The band-pass must be designable (:func:`~vibroaudit.dsp.bandpass_problem`)
    and the mel grid buildable (:func:`~vibroaudit.dsp.mel_filterbank_problem`).
    A triangular filter that covers no FFT bin would feed the MFCCs only
    log-floor noise, so it is refused too.  Extraction raises this reason
    and band scan skips the band with it.
    """
    mc = cfg.mfcc
    n_fft = fft_length(mc.frame_len(sample_rate))
    problem = (bandpass_problem(cfg.band_lo, cfg.band_hi, sample_rate, cfg.taps)
               or mel_filterbank_problem(mc.n_mels, n_fft, sample_rate, mc.fmin, mc.fmax))
    if problem:
        return problem
    empty = int(np.sum(_mel_grid(cfg, sample_rate).sum(axis=1) == 0))
    return (f"band ({float(mc.fmin)}, {float(mc.fmax)}) Hz is too narrow for the mel grid: "
            f"{empty} of {mc.n_mels} filters cover no FFT bin") if empty else None


def _frame_feature_block(filtered: np.ndarray, fs: float, cfg: FeatureConfig) -> dict[str, np.ndarray]:
    """Per-frame feature series of one band-passed mono channel."""
    m = (cfg.taps - 1) // 2
    core = filtered[m : len(filtered) - m]
    mc = cfg.mfcc
    frame_len = mc.frame_len(fs)
    freqs, power = power_frames(core, fs, frame_len, mc.hop(fs))
    coeffs = mfcc_from_power(power, _mel_grid(cfg, fs), mc.n_coeffs, mc.log_floor)

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
            # window loss (mean of hann^2 = 3/8) compensated so a
            # stationary tone reads its true rms
            n_fft = fft_length(frame_len)
            energy = bp @ parseval_weights(n_fft)[in_band]
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


# values per stacked block of series in _aggregate: a block of 256 kB keeps
# the reductions' temporaries in reused memory, where one stack of all the
# series of a long segment faults in fresh pages and is slower than
# per-series calls
_AGGREGATE_BLOCK_VALUES = 1 << 15
_REDUCERS = {"mean": np.mean, "std": np.std}


def _aggregate(series: dict[str, np.ndarray], aggregators: tuple[str, ...], suffix: str) -> dict[str, float]:
    # each row of a C-contiguous block sums in the order a 1-D call would,
    # so every value is bit-equal to np.mean / np.std of its series alone
    values = list(series.values())
    rows = max(1, _AGGREGATE_BLOCK_VALUES // len(values[0]))
    columns: dict[str, list[float]] = {agg: [] for agg in AGGREGATORS if agg in aggregators}
    for start in range(0, len(values), rows):
        block = np.array(values[start : start + rows], dtype=np.float64)
        for agg, column in columns.items():
            column.extend(_REDUCERS[agg](block, axis=1).tolist())
    return {
        f"{name}{suffix}_{agg}": column[i]
        for i, name in enumerate(series)
        for agg, column in columns.items()
    }


def _channels(samples: np.ndarray, channel_mode: str) -> list[tuple[str, np.ndarray]]:
    """(column-name suffix, mono samples) of each channel the feature map reads."""
    if samples.ndim == 1:
        return [("", samples)]
    if channel_mode == "mixdown":
        return [("", samples.mean(axis=1))]
    return [(f"_ch{c}", samples[:, c]) for c in range(2)]


def _segments_features(segments: Sequence[np.ndarray], fs: float,
                       cfgs: Sequence[FeatureConfig]) -> list[list[dict[str, float]]]:
    """g of each segment, mono (n,) or two-channel (n, 2) samples at ``fs``
    Hz, under each config.

    Each config is checked once, against the shortest segment and then
    :func:`feature_map_problem`.  Configs that share taps and channel
    mode pad each channel the same way, so one zero-delay filtering pass
    serves all their bands.
    """
    for cfg in cfgs:
        check_segment_length(min(map(len, segments)), cfg, fs)
        problem = feature_map_problem(cfg, fs)
        if problem:
            raise ParameterError(problem)
    groups: dict[tuple[int, str], list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg.taps, cfg.channel_mode), []).append(i)
    per_segment: list[list[dict[str, float]]] = [[{} for _ in cfgs] for _ in segments]
    for samples, values in zip(segments, per_segment):
        for (taps, channel_mode), members in groups.items():
            kernels = [band_spectrum(cfgs[i].band_lo, cfgs[i].band_hi, fs, taps) for i in members]
            for suffix, x in _channels(samples, channel_mode):
                for i, filtered in zip(members, zero_delay_filter(x, taps, kernels)):
                    series = _frame_feature_block(filtered, fs, cfgs[i])
                    values[i].update(_aggregate(series, cfgs[i].aggregators, suffix))
    return per_segment


def extract_features(segment: Signal, cfg: FeatureConfig) -> dict[str, float]:
    """The feature map g: one repetition segment -> feature name -> value.

    Deterministic: identical (segment, cfg) give identical values.
    Features are computed strictly inside the band (the frame power
    spectrum is restricted to [band_lo, band_hi]), so components well
    outside the band cannot move them.  Values are not checked for
    finiteness here; :func:`extract_tables` checks each table it builds.
    """
    return _segments_features([segment.samples], segment.sample_rate, [cfg])[0][0]


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
        for i, n in enumerate(names):
            if n not in self.feature_names:
                raise ParameterError(f"unknown feature {n!r}")
            if n in names[:i]:
                raise ParameterError(f"feature {n!r} named twice")
        return FeatureTable(
            feature_names=list(names),
            matrix=self.matrix[:, [self.feature_names.index(n) for n in names]],
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
    repetition_index the segment's position in the session.  A feature
    value that is not finite raises ParameterError naming its feature,
    session and repetition.
    """
    if not manifest.sessions:
        raise ParameterError("cannot build a feature table from zero sessions")
    if not cfgs:
        return []
    # every config fault fails before any recording is read, checked at the
    # first recording's rate, with its frame count for the segment length
    first = manifest.wav_file(manifest.sessions[0])
    fs = wav_sample_rate(first)
    for cfg in cfgs:
        check_segment_length(wav_frames(first), cfg, fs)
        problem = feature_map_problem(cfg, fs)
        if problem:
            raise ParameterError(problem)

    def one_session(rec: SessionRecord) -> list[tuple[dict[str, float], ...]]:
        signal = ingest_wav(manifest.wav_file(rec))
        return list(zip(*_segments_features(segment_repetitions(signal, rec), signal.sample_rate, cfgs)))

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
        bad = np.argwhere(~np.isfinite(matrix))
        if len(bad):
            i, j = bad[0]
            raise ParameterError(
                f"feature {names[j]} is not finite in session {labels['session_id'][i]}, "
                f"repetition {reps[i]}: {matrix[i, j]}"
            )
        tables.append(FeatureTable(names, matrix, dict(labels), reps))
    return tables


def extract_table(manifest: Manifest, cfg: FeatureConfig) -> FeatureTable:
    """Run the feature map over every repetition of every session."""
    return extract_tables(manifest, [cfg])[0]
