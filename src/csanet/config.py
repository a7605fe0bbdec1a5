"""Configuration dataclasses and their flat key=value text form.

The on-disk format is UTF-8 text, one `dotted.key=value` per line, `#`
comment lines allowed. Writing is canonical (declaration order, repr
floats), so write -> read -> write is byte-identical. Tuples serialize as
comma-separated entries. Retired keys (RETIRED_KEYS) are read only to
check them.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from .atomic import write_atomic
from .errors import ConfigurationError


def _check_ints(name, values, least=1, count=None):
    """An integer tuple field holds ints >= least (exactly count of them, when given)."""
    if count is not None and len(values) != count:
        raise ConfigurationError(f"{name} must hold {count} entries, got {values!r}")
    if not all(isinstance(v, numbers.Integral) and v >= least for v in values):
        raise ConfigurationError(f"{name} entries must be integers >= {least}, got {values!r}")


@dataclass
class AttentionConfig:
    heads: int = 8
    pool_kernels: tuple = (3, 5, 7)
    topk_enabled: bool = True
    keep_denominators: tuple = (2, 3)
    multiscale_pool_enabled: bool = True

    @property
    def pool_pads(self):
        """Each pool's pad, (k - 1) / 2 for an odd kernel k: it keeps the token count."""
        return tuple((k - 1) // 2 for k in self.pool_kernels)

    def validate(self):
        if self.heads < 1:
            raise ConfigurationError(f"attention.heads must be positive, got {self.heads}")
        _check_ints("attention.pool_kernels", self.pool_kernels)
        if self.multiscale_pool_enabled and not self.pool_kernels:
            raise ConfigurationError("attention.pool_kernels must hold a kernel when multiscale_pool_enabled is true")
        if any(k % 2 == 0 for k in self.pool_kernels):
            raise ConfigurationError(f"attention.pool_kernels must be odd, got {self.pool_kernels!r}")
        _check_ints("attention.keep_denominators", self.keep_denominators, count=2)


@dataclass
class TcnConfig:
    dilations: tuple = (1, 2)
    kernel: int = 4
    dropout: float = 0.3


@dataclass
class SrConfig:
    """Segmentation-and-reconstruction augmentation settings."""

    segments: int = 8
    enabled: bool = True


@dataclass
class ModelConfig:
    """spa_filters is the feature width: spa_conv's filters, fusion, the TCNs
    and each readout. A branch has spa_filters / depth_multiplier temporal filters."""

    channels: int = 22
    time_steps: int = 1000
    n_classes: int = 4
    temporal_kernels: tuple = (64, 32, 16, 8)
    depth_multiplier: int = 2
    pools: tuple = (8, 7)
    spa_filters: int = 32
    spa_kernel: int = 32
    conv_dropout: float = 0.5
    fusion_mode: str = "main_auxiliary"  # or "hierarchical"
    readout: str = "last_step"  # or "flatten"
    tcn_enabled: bool = True
    residual_enabled: bool = True
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    tcn: TcnConfig = field(default_factory=TcnConfig)

    @property
    def t0(self):
        """Token count after both poolings (integer floor at each stage)."""
        p1, p2 = self.pools
        return (self.time_steps // p1) // p2

    def validate(self):
        if self.channels < 1 or self.time_steps < 1 or self.n_classes < 2:
            raise ConfigurationError("model dims must be positive (and n_classes >= 2)")
        if len(self.temporal_kernels) != 4:
            raise ConfigurationError("the architecture uses exactly four branches")
        _check_ints("temporal_kernels", self.temporal_kernels)
        _check_ints("pools", self.pools, count=2)
        p1, p2 = self.pools
        if self.time_steps < p1 * p2:
            raise ConfigurationError(f"time_steps={self.time_steps} too short for pools {self.pools}")
        if self.depth_multiplier < 1 or self.spa_filters < 1 or self.spa_kernel < 1:
            raise ConfigurationError("filter/kernel counts must be positive")
        self.attention.validate()
        for name, divisor in (("depth_multiplier", self.depth_multiplier), ("attention.heads", self.attention.heads)):
            if self.spa_filters % divisor:
                raise ConfigurationError(f"spa_filters={self.spa_filters} must be divisible by {name}={divisor}")
        if not 0.0 <= self.conv_dropout < 1.0:
            raise ConfigurationError("conv_dropout must lie in [0, 1)")
        if self.fusion_mode not in ("main_auxiliary", "hierarchical"):
            raise ConfigurationError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.readout not in ("last_step", "flatten"):
            raise ConfigurationError(f"unknown readout {self.readout!r}")
        _check_ints("tcn.dilations", self.tcn.dilations)
        if self.tcn_enabled and not self.tcn.dilations:
            raise ConfigurationError("tcn.dilations must hold at least one dilation when tcn_enabled is true")
        if self.tcn.kernel < 1:
            raise ConfigurationError(f"tcn.kernel must be >= 1, got {self.tcn.kernel}")
        if not 0.0 <= self.tcn.dropout < 1.0:
            raise ConfigurationError("tcn.dropout must lie in [0, 1)")


@dataclass
class SynthSpec:
    """Recipe for the built-in synthetic EEG generator."""

    n_per_class: int = 0
    channels: int = 8
    time_steps: int = 256
    n_classes: int = 4
    snr: float = 3.0
    subjects: int = 1
    sessions: int = 1


@dataclass
class SplitSpec:
    """Train/test split strategy.

    strategy: none | session_holdout | kfold | loso. `seed` drives the
    k-fold shuffle; the other strategies are deterministic filters.
    """

    strategy: str = "none"
    n_folds: int = 5
    fold_index: int = 0
    held_out_subject: int = 1
    train_sessions: tuple = (1, 2)
    test_sessions: tuple = (3,)
    seed: int = 0

    def validate(self):
        if self.strategy not in ("none", "session_holdout", "kfold", "loso"):
            raise ConfigurationError(f"unknown split strategy {self.strategy!r}")
        if self.strategy == "kfold":
            if self.n_folds < 2:
                raise ConfigurationError("kfold needs n_folds >= 2")
            if not 0 <= self.fold_index < self.n_folds:
                raise ConfigurationError("fold_index out of range")
        if self.seed < 0:
            raise ConfigurationError(f"split.seed must be >= 0, got {self.seed}")
        if self.strategy == "session_holdout":
            if set(self.train_sessions) & set(self.test_sessions):
                raise ConfigurationError("train and test sessions overlap")


@dataclass
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 64
    lr: float = 0.0009
    eval_every: int = 0  # 0 disables the eval_acc column
    normalize: bool = False  # per-channel z-score fitted on the train split


@dataclass
class RunConfig:
    """Everything one training/evaluation run needs."""

    data_path: str = ""
    synth: SynthSpec = field(default_factory=SynthSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    sr: SrConfig = field(default_factory=SrConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 42
    out_dir: str = "runs/out"

    def validate(self):
        if bool(self.data_path) == (self.synth.n_per_class > 0):
            raise ConfigurationError(
                "exactly one data source required: set data_path or synth.n_per_class"
            )
        if self.train.epochs < 0 or self.train.batch_size < 1:
            raise ConfigurationError("train.epochs must be >= 0 and train.batch_size >= 1")
        if self.train.eval_every < 0:
            raise ConfigurationError(f"train.eval_every must be >= 0, got {self.train.eval_every}")
        if not (math.isfinite(self.train.lr) and self.train.lr > 0):
            raise ConfigurationError(f"train.lr must be a finite number > 0, got {self.train.lr!r}")
        if self.sr.segments < 1:
            raise ConfigurationError("sr.segments must be positive")
        self.model.validate()
        if self.sr.enabled and self.sr.segments > self.model.time_steps:
            raise ConfigurationError(f"sr.segments={self.sr.segments} exceeds model.time_steps={self.model.time_steps}")
        self.split.validate()


# -- flat text serialization ----------------------------------------------


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, (float, int, str)):
        return repr(value) if isinstance(value, float) else str(value)
    raise ConfigurationError(f"unsupported config value type {type(value).__name__}")


def _parse_value(text, ftype):
    if ftype is bool:
        if text not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text == "true"
    if ftype is tuple:  # tuples hold ints throughout the config schema
        return tuple(int(p) for p in text.split(",")) if text else ()
    if ftype in (int, float, str):
        return ftype(text)
    raise ConfigurationError(f"unsupported config field type {ftype!r}")


def flatten_config(cfg, prefix=""):
    """Dataclass -> ordered {dotted.key: text} mapping."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            out.update(flatten_config(value, prefix=f"{key}."))
        else:
            out[key] = _format_value(value)
    return out


def apply_flat(cfg, key, text, full_key=None):
    """Set the field at a dotted key (e.g. attention.topk_enabled) from its text."""
    full_key = full_key or key
    head, _, rest = key.partition(".")
    if head not in {f.name for f in dataclasses.fields(cfg)}:
        raise ConfigurationError(f"unknown config key {full_key!r}")
    current = getattr(cfg, head)
    if dataclasses.is_dataclass(current):
        if not rest:
            raise ConfigurationError(f"config key {full_key!r} names a section, not a value")
        apply_flat(current, rest, text, full_key=full_key)
    elif rest:
        raise ConfigurationError(f"unknown config key {full_key!r}")
    else:
        setattr(cfg, head, _parse_value(text, type(current) if current is not None else str))


def config_to_text(cfg):
    return "".join(f"{k}={v}\n" for k, v in flatten_config(cfg).items())


# Keys older files still carry: ModelConfig key -> (type, the one value it
# may hold given the model config and, in a run config, the run; None
# accepts any). The width keys must equal their derived values. sr_enabled
# never described the model, so a checkpoint's loads at any value, and a
# run config's may not switch S&R off behind sr.enabled. Ratio is top-k's
# one rule.
RETIRED_KEYS = {
    "temporal_filters": (
        tuple,
        lambda m, run: (m.spa_filters // m.depth_multiplier,) * 4 if m.depth_multiplier else None,
    ),
    "attention.embed_dim": (int, lambda m, run: m.spa_filters),
    "attention.pool_pads": (tuple, lambda m, run: m.attention.pool_pads),
    "tcn.filters": (int, lambda m, run: m.spa_filters if m.tcn_enabled else None),
    "sr_enabled": (bool, lambda m, run: True if run is not None and run.sr.enabled else None),
    "attention.topk_mode": (str, lambda m, run: "ratio"),
}


def config_from_text(text, cls=RunConfig):
    cfg = cls()
    model, run, prefix = (cfg, None, "") if cls is ModelConfig else (cfg.model, cfg, "model.")
    retired = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        old = key.startswith(prefix) and RETIRED_KEYS.get(key[len(prefix) :])
        try:
            if old:
                retired[key] = (value, _parse_value(value, old[0]), old[1])
            else:
                apply_flat(cfg, key, value)
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"config key {key!r}: {exc}") from exc
    for key, (value, parsed, derive) in retired.items():
        if (derived := derive(model, run)) not in (None, parsed):
            raise ConfigurationError(f"retired config key {key!r}={value}; this config needs {_format_value(derived)}")
    return cfg


def write_config(cfg, path):
    write_atomic(path, config_to_text(cfg))


def read_config(path, cls=RunConfig):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return config_from_text(raw.decode("utf-8"), cls=cls)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text (byte {exc.start})") from exc
