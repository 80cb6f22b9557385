"""Pipeline configuration: a flat key = value file with bracketed sections.

The format needs no parser beyond line splitting, so configs stay readable
in any environment. Every run writes its effective configuration (defaults
filled in, overrides applied) next to its outputs; loading that file back
reproduces the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .dataset import DataError, content_lines, read_text
from .mcmc import McmcConfig

KNOWN_LEARNERS = ("hc", "chowliu", "tan", "naive", "bd")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    dataset_path: str
    schema_path: str
    seed: int
    out_dir: str = "out"
    target: str | None = None

    min_mi: float = 0.0
    min_cmi: float = 0.0
    keep: tuple[str, ...] = ()
    hist_bins: int = 20

    learners: tuple[str, ...] = ("chowliu", "tan", "naive")
    constraints_path: str | None = None
    orientation_path: str | None = None
    hc_restarts: int = 0
    user_structures: tuple[tuple[str, str], ...] = ()

    alpha0: float = 1.0
    bdeu_ess: float | None = None

    test_fraction: float = 0.15
    fold_count: int = 10
    fold_fraction: float = 0.08

    chains: int = 3
    adapt_iters: int = 1000
    burnin_iters: int = 1000
    sample_iters: int = 10000
    thin: int = 1
    monitor: tuple[str, ...] = ()

    predict_mode: str = "mcmc"
    cv_mode: str = "exact"
    literal_rmse: bool = False
    chosen_model: str | None = None

    rhat_threshold: float = 1.1

    def mcmc_config(self) -> McmcConfig:
        return McmcConfig(
            seed=self.seed,
            chains=self.chains,
            adapt_iters=self.adapt_iters,
            burnin_iters=self.burnin_iters,
            sample_iters=self.sample_iters,
            thin=self.thin,
        )


# (section, key) -> (attribute, kind); kind drives parsing and serialization
_LAYOUT: list[tuple[str, str, str, str]] = [
    ("data", "dataset", "dataset_path", "str"),
    ("data", "schema", "schema_path", "str"),
    ("data", "target", "target", "optstr"),
    ("selection", "min_mi", "min_mi", "float"),
    ("selection", "min_cmi", "min_cmi", "float"),
    ("selection", "keep", "keep", "strlist"),
    ("selection", "hist_bins", "hist_bins", "int"),
    ("learn", "learners", "learners", "strlist"),
    ("learn", "constraints", "constraints_path", "optstr"),
    ("learn", "chowliu_orientation", "orientation_path", "optstr"),
    ("learn", "hc_restarts", "hc_restarts", "int"),
    ("learn", "user_structures", "user_structures", "pairs"),
    ("model", "alpha0", "alpha0", "float"),
    ("model", "bdeu_ess", "bdeu_ess", "optfloat"),
    ("split", "seed", "seed", "int"),
    ("split", "test_fraction", "test_fraction", "float"),
    ("split", "fold_count", "fold_count", "int"),
    ("split", "fold_fraction", "fold_fraction", "float"),
    ("mcmc", "chains", "chains", "int"),
    ("mcmc", "adapt_iters", "adapt_iters", "int"),
    ("mcmc", "burnin_iters", "burnin_iters", "int"),
    ("mcmc", "sample_iters", "sample_iters", "int"),
    ("mcmc", "thin", "thin", "int"),
    ("mcmc", "monitor", "monitor", "strlist"),
    ("predict", "mode", "predict_mode", "str"),
    ("predict", "cv_mode", "cv_mode", "str"),
    ("predict", "literal_rmse", "literal_rmse", "bool"),
    ("predict", "model", "chosen_model", "optstr"),
    ("output", "dir", "out_dir", "str"),
    ("output", "rhat_threshold", "rhat_threshold", "float"),
]

_REQUIRED = {"dataset_path", "schema_path", "seed"}


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    if kind == "str":
        if not raw:
            raise ConfigError(f"{where}: value required")
        return raw
    if kind == "optstr":
        return raw or None
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if kind == "optfloat":
        if not raw:
            return None
        return _parse_value("float", raw, where)
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {raw!r}")
    if kind == "strlist":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if kind == "pairs":
        out = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"{where}: expected label=path, got {item!r}")
            label, path = (s.strip() for s in item.split("=", 1))
            if not label or not path:
                raise ConfigError(f"{where}: expected label=path, got {item!r}")
            out.append((label, path))
        return tuple(out)
    raise AssertionError(kind)


def _format_value(kind: str, value) -> str:
    if value is None:
        return ""
    if kind in ("str", "optstr"):
        return str(value)
    if kind == "int":
        return str(value)
    if kind in ("float", "optfloat"):
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "strlist":
        return ", ".join(value)
    if kind == "pairs":
        return ", ".join(f"{label}={path}" for label, path in value)
    raise AssertionError(kind)


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    known = {(s, k): (attr, kind) for s, k, attr, kind in _LAYOUT}
    section = None
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, line in content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, raw_value = (s.strip() for s in line.split("=", 1))
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key {key!r} outside any [section]")
        if (section, key) not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key [{section}] {key}")
        attr, kind = known[(section, key)]
        if attr in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key [{section}] {key}")
        seen.add(attr)
        values[attr] = _parse_value(kind, raw_value, f"{source}:{lineno}")
    missing = _REQUIRED - seen
    if missing:
        raise ConfigError(f"{source}: missing required settings: {sorted(missing)}")
    cfg = PipelineConfig(**values)  # type: ignore[arg-type]
    _validate(cfg, source)
    return cfg


def _validate(cfg: PipelineConfig, source: str) -> None:
    for learner in cfg.learners:
        if learner not in KNOWN_LEARNERS:
            raise ConfigError(f"{source}: unknown learner {learner!r} (known: {KNOWN_LEARNERS})")
    labels = [label for label, _ in cfg.user_structures]
    clashes = set(labels) & set(cfg.learners)
    if len(set(labels)) != len(labels) or clashes:
        raise ConfigError(f"{source}: user structure labels must be unique and not shadow learners")
    if cfg.predict_mode not in ("exact", "mcmc") or cfg.cv_mode not in ("exact", "mcmc"):
        raise ConfigError(f"{source}: prediction modes must be 'exact' or 'mcmc'")
    if cfg.alpha0 <= 0:
        raise ConfigError(f"{source}: alpha0 must be positive")
    if cfg.bdeu_ess is not None and cfg.bdeu_ess <= 0:
        raise ConfigError(f"{source}: bdeu_ess must be positive")
    if cfg.hist_bins < 1:
        raise ConfigError(f"{source}: hist_bins must be at least 1")
    if cfg.hc_restarts < 0:
        raise ConfigError(f"{source}: hc_restarts must be non-negative")
    if not 0 < cfg.test_fraction < 1 or not 0 < cfg.fold_fraction < 1:
        raise ConfigError(f"{source}: split fractions must lie in (0,1)")
    try:
        mcmc = cfg.mcmc_config()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    # fit-predict always computes the split-chain r-hat, which needs these
    if mcmc.chains < 2:
        raise ConfigError(f"{source}: [mcmc] chains must be at least 2")
    if mcmc.kept_per_chain < 10:
        raise ConfigError(f"{source}: [mcmc] sample_iters / thin must keep at least 10 draws per chain")


def load_config(
    path: str | Path, out_override: str | None = None, seed_override: int | None = None
) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = read_text(p)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    cfg = parse_config_text(text, str(p))
    if out_override is not None:
        cfg = replace(cfg, out_dir=out_override)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    for label, ref in _input_files(cfg):
        if not Path(ref).is_file():
            raise ConfigError(f"{label} file not found: {ref}")
    return cfg


def _input_files(cfg: PipelineConfig) -> list[tuple[str, str]]:
    refs = [("dataset", cfg.dataset_path), ("schema", cfg.schema_path)]
    if cfg.constraints_path:
        refs.append(("constraints", cfg.constraints_path))
    if cfg.orientation_path:
        refs.append(("orientation", cfg.orientation_path))
    refs.extend((f"structure {label}", path) for label, path in cfg.user_structures)
    return refs


def dump_config(cfg: PipelineConfig) -> str:
    lines = []
    current = None
    for section, key, attr, kind in _LAYOUT:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_format_value(kind, getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(dump_config(cfg), encoding="utf-8")
