"""Pipeline configuration: a flat key = value file with bracketed sections.

The format needs no parser beyond line splitting, so configs stay readable
in any environment. Every run writes its effective configuration (defaults
filled in, overrides applied) next to its outputs; loading that file back
reproduces the run exactly.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .dataset import DataError, content_lines, read_text
from .mcmc import McmcConfig

KNOWN_LEARNERS = ("hc", "chowliu", "tan", "naive", "bd")


class ConfigError(Exception):
    pass


def _key(section: str, key: str, kind: str, default=MISSING):
    """The field read from `key` under `[section]`; kind drives parsing and
    serialization. A field with no default is a required key."""
    return field(default=default, metadata={"section": section, "key": key, "kind": kind})


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """One field per config key, in the order dump_config writes them."""

    dataset_path: str = _key("data", "dataset", "str")
    schema_path: str = _key("data", "schema", "str")
    target: str | None = _key("data", "target", "optstr", None)

    min_mi: float = _key("selection", "min_mi", "float", 0.0)
    min_cmi: float = _key("selection", "min_cmi", "float", 0.0)
    keep: tuple[str, ...] = _key("selection", "keep", "strlist", ())
    hist_bins: int = _key("selection", "hist_bins", "int", 20)

    learners: tuple[str, ...] = _key("learn", "learners", "strlist", ("chowliu", "tan", "naive"))
    constraints_path: str | None = _key("learn", "constraints", "optstr", None)
    orientation_path: str | None = _key("learn", "chowliu_orientation", "optstr", None)
    hc_restarts: int = _key("learn", "hc_restarts", "int", 0)
    user_structures: tuple[tuple[str, str], ...] = _key("learn", "user_structures", "pairs", ())

    alpha0: float = _key("model", "alpha0", "float", 1.0)
    bdeu_ess: float | None = _key("model", "bdeu_ess", "optfloat", None)

    seed: int = _key("split", "seed", "int")
    test_fraction: float = _key("split", "test_fraction", "float", 0.15)
    fold_count: int = _key("split", "fold_count", "int", 10)
    fold_fraction: float = _key("split", "fold_fraction", "float", 0.08)

    chains: int = _key("mcmc", "chains", "int", 3)
    adapt_iters: int = _key("mcmc", "adapt_iters", "int", 1000)
    burnin_iters: int = _key("mcmc", "burnin_iters", "int", 1000)
    sample_iters: int = _key("mcmc", "sample_iters", "int", 10000)
    thin: int = _key("mcmc", "thin", "int", 1)
    monitor: tuple[str, ...] = _key("mcmc", "monitor", "strlist", ())

    predict_mode: str = _key("predict", "mode", "str", "mcmc")
    cv_mode: str = _key("predict", "cv_mode", "str", "exact")
    literal_rmse: bool = _key("predict", "literal_rmse", "bool", False)
    chosen_model: str | None = _key("predict", "model", "optstr", None)

    out_dir: str = _key("output", "dir", "str", "out")
    rhat_threshold: float = _key("output", "rhat_threshold", "float", 1.1)

    def mcmc_config(self) -> McmcConfig:
        return McmcConfig(
            seed=self.seed,
            chains=self.chains,
            adapt_iters=self.adapt_iters,
            burnin_iters=self.burnin_iters,
            sample_iters=self.sample_iters,
            thin=self.thin,
        )


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
    known = {(f.metadata["section"], f.metadata["key"]): f for f in fields(PipelineConfig)}
    section = None
    values: dict[str, object] = {}
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
        spec = known[(section, key)]
        if spec.name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key [{section}] {key}")
        values[spec.name] = _parse_value(spec.metadata["kind"], raw_value, f"{source}:{lineno}")
    missing = [f.name for f in known.values() if f.default is MISSING and f.name not in values]
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
    for f in fields(cfg):
        section = f.metadata["section"]
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{f.metadata['key']} = {_format_value(f.metadata['kind'], getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(dump_config(cfg), encoding="utf-8")
