"""Declarative experiment specs: a sweep as serializable data.

An :class:`ExperimentSpec` captures everything
:func:`~repro.experiments.runner.compare_protocols` needs -- the
protocol list (resolved through the protocol registry), topology seeds,
parallelism/caching knobs, and the full
:class:`~repro.experiments.scenarios.SimulationScenarioConfig` -- as a
plain dataclass that round-trips losslessly through ``dict``, JSON, and
TOML.  That makes every router x metric sweep shippable as a file::

    repro run --spec examples/paper_spec.toml
    repro run --spec examples/maodv_sweep.toml --protocols maodv,maodv-spp

Serialization rules
-------------------
* Nested config dataclasses become nested tables/objects; unknown keys
  are rejected (a typo'd field fails loudly at load time, not silently
  mid-sweep).
* ``None`` fields are omitted on write (TOML has no null); absent keys
  take the dataclass default on read, so defaults never bloat spec
  files.
* Model *instances* (a custom propagation or fading object) are not
  serializable -- specs describe the declarative surface only, and
  :meth:`ExperimentSpec.to_dict` refuses exotic values instead of
  writing a lossy ``repr``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.campaigns import CampaignConfig
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.protocols import ProtocolSpec, protocol_by_name

#: Bump when the on-disk spec layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec file or dict that cannot be interpreted."""


# ----------------------------------------------------------------------
# Dataclass <-> plain-dict conversion (strict, lossless)


def _plain(value: Any, where: str) -> Any:
    """Reduce a config value to JSON/TOML primitives, refusing the rest."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            item = _plain(getattr(value, f.name), f"{where}.{f.name}")
            if item is not None:
                out[f.name] = item
        return out
    if isinstance(value, Mapping):
        return {str(k): _plain(v, f"{where}[{k!r}]") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item, f"{where}[]") for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        f"{where} = {value!r} is not serializable; experiment specs may "
        "only contain primitives and config dataclasses (construct model "
        "instances in code instead)"
    )


def _strip_optional(hint: Any) -> Any:
    if get_origin(hint) is Union:
        args = [a for a in get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return hint


def _sequence_item_dataclass(hint: Any) -> Optional[type]:
    """The dataclass a ``List[X]``/``Tuple[X, ...]`` hint holds, if any.

    Lets config fields like ``FaultPlan.outages: Tuple[OutageWindow, ...]``
    round-trip: the serialized form is a list of tables, rebuilt here
    element by element.
    """
    if get_origin(hint) not in (list, tuple):
        return None
    item_types = [a for a in get_args(hint) if a is not Ellipsis]
    if len(set(item_types)) != 1:
        return None
    item_type = _strip_optional(item_types[0])
    if isinstance(item_type, type) and dataclasses.is_dataclass(item_type):
        return item_type
    return None


def _build_dataclass(cls: type, data: Mapping[str, Any], where: str) -> Any:
    """Reconstruct a (possibly nested) config dataclass from a mapping."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} must be a table/object, got {data!r}")
    field_types = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in {where}; valid keys: "
            + ", ".join(sorted(names))
        )
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        target = _strip_optional(field_types[f.name])
        if dataclasses.is_dataclass(target) and isinstance(value, Mapping):
            value = _build_dataclass(target, value, f"{where}.{f.name}")
        else:
            item_type = _sequence_item_dataclass(target)
            if item_type is not None and isinstance(value, (list, tuple)):
                value = [
                    _build_dataclass(
                        item_type, item, f"{where}.{f.name}[{index}]"
                    )
                    for index, item in enumerate(value)
                ]
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


def config_to_dict(config: SimulationScenarioConfig) -> Dict[str, Any]:
    """A scenario config as nested primitives (raises on model instances)."""
    return _plain(config, "config")


def config_from_dict(data: Mapping[str, Any]) -> SimulationScenarioConfig:
    """Rebuild a scenario config; unknown keys are an error."""
    return _build_dataclass(SimulationScenarioConfig, data, "config")


# ----------------------------------------------------------------------
# A minimal TOML emitter (tomllib is read-only).  Covers exactly the
# value shapes _plain() can produce: str/bool/int/float scalars, lists
# of scalars, nested string-keyed tables, and lists of flat tables
# (emitted as ``[[arrays.of.tables]]``; fault schedules need these).

_BARE_KEY = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _toml_key(key: str) -> str:
    if key and all(ch in _BARE_KEY for ch in key):
        return key
    return json.dumps(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(f"non-finite float {value!r} in spec")
        text = repr(value)
        # TOML requires a decimal point or exponent on floats.
        return text if any(c in text for c in ".eE") else text + ".0"
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise SpecError(f"cannot render {value!r} as TOML")


def toml_dumps(data: Mapping[str, Any]) -> str:
    """Serialize a nested dict of primitives to TOML text."""

    def is_table_array(value: Any) -> bool:
        return (
            isinstance(value, list)
            and bool(value)
            and all(isinstance(item, Mapping) for item in value)
        )

    def emit(table: Mapping[str, Any], prefix: str, lines: List[str]) -> None:
        scalars: Dict[str, Any] = {}
        subtables: Dict[str, Any] = {}
        table_arrays: Dict[str, Any] = {}
        for k, v in table.items():
            if isinstance(v, Mapping):
                subtables[k] = v
            elif is_table_array(v):
                table_arrays[k] = v
            else:
                scalars[k] = v
        if prefix and (scalars or not (subtables or table_arrays)):
            lines.append(f"[{prefix}]")
        for key, value in scalars.items():
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
        if scalars or not prefix:
            lines.append("")
        for key, value in subtables.items():
            path = f"{prefix}.{_toml_key(key)}" if prefix else _toml_key(key)
            emit(value, path, lines)
        for key, items in table_arrays.items():
            path = f"{prefix}.{_toml_key(key)}" if prefix else _toml_key(key)
            for item in items:
                lines.append(f"[[{path}]]")
                for item_key, item_value in item.items():
                    if isinstance(item_value, Mapping) or is_table_array(
                        item_value
                    ):
                        raise SpecError(
                            f"nested tables inside the table array {path!r} "
                            "are not supported by the TOML emitter; write "
                            "the spec as JSON instead"
                        )
                    lines.append(
                        f"{_toml_key(item_key)} = {_toml_value(item_value)}"
                    )
                lines.append("")

    lines: List[str] = []
    emit(data, "", lines)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The spec itself


@dataclass
class ExperimentSpec:
    """One declarative sweep: protocols x seeds over one scenario config."""

    name: str = "experiment"
    description: str = ""
    protocols: Tuple[str, ...] = PROTOCOL_NAMES
    seeds: Tuple[int, ...] = (1,)
    jobs: int = 1
    use_cache: bool = False
    #: Per-run wall-clock timeout (seconds), enforced by the supervised
    #: pool (:mod:`repro.experiments.resilience`).  Setting this -- or
    #: ``max_retries`` -- also journals the sweep durably, which
    #: ``repro run --resume`` replays.  ``None`` (the default) means no
    #: timeout and no journal.
    run_timeout_s: Optional[float] = None
    #: Retry budget for transient failures (timeouts, worker crashes,
    #: OOM kills).  ``None`` = the default policy (2 retries).
    max_retries: Optional[int] = None
    #: Optional mobility axis: run the whole protocols x seeds grid once
    #: per listed model (``config.mobility.model`` replaced per cell) and
    #: label results ``protocol@model``.  Empty = no axis, the spec's
    #: ``config.mobility`` applies as-is.
    mobility_models: Tuple[str, ...] = ()
    #: Sweep execution backend URI: ``"local-pool"`` (default, this
    #: process's pool) or ``"dir://<shared-dir>"`` (the distributed
    #: lease-queue backend; see :mod:`repro.experiments.distributed`).
    backend: str = "local-pool"
    #: Optional ``[adaptive]`` section: run the sweep under the
    #: sequential planner (:mod:`repro.experiments.adaptive`) -- seeds
    #: in batches, CI-driven stopping per protocol, paired
    #: common-random-number comparisons.  ``None`` keeps the exhaustive
    #: grid; ``repro run --adaptive`` fills in the defaults.
    adaptive: Optional[AdaptiveConfig] = None
    #: Optional ``[campaign]`` section: sample the fault-plan space
    #: under an importance proposal biased toward severe schedules
    #: (:mod:`repro.experiments.campaigns`), run every draw against
    #: every protocol with a fault-free CRN baseline, and recover
    #: nominal-world tail estimates from the weighted runs.  ``None``
    #: keeps the ordinary sweep; ``repro run --campaign`` fills in the
    #: defaults.
    campaign: Optional[CampaignConfig] = None
    config: SimulationScenarioConfig = field(
        default_factory=SimulationScenarioConfig
    )

    def __post_init__(self) -> None:
        self.protocols = tuple(self.protocols)
        self.seeds = tuple(self.seeds)
        self.mobility_models = tuple(self.mobility_models)

    # -- validation ----------------------------------------------------

    def resolve_protocols(self) -> Tuple[ProtocolSpec, ...]:
        """Resolve every protocol name through the registry (typo-safe)."""
        return tuple(protocol_by_name(name) for name in self.protocols)

    def validate(self) -> "ExperimentSpec":
        """Check the spec is runnable; returns self for chaining."""
        if not self.protocols:
            raise SpecError("spec lists no protocols")
        if not self.seeds:
            raise SpecError("spec lists no topology seeds")
        if any(not isinstance(seed, int) or isinstance(seed, bool)
               for seed in self.seeds):
            raise SpecError(f"seeds must be integers, got {self.seeds!r}")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise SpecError(
                f"run_timeout_s must be positive, got {self.run_timeout_s!r}"
            )
        if self.max_retries is not None and (
            not isinstance(self.max_retries, int)
            or isinstance(self.max_retries, bool)
            or self.max_retries < 0
        ):
            raise SpecError(
                f"max_retries must be a non-negative integer, "
                f"got {self.max_retries!r}"
            )
        from repro.experiments.executors import BackendError, parse_backend

        try:
            parse_backend(self.backend)
        except BackendError as exc:
            raise SpecError(str(exc)) from exc
        self.resolve_protocols()
        if self.adaptive is not None:
            try:
                self.adaptive.validate()
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
            if self.mobility_models:
                raise SpecError(
                    "adaptive sweeps do not combine with a "
                    "mobility_models axis; run one model per spec"
                )
            baseline = self.adaptive.baseline
            if baseline is not None and baseline not in self.protocols:
                raise SpecError(
                    f"adaptive.baseline {baseline!r} is not among the "
                    f"spec's protocols {list(self.protocols)}"
                )
        if self.campaign is not None:
            try:
                self.campaign.validate()
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
            if self.adaptive is not None:
                raise SpecError(
                    "campaign and adaptive sections do not combine; "
                    "pick one planner per spec"
                )
            if self.mobility_models:
                raise SpecError(
                    "fault campaigns do not combine with a "
                    "mobility_models axis; run one model per spec"
                )
            if not self.config.faults.is_empty():
                raise SpecError(
                    "campaign specs must leave config.faults empty -- "
                    "the campaign samples the fault plans itself"
                )
            baseline = self.campaign.baseline
            if baseline is not None and baseline not in self.protocols:
                raise SpecError(
                    f"campaign.baseline {baseline!r} is not among the "
                    f"spec's protocols {list(self.protocols)}"
                )
        from repro.mobility.models import mobility_model_by_name

        for model in self.mobility_models:
            try:
                mobility_model_by_name(model)
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        return self

    @property
    def total_runs(self) -> int:
        cells = max(1, len(self.mobility_models))
        if self.campaign is not None:
            # Fault-free CRN baseline plus one faulted grid per draw.
            cells *= 1 + self.campaign.draws
        return len(self.protocols) * len(self.seeds) * cells

    def describe(self) -> str:
        """Human-readable run plan (the CLI's ``--dry-run`` output)."""
        lines = [
            f"experiment: {self.name}",
        ]
        if self.description:
            lines.append(f"  {self.description}")
        mobility_axis = (
            f" x {len(self.mobility_models)} mobility models"
            if self.mobility_models else ""
        )
        if self.campaign is not None:
            mobility_axis += (
                f" x (1 baseline + {self.campaign.draws} fault draws)"
            )
        lines += [
            f"runs: {len(self.protocols)} protocols x "
            f"{len(self.seeds)} topologies{mobility_axis} = {self.total_runs}",
            f"seeds: {', '.join(str(seed) for seed in self.seeds)}",
            *(
                [f"mobility: {', '.join(self.mobility_models)} "
                 f"(interval {self.config.mobility.update_interval_s:g} s)"]
                if self.mobility_models else []
            ),
            f"scenario: {self.config.num_nodes} nodes, "
            f"{self.config.duration_s:g} s simulated, "
            f"{self.config.num_groups} group(s) x "
            f"{self.config.members_per_group} members",
            f"execution: jobs={self.jobs} "
            f"cache={'on' if self.use_cache else 'off'} "
            f"telemetry={'on' if self.config.telemetry.enabled else 'off'}"
            + (
                f" backend={self.backend}"
                if self.backend != "local-pool" else ""
            ),
        ]
        if self.adaptive is not None:
            lines.append(
                f"adaptive: target-half-width="
                f"{self.adaptive.target_half_width:g} "
                f"batch={self.adaptive.batch_size} "
                f"seeds {self.adaptive.min_seeds}.."
                f"{self.adaptive.max_seeds} "
                f"paired={'on' if self.adaptive.paired else 'off'}"
                + (
                    f" baseline={self.adaptive.baseline}"
                    if self.adaptive.baseline else ""
                )
            )
        if self.campaign is not None:
            proposal = (
                f"{self.campaign.proposal_shape:g}"
                if self.campaign.importance else "nominal"
            )
            generators = ", ".join(
                g.kind for g in self.campaign.resolved_generators()
            )
            lines.append(
                f"campaign: {self.campaign.draws} fault draws "
                f"(nominal-shape={self.campaign.nominal_shape:g} "
                f"proposal-shape={proposal} "
                f"tail<{self.campaign.tail_fraction:g}) "
                f"generators: {generators}"
                + (
                    f" baseline={self.campaign.baseline}"
                    if self.campaign.baseline else ""
                )
            )
        if self.run_timeout_s is not None or self.max_retries is not None:
            timeout = (
                f"{self.run_timeout_s:g}s" if self.run_timeout_s is not None
                else "none"
            )
            retries = (
                self.max_retries if self.max_retries is not None
                else "default"
            )
            lines.append(
                f"resilience: run-timeout={timeout} max-retries={retries} "
                "(supervised workers, journaled)"
            )
        lines.append("protocols:")
        for proto in self.resolve_protocols():
            metric = proto.metric or "min-hop"
            lines.append(
                f"  {proto.name:<12} family={proto.family:<13} "
                f"metric={metric:<8} router={proto.router.__name__}"
            )
        return "\n".join(lines)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "protocols": list(self.protocols),
            "seeds": list(self.seeds),
            "jobs": self.jobs,
            "use_cache": self.use_cache,
        }
        # None means "knob not set": omitted on write (TOML has no null),
        # absent keys take the dataclass default on read.
        if self.run_timeout_s is not None:
            data["run_timeout_s"] = self.run_timeout_s
        if self.max_retries is not None:
            data["max_retries"] = self.max_retries
        if self.mobility_models:
            data["mobility_models"] = list(self.mobility_models)
        if self.backend != "local-pool":
            data["backend"] = self.backend
        if self.adaptive is not None:
            data["adaptive"] = _plain(self.adaptive, "adaptive")
        if self.campaign is not None:
            data["campaign"] = _plain(self.campaign, "campaign")
        data["config"] = config_to_dict(self.config)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a table/object, got {data!r}")
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"spec schema {schema!r} not supported "
                f"(this version reads schema {SPEC_SCHEMA_VERSION})"
            )
        known = {
            "schema", "name", "description", "protocols", "seeds",
            "jobs", "use_cache", "run_timeout_s", "max_retries",
            "mobility_models", "backend", "adaptive", "campaign", "config",
        }
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown key(s) {sorted(unknown)} in spec; valid keys: "
                + ", ".join(sorted(known))
            )
        kwargs: Dict[str, Any] = {}
        for key in ("name", "description", "jobs", "use_cache",
                    "run_timeout_s", "max_retries", "backend"):
            if key in data:
                kwargs[key] = data[key]
        if "protocols" in data:
            kwargs["protocols"] = tuple(data["protocols"])
        if "seeds" in data:
            kwargs["seeds"] = tuple(data["seeds"])
        if "mobility_models" in data:
            kwargs["mobility_models"] = tuple(data["mobility_models"])
        if "adaptive" in data:
            kwargs["adaptive"] = _build_dataclass(
                AdaptiveConfig, data["adaptive"], "adaptive"
            )
        if "campaign" in data:
            kwargs["campaign"] = _build_dataclass(
                CampaignConfig, data["campaign"], "campaign"
            )
        if "config" in data:
            kwargs["config"] = config_from_dict(data["config"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid JSON spec: {exc}") from exc
        return cls.from_dict(data)

    def to_toml(self) -> str:
        return toml_dumps(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        try:
            import tomllib
        except ImportError:  # Python 3.10: tomllib landed in 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError:
                raise SpecError(
                    "reading TOML specs needs Python >= 3.11 (tomllib) "
                    "or the 'tomli' package; use a .json spec instead"
                ) from None

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML spec: {exc}") from exc
        return cls.from_dict(data)

    # -- files ---------------------------------------------------------

    def save(self, path: str) -> str:
        """Write the spec to ``path`` (.toml or .json, by extension)."""
        text = self.to_json() if _is_json(path) else self.to_toml()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a spec file (.toml or .json, by extension)."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return cls.from_json(text) if _is_json(path) else cls.from_toml(text)

    # -- derived specs -------------------------------------------------

    def with_overrides(
        self,
        protocols: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        run_timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
        mobility_models: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
    ) -> "ExperimentSpec":
        """A copy with CLI-style overrides applied (None = keep)."""
        return dataclasses.replace(
            self,
            protocols=tuple(protocols) if protocols is not None
            else self.protocols,
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            mobility_models=tuple(mobility_models)
            if mobility_models is not None else self.mobility_models,
            jobs=self.jobs if jobs is None else jobs,
            use_cache=self.use_cache if use_cache is None else use_cache,
            run_timeout_s=self.run_timeout_s if run_timeout_s is None
            else run_timeout_s,
            max_retries=self.max_retries if max_retries is None
            else max_retries,
            backend=self.backend if backend is None else backend,
        )


def _is_json(path: str) -> bool:
    return path.lower().endswith(".json")


def load_experiment_spec(path: str) -> ExperimentSpec:
    """Module-level convenience alias for :meth:`ExperimentSpec.load`."""
    return ExperimentSpec.load(path)
