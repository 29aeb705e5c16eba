"""The unified experiment API: protocol, spec, and structured results.

The paper's evaluation is a fixed menu of figures and tables; the seed
code mirrored that as hard-coded ``run_X``/``format_X`` function pairs
wired into the CLI by hand.  This module replaces that with one
declarative surface every consumer (CLI, :class:`SweepEngine`, result
cache, golden-fixture machinery) speaks:

* :class:`Experiment` — the protocol/ABC a driver implements:
  ``spec()`` (identity + metadata), ``sweeps(scale)`` (the
  :class:`~repro.experiments.parallel.SweepSpec` grid, whose points are
  the unit of cached, parallel work), ``aggregate(raw)`` (payloads →
  :class:`ExperimentResult`) and
  ``render(result)`` (result → report text).
* One typed codec between a driver's domain result — a frozen
  dataclass — and the result's JSON ``data``: ``encode_data`` writes
  the fields by name, ``decode_data`` rebuilds them from the field
  annotations, starting at ``aggregate_domain``'s return annotation.
* :class:`ExperimentSpec` — declarative identity: name, title,
  description, schema version, tags.
* :class:`ExperimentResult` — a typed, versioned result container with
  ``to_json``/``from_json`` round-tripping and ``to_csv`` export.  The
  ``spec_hash`` field fingerprints everything that determined the
  result (experiment spec + the exact sweep specs), so two results are
  comparable iff their hashes match.

Cache keys are *not* derived from this layer: they keep coming from
:meth:`SweepSpec.key_payload`, which the port onto this API leaves
byte-identical — per-point cache entries written before the refactor
stay valid after it.

Experiments register themselves with
:func:`repro.experiments.registry.register_experiment`; see the README
section "Writing a new experiment".
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import types
import typing
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ValidationError
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.parallel import SweepEngine, SweepResult, SweepSpec

__all__ = [
    "RESULT_FORMAT",
    "ExperimentSpec",
    "RawRun",
    "ExperimentResult",
    "Experiment",
    "GoldenFixture",
    "spec_hash",
]

#: Bump when the :class:`ExperimentResult` serialisation layout changes
#: incompatibly; ``from_json`` then rejects stale files loudly instead
#: of misreading them.
RESULT_FORMAT = 1


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: A field's (encode, decode) pair: domain value ↔ plain-JSON value.
_Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]]

#: Field types the codec writes as they are and reads back by calling
#: the type (``float(3)`` is ``3.0``, as the JSON round trip needs).
_SCALARS = (str, int, float, bool)


def _same(value: Any) -> Any:
    return value


def _codec(annotation: Any) -> _Codec:
    """The codec of one field annotation: a scalar, a frozen dataclass,
    ``X | None``, ``tuple[X, ...]`` or ``tuple[X, Y, …]``.  Tuples are
    written as lists; a tuple of scalars is copied in one step."""
    if annotation in _SCALARS:
        return _same, annotation
    if dataclasses.is_dataclass(annotation):
        return _dataclass_codec(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (types.UnionType, typing.Union) and (
        len(args) == 2 and type(None) in args
    ):
        (inner,) = set(args) - {type(None)}
        encode, decode = _codec(inner)
        return (
            lambda value: None if value is None else encode(value),
            lambda value: None if value is None else decode(value),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if args[0] in _SCALARS:
            return list, lambda value: tuple(map(args[0], value))
        encode, decode = _codec(args[0])
        return (
            lambda value: [encode(item) for item in value],
            lambda value: tuple(decode(item) for item in value),
        )
    if origin is tuple and args and Ellipsis not in args:
        encoders, decoders = zip(*map(_codec, args))
        return (
            lambda value: [f(x) for f, x in zip(encoders, value, strict=True)],
            lambda value: tuple(
                f(x) for f, x in zip(decoders, value, strict=True)
            ),
        )
    raise ValidationError(f"unsupported annotation {annotation!r}")


@functools.cache
def _dataclass_codec(cls: type) -> _Codec:
    """A dataclass as a JSON object keyed by its field names."""
    hints = typing.get_type_hints(cls)
    fields = []
    for field in dataclasses.fields(cls):
        try:
            fields.append((field.name, *_codec(hints[field.name])))
        except ValidationError as exc:
            raise ValidationError(
                f"{cls.__name__}.{field.name}: {exc}"
            ) from None

    def encode(value: Any) -> dict[str, Any]:
        return {name: enc(getattr(value, name)) for name, enc, _ in fields}

    def decode(data: Mapping[str, Any]) -> Any:
        return cls(**{name: dec(data[name]) for name, _, dec in fields})

    return encode, decode


@functools.cache
def _domain_codec(experiment: type) -> _Codec:
    """The codec of ``experiment``'s domain result: the dataclass its
    ``aggregate_domain`` is annotated to return."""
    domain = typing.get_type_hints(experiment.aggregate_domain).get("return")
    if not (isinstance(domain, type) and dataclasses.is_dataclass(domain)):
        raise ValidationError(
            f"aggregate_domain must be annotated to return a dataclass, "
            f"not {domain!r}"
        )
    return _dataclass_codec(domain)


def _json_scalar(value: Any) -> Any:
    """Coerce one table cell to a JSON-native scalar (numpy included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # numpy scalars expose .item(); anything else falls back to str.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative identity of one experiment.

    Attributes
    ----------
    name:
        Registry name — what the CLI subcommand is called.
    title:
        One-line human title (``repro-hydra list`` shows it).
    description:
        What the experiment measures / which paper artifact it
        regenerates.
    version:
        Result-schema version of the experiment's ``data`` payload.
    tags:
        Free-form labels (``"paper"``, ``"ablation"``, ``"scenario"``).
    """

    name: str
    title: str
    description: str = ""
    version: int = 1
    tags: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "version": self.version,
            "tags": list(self.tags),
        }


def spec_hash(spec: ExperimentSpec, sweeps: Sequence[SweepSpec]) -> str:
    """Fingerprint of everything that determines an experiment's result:
    the experiment spec plus the exact sweep specs it will run."""
    payload = {
        "experiment": spec.to_dict(),
        "sweeps": [s.to_dict() for s in sweeps],
    }
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class RawRun:
    """What :meth:`Experiment.aggregate` receives: the ordered sweep
    results plus the scale they were produced at."""

    sweeps: tuple[SweepResult, ...]
    scale: ExperimentScale

    @property
    def payloads(self) -> list[Mapping[str, Any]]:
        """All per-point payloads, flattened across sweeps in order."""
        return [p for result in self.sweeps for p in result.payloads]


@dataclass(frozen=True)
class ExperimentResult:
    """Typed, versioned, serialisable result of one experiment run.

    ``data`` holds the experiment-specific structured payload (plain
    JSON types only — the producing :class:`Experiment` knows how to
    decode it back into its domain dataclasses); ``columns``/``rows``
    hold the flat tabular view used for CSV export.
    """

    experiment: str
    scale: str
    spec_hash: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    data: Mapping[str, Any]
    version: int = 1
    format: int = RESULT_FORMAT

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The result document.  Each call returns an independent copy,
        so a caller may change it without changing this result."""
        document = self._document()
        document["data"] = copy.deepcopy(self.data)
        return document

    def _document(self) -> dict[str, Any]:
        # Shares ``data`` with this result: for serialisation only.
        return {
            "format": self.format,
            "experiment": self.experiment,
            "version": self.version,
            "scale": self.scale,
            "spec_hash": self.spec_hash,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        fmt = int(data.get("format", -1))
        if fmt != RESULT_FORMAT:
            raise ValidationError(
                f"unsupported result format {fmt}; this build reads "
                f"format {RESULT_FORMAT}"
            )
        return cls(
            experiment=str(data["experiment"]),
            version=int(data["version"]),
            scale=str(data["scale"]),
            spec_hash=str(data["spec_hash"]),
            columns=tuple(data["columns"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            data=dict(data["data"]),
            format=fmt,
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self._document(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"not a result JSON document: {exc}") from None
        if not isinstance(data, dict):
            raise ValidationError("result JSON must be an object")
        return cls.from_dict(data)

    def to_csv(self) -> str:
        """The tabular view as CSV text (header + one line per row)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(list(row))
        return buffer.getvalue()


class Experiment(ABC):
    """Protocol/ABC every experiment driver implements.

    Subclasses declare identity via class attributes (``name``,
    ``title``, ``description``, ``version``, ``tags``) and implement
    the three hooks marked abstract below.  Everything else — running
    the whole experiment through a :class:`SweepEngine`, encoding the
    result — is provided generically so the CLI, cache, and golden
    machinery never special-case an experiment.

    The domain result (``Fig2Result`` …) stays the primary object:
    ``aggregate`` encodes it into a serialisable
    :class:`ExperimentResult` and ``render`` decodes it back before
    formatting, so a result loaded with
    :meth:`ExperimentResult.from_json` renders identically to a fresh
    run.  The codec is generic: the domain is the frozen dataclass
    ``aggregate_domain`` is annotated to return, and its fields may be
    ``str``, ``int``, ``float``, ``bool``, nested dataclasses,
    ``tuple[X, ...]``, ``tuple[X, Y]`` and ``X | None``.  A domain of
    any other shape overrides ``encode_data`` and ``decode_data``.
    """

    #: Registry name; also the CLI subcommand.
    name: str = ""
    #: One-line title for ``repro-hydra list``.
    title: str = ""
    #: Longer description (subcommand help).
    description: str = ""
    #: Result-schema version (bump on incompatible ``data`` changes).
    version: int = 1
    #: Free-form labels.
    tags: tuple[str, ...] = ()
    #: CSV column names of the tabular view (empty → no CSV export).
    columns: tuple[str, ...] = ()
    #: Report/listing sort key (``repro-hydra all`` section order);
    #: ties break by registration order.  Plugins default to the end.
    order: int = 1000

    # -- identity --------------------------------------------------------

    def spec(self) -> ExperimentSpec:
        """The experiment's declarative spec."""
        return ExperimentSpec(
            name=self.name,
            title=self.title,
            description=self.description,
            version=self.version,
            tags=tuple(self.tags),
        )

    # -- the three experiment-specific hooks ------------------------------

    @abstractmethod
    def sweeps(self, scale: ExperimentScale) -> Sequence[SweepSpec]:
        """The sweep specs this experiment runs at ``scale`` (may be
        empty for experiments that compute inline, e.g. the search
        ablation)."""

    @abstractmethod
    def aggregate_domain(self, raw: RawRun) -> Any:
        """Fold the raw per-point payloads into the experiment's domain
        result object (``Fig2Result``, ``ScenarioResult``, …).  The
        default codec reads the domain's dataclass from this method's
        return annotation."""

    @abstractmethod
    def render_domain(self, domain: Any) -> str:
        """Domain result → the report text the CLI prints."""

    # -- optional hooks ----------------------------------------------------

    def encode_data(self, domain: Any) -> dict[str, Any]:
        """Domain result → plain-JSON ``data`` payload: a JSON object
        per dataclass, keyed by field name, and a list per tuple."""
        return self._result_codec()[0](domain)

    def decode_data(self, data: Mapping[str, Any]) -> Any:
        """Inverse of :meth:`encode_data`."""
        return self._result_codec()[1](data)

    def _result_codec(self) -> _Codec:
        try:
            return _domain_codec(type(self))
        except (ValidationError, NameError) as exc:
            raise ValidationError(
                f"experiment {self.name!r} cannot use the default result "
                f"codec ({exc}); override encode_data and decode_data"
            ) from None

    def table_rows(self, domain: Any) -> Iterable[Sequence[Any]]:
        """Rows of the flat tabular (CSV) view; pairs with ``columns``."""
        return ()

    def golden_fixture(self) -> "GoldenFixture | None":
        """A small fixed-seed sweep pinning this experiment's behaviour
        (``None`` → no golden fixture)."""
        return None

    # -- generic machinery -------------------------------------------------

    def spec_hash(self, scale: ExperimentScale) -> str:
        """Fingerprint of this experiment's full configuration at
        ``scale`` (see :func:`spec_hash`)."""
        return spec_hash(self.spec(), self.sweeps(scale))

    def aggregate(self, raw: RawRun) -> ExperimentResult:
        """Raw sweep results → a serialisable :class:`ExperimentResult`."""
        domain = self.aggregate_domain(raw)
        rows = tuple(
            tuple(_json_scalar(cell) for cell in row)
            for row in self.table_rows(domain)
        )
        return ExperimentResult(
            experiment=self.name,
            version=self.version,
            scale=raw.scale.name,
            spec_hash=self.spec_hash(raw.scale),
            columns=tuple(self.columns),
            rows=rows,
            data=self.encode_data(domain),
        )

    def check_result(self, result: ExperimentResult) -> None:
        """Reject results that belong to another experiment or schema."""
        if result.experiment != self.name:
            raise ValidationError(
                f"result belongs to experiment {result.experiment!r}, "
                f"not {self.name!r}"
            )
        if result.version != self.version:
            raise ValidationError(
                f"result schema v{result.version} does not match "
                f"{self.name} v{self.version}"
            )

    def render(self, result: ExperimentResult) -> str:
        """Render a (possibly deserialised) result as report text."""
        self.check_result(result)
        return self.render_domain(self.decode_data(result.data))

    def _run_sweeps(
        self, scale: ExperimentScale | None, engine: SweepEngine | None
    ) -> RawRun:
        scale = scale or get_scale()
        engine = engine or SweepEngine()
        results = tuple(engine.run(spec) for spec in self.sweeps(scale))
        return RawRun(sweeps=results, scale=scale)

    def run_domain(
        self,
        scale: ExperimentScale | None = None,
        engine: SweepEngine | None = None,
    ) -> Any:
        """Run the experiment and return the *domain* result object
        (``Fig2Result``, ``ScenarioResult``, …) that
        :meth:`render_domain` formats."""
        return self.aggregate_domain(self._run_sweeps(scale, engine))

    def run(
        self,
        scale: ExperimentScale | None = None,
        engine: SweepEngine | None = None,
    ) -> ExperimentResult:
        """Run the experiment end to end at ``scale`` through ``engine``
        (default: a serial, uncached :class:`SweepEngine`)."""
        return self.aggregate(self._run_sweeps(scale, engine))


@dataclass(frozen=True)
class GoldenFixture:
    """A small fixed-seed sweep whose summary is pinned on disk.

    ``build_spec`` returns the (deliberately tiny) sweep spec, or a
    list of specs run in order; ``summarize`` folds the per-point
    payloads into the human-reviewable ``points`` list stored in the
    fixture JSON (the full payloads are additionally pinned via sha256
    — see :mod:`repro.experiments.golden`).
    """

    name: str
    build_spec: Any  # Callable[[], SweepSpec | list[SweepSpec]]
    summarize: Any  # Callable[[what build_spec returned, payloads], list]
