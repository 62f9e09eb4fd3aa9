"""The service request schema: validation and canonical content keys.

Every job the service accepts — ``compile``, ``simulate``, ``trace``,
``fuzz``, ``bench`` — is a JSON object.  :func:`normalize_request`
validates it against the per-kind schema, fills defaults, rejects unknown
fields, and returns the *canonical* form; :func:`request_key` hashes that
canonical form to the same SHA-256 content address the harness cache
uses.  Canonicalisation is what makes dedup and batching sound:

* two textually different submissions of the same work (field order,
  defaults spelled out or omitted, sizes as ``"64M"`` vs ``67108864``)
  normalise to the same canonical dict and therefore the same key, so
  they coalesce onto one computation / one stored artifact;
* only *result-determining* fields are admitted into the schema at all —
  execution hints like worker counts are a server concern, never part of
  a request — so a key equality really does imply result equality (the
  whole pipeline is deterministic).

The entire deterministic-pipeline argument from PR 1 carries over: a
cache hit on a request key is behaviour-preserving, which is why the
service can serve repeated traffic without touching a worker.
"""

from __future__ import annotations

from repro.config import HintPolicy
from repro.errors import ServiceError
from repro.harness.cache import hash_key
from repro.machine import machine_names
from repro.workloads import SUITE_NAMES

#: bump when the request schema or result payloads change incompatibly
#: (part of every request key, so stale stored results become misses)
SCHEMA_VERSION = 3

JOB_KINDS = ("compile", "simulate", "trace", "fuzz", "bench")
POLICIES = tuple(policy.value for policy in HintPolicy)
INJECT_MODES = ("none", "drop-edge")
#: registered machine models; the machine *determines* the result, so it
#: stays in the canonical form and the request key
MACHINES = tuple(machine_names())

#: request body size cap mirrored by the HTTP layer
MAX_LOOP_BYTES = 1 << 20

#: fields a request no longer accepts, at the one value every stored
#: result was computed with; :func:`request_key` restores them so every
#: key minted before their removal still addresses its stored result
RETIRED_REQUEST_FIELDS = {"scheduler": "heuristic"}

#: longest suffixes first so ``kb`` wins over ``b``-less ``k``
_SIZE_SUFFIXES = (
    ("kb", 1 << 10), ("mb", 1 << 20), ("gb", 1 << 30),
    ("k", 1 << 10), ("m", 1 << 20), ("g", 1 << 30),
)


def _bad(field: str, message: str) -> ServiceError:
    return ServiceError(f"invalid request: {field}: {message}", status=400)


def _str(payload: dict, field: str, default: str | None = None) -> str:
    value = payload.get(field, default)
    if not isinstance(value, str) or not value.strip():
        raise _bad(field, "expected a non-empty string")
    return value


def _int(payload: dict, field: str, default: int, *, lo: int, hi: int) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(field, f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise _bad(field, f"must be in [{lo}, {hi}], got {value}")
    return value


def _bool(payload: dict, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise _bad(field, f"expected a boolean, got {value!r}")
    return value


def _choice(payload: dict, field: str, default: str | None,
            choices: tuple[str, ...]) -> str:
    value = payload.get(field, default)
    if value not in choices:
        raise _bad(field, f"expected one of {', '.join(choices)}, "
                          f"got {value!r}")
    return value


def parse_size(value) -> int:
    """A positive byte count from an integer or a ``"64M"``/``"512kb"``
    string; raises :class:`ValueError` on anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("expected an integer or a string such as 64M")
    if isinstance(value, int):
        size = value
    else:
        text = value.strip().lower()
        factor = 1
        for suffix, suffix_factor in _SIZE_SUFFIXES:
            if text.endswith(suffix):
                factor = suffix_factor
                text = text[: -len(suffix)]
                break
        try:
            size = int(float(text) * factor)
        except ValueError:
            raise ValueError(
                "expected a number with an optional K/M/G or KB/MB/GB "
                "suffix, e.g. 64M or 512kb"
            ) from None
    if size <= 0:
        raise ValueError("size must be positive")
    return size


def _size(field: str, value) -> int:
    try:
        return parse_size(value)
    except ValueError as exc:
        raise _bad(field, f"{exc}, got {value!r}") from None


def _reject_unknown(kind: str, payload: dict, known: set[str]) -> None:
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServiceError(
            f"invalid request: unknown field(s) for {kind!r}: "
            f"{', '.join(unknown)} (accepted: {', '.join(sorted(known))})",
            status=400,
        )


def _loop_text(payload: dict) -> str:
    loop = _str(payload, "loop")
    if len(loop.encode("utf-8", "replace")) > MAX_LOOP_BYTES:
        raise _bad("loop", f"loop text exceeds {MAX_LOOP_BYTES} bytes")
    return loop


def _tuning_fields(payload: dict) -> dict:
    return {
        "threshold": _int(payload, "threshold", 32, lo=0, hi=1_000_000),
        "pgo": _bool(payload, "pgo", True),
        "prefetch": _bool(payload, "prefetch", True),
    }


def normalize_config(payload: dict) -> dict:
    """The canonical compiler-config fields of a loop request: policy,
    threshold, pgo and prefetch, validated with their defaults filled."""
    return {
        "policy": _choice(payload, "policy", "hlo", POLICIES),
        **_tuning_fields(payload),
    }


_CONFIG_KEYS = {"policy", "threshold", "pgo", "prefetch"}


def _machine(payload: dict) -> str:
    """The machine-model name, validated against the registry."""
    return _choice(payload, "machine", "itanium2", MACHINES)


def _normalize_compile(payload: dict) -> dict:
    _reject_unknown(
        "compile", payload, {"loop", "verify", "machine"} | _CONFIG_KEYS
    )
    return {
        "loop": _loop_text(payload),
        **normalize_config(payload),
        "machine": _machine(payload),
        "verify": _bool(payload, "verify", False),
    }


def _normalize_spaces(payload: dict) -> dict:
    spaces = payload.get("spaces", {})
    if not isinstance(spaces, dict):
        raise _bad("spaces", "expected {name: {size, reuse}}")
    canonical = {}
    for name in sorted(spaces):
        spec = spaces[name]
        if isinstance(spec, (int, str)):  # shorthand: "a": "64M"
            spec = {"size": spec}
        if not isinstance(spec, dict):
            raise _bad(f"spaces.{name}", "expected {size, reuse}")
        _reject_unknown(f"spaces.{name}", spec, {"size", "reuse"})
        canonical[name] = {
            "size": _size(f"spaces.{name}.size", spec.get("size")),
            "reuse": _bool(spec, "reuse", True),
        }
    return canonical


def _normalize_simulate(payload: dict, kind: str = "simulate") -> dict:
    known = {"loop", "trips", "invocations", "spaces", "seed",
             "machine"} | _CONFIG_KEYS
    _reject_unknown(kind, payload, known)
    return {
        "loop": _loop_text(payload),
        **normalize_config(payload),
        "machine": _machine(payload),
        "trips": _int(payload, "trips", 1000, lo=1, hi=10_000_000),
        "invocations": _int(payload, "invocations", 1, lo=1, hi=100_000),
        "spaces": _normalize_spaces(payload),
        "seed": _int(payload, "seed", 11, lo=0, hi=2**31 - 1),
    }


def _normalize_trace(payload: dict) -> dict:
    return _normalize_simulate(payload, kind="trace")


def _normalize_fuzz(payload: dict) -> dict:
    _reject_unknown(
        "fuzz", payload,
        {"cases", "seed", "max_ops", "inject", "shrink", "machine"},
    )
    return {
        "cases": _int(payload, "cases", 100, lo=1, hi=100_000),
        "seed": _int(payload, "seed", 0, lo=0, hi=2**31 - 1),
        "max_ops": _int(payload, "max_ops", 14, lo=2, hi=64),
        "inject": _choice(payload, "inject", "none", INJECT_MODES),
        "shrink": _bool(payload, "shrink", True),
        "machine": _machine(payload),
    }


def _normalize_bench(payload: dict) -> dict:
    _reject_unknown(
        "bench", payload,
        {"suite", "benchmarks", "configs", "seed", "verify", "trace",
         "machine"}
        | _CONFIG_KEYS - {"policy"},
    )
    suite = _choice(payload, "suite", None, SUITE_NAMES)
    benchmarks = payload.get("benchmarks")
    if benchmarks is not None:
        if (not isinstance(benchmarks, list) or not benchmarks
                or not all(isinstance(b, str) and b for b in benchmarks)):
            raise _bad("benchmarks", "expected a non-empty list of names")
        benchmarks = sorted(set(benchmarks))
    configs = payload.get("configs", ["hlo"])
    if not isinstance(configs, list) or not configs:
        raise _bad("configs", "expected a non-empty list of policies")
    for policy in configs:
        if policy not in POLICIES:
            raise _bad("configs", f"unknown policy {policy!r} "
                                  f"(expected {', '.join(POLICIES)})")
    return {
        "suite": suite,
        "benchmarks": benchmarks,
        "configs": sorted(set(configs)),
        **_tuning_fields(payload),
        "seed": _int(payload, "seed", 2008, lo=0, hi=2**31 - 1),
        "machine": _machine(payload),
        "verify": _bool(payload, "verify", False),
        "trace": _bool(payload, "trace", False),
    }


_NORMALIZERS = {
    "compile": _normalize_compile,
    "simulate": _normalize_simulate,
    "trace": _normalize_trace,
    "fuzz": _normalize_fuzz,
    "bench": _normalize_bench,
}


def normalize_request(kind: str, payload: dict) -> dict:
    """Validate ``payload`` for ``kind`` and return its canonical form.

    Raises :class:`ServiceError` (status 400) on an unknown kind, an
    unknown field, or an out-of-range value.  The canonical form is
    JSON-serialisable, has every default filled in, and is byte-stable
    under :func:`repro.harness.cache.hash_key` — the property the
    in-flight dedup and the artifact store rely on.
    """
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"invalid request: unknown job kind {kind!r} "
            f"(expected one of {', '.join(JOB_KINDS)})",
            status=400,
        )
    if not isinstance(payload, dict):
        raise ServiceError(
            f"invalid request: expected a JSON object, got {payload!r}",
            status=400,
        )
    return _NORMALIZERS[kind](payload)


def request_key(kind: str, canonical: dict) -> str:
    """The content address of one canonical request.

    This is the job id, the dedup key, and the artifact-store key, all in
    one: the SHA-256 of the canonical JSON (plus the schema version, so a
    schema change invalidates stored results instead of mis-serving them).
    Different machine models produce different cycles, so each machine
    addresses its own stored artifact.
    """
    if kind != "fuzz":
        canonical = {**canonical, **RETIRED_REQUEST_FIELDS}
    return hash_key({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "request": canonical,
    })


def describe_request(kind: str, canonical: dict) -> str:
    """A short human label for logs and job listings."""
    if kind == "bench":
        extent = canonical["suite"]
        if canonical["benchmarks"]:
            extent += f"[{len(canonical['benchmarks'])}]"
        return f"bench:{extent}:{'+'.join(canonical['configs'])}"
    if kind == "fuzz":
        return f"fuzz:{canonical['cases']}@{canonical['seed']}"
    if kind in ("compile", "simulate", "trace"):
        first = canonical["loop"].strip().splitlines()[0][:40]
        return f"{kind}:{canonical['policy']}:{first}"
    return kind  # pragma: no cover - exhaustive over JOB_KINDS
