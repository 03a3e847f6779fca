"""Persistent on-disk store for the serving engine's pricing memo tables.

The engine memoizes every cycle-model evaluation it performs — decode
step latencies, mixed-step latencies, prefill-chunk sums, and KV
swap/handoff transfer times — into per-instance-class dictionaries
(:class:`~repro.serving.instance.InstanceRuntime` keeps one of each).
Those evaluations are pure functions of the hardware configuration, so
the tables are valid across runs and across processes.  This module
gives them a versioned on-disk format so repeat runs and sweep workers
start warm instead of each re-deriving the same tables at ~100 µs per
entry.

Design points:

* **Keyed by configuration, not by trust.**  Every cache file embeds a
  fingerprint: a SHA-256 over the canonicalized
  :class:`~repro.core.config.SystemConfig` contents plus a probe price
  for the KV transfer geometry.  A file whose embedded fingerprint (or
  format version) does not match the requesting configuration is
  ignored and will be rebuilt — never trusted.
* **Corruption-safe, and loud about it.**  Any failure to read, parse,
  or validate a cache file degrades to a cold start, but never a silent
  one: the rejection's reason is kept in
  :attr:`PricingCacheStore.last_rejection` and a :class:`RuntimeWarning`
  names the file and the reason (a missing file is the one quiet, normal
  cold start).  Writes go through a temp file + :func:`os.replace` so a
  crashed writer can never leave a torn file under the canonical name.
* **Bit-exact.**  Entries are stored as JSON numbers; Python's JSON
  round-trips floats exactly (``repr``-based shortest form), so a warm
  run reproduces the cold run's timestamps bit for bit.

Cache files live under a caller-chosen directory as
``pricing-v<VERSION>-<fingerprint16>.json``.  Bumping :data:`VERSION`
invalidates every existing file at once (used when the table layout or
the pricing semantics change).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

#: On-disk format version.  Bump to invalidate all existing cache files.
VERSION = 1

#: The four memo tables, in the order InstanceRuntime holds them:
#: step ``(context, batch) -> s``, mixed ``(context, decode, ptok) -> s``,
#: prefill ``(start, chunk) -> s``, transfer ``blocks -> s``.
PricingTables = Tuple[
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int, int], float],
    Dict[Tuple[int, int], float],
    Dict[int, float],
]

_TABLE_NAMES = ("step", "mixed", "prefill", "transfer")
_KEY_ARITY = (2, 3, 2, 1)


def config_fingerprint(config: Any, transfer_probe: Optional[float]) -> str:
    """Fingerprint a system configuration (plus KV transfer geometry).

    ``config`` is the :class:`~repro.core.config.SystemConfig` the cycle
    model prices with; ``transfer_probe`` is the class's price for a
    one-block KV transfer (``None`` when the class has no paged KV) —
    transfer pricing depends on block geometry the system config does
    not capture, and the probe price is a pure function of exactly that
    geometry, so folding it into the key invalidates the table whenever
    the geometry changes.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload: Any = dataclasses.asdict(config)
    else:  # pragma: no cover - all shipped configs are dataclasses
        payload = repr(config)
    canonical = json.dumps(
        {"config": payload,
         "transfer_probe": (None if transfer_probe is None
                            else repr(float(transfer_probe)))},
        sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PricingCacheStore:
    """Directory of versioned, fingerprinted pricing-table files."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        #: Why the last :meth:`load` refused its file (None after a good
        #: load or a missing file).
        self.last_rejection: Optional[str] = None

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"pricing-v{VERSION}-{fingerprint[:16]}.json"

    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> Optional[PricingTables]:
        """Load the tables for ``fingerprint``; ``None`` when there are none
        to trust.  A missing file is a normal cold start; any other
        failure is a *rejection*: :attr:`last_rejection` says why and a
        :class:`RuntimeWarning` names the file and the reason."""
        path = self.path_for(fingerprint)
        self.last_rejection = None
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as err:
            return self._reject(path, f"unreadable file ({err})")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            # a torn write leaves a prefix of valid JSON: the parser runs
            # out of input, mid-value or mid-string
            torn = (err.pos >= len(text.rstrip())
                    or err.msg.startswith("Unterminated string"))
            return self._reject(path, "torn file (the JSON ends early)"
                                if torn else "malformed JSON")
        if not isinstance(doc, dict):
            return self._reject(path, "malformed JSON (not an object)")
        if doc.get("version") != VERSION:
            return self._reject(path, f"stale version {doc.get('version')!r}"
                                      f" (this build reads {VERSION})")
        if doc.get("fingerprint") != fingerprint:
            return self._reject(path, "foreign fingerprint")
        tables = []
        try:
            for name, arity in zip(_TABLE_NAMES, _KEY_ARITY):
                table: Dict[Any, float] = {}
                for entry in doc["tables"][name]:
                    *key_parts, value = entry
                    if len(key_parts) != arity:
                        raise ValueError(f"{name} key arity")
                    key = (int(key_parts[0]) if arity == 1
                           else tuple(int(part) for part in key_parts))
                    table[key] = float(value)
                tables.append(table)
        except (ValueError, TypeError, KeyError):
            return self._reject(path, "malformed table entries")
        return (tables[0], tables[1], tables[2], tables[3])

    def _reject(self, path: Path, reason: str) -> None:
        self.last_rejection = reason
        warnings.warn(f"pricing cache {path} rejected: {reason}; "
                      "starting cold", RuntimeWarning, stacklevel=3)

    def save(self, fingerprint: str, tables: PricingTables) -> None:
        """Atomically write ``tables`` under ``fingerprint``.

        Entries are emitted in sorted key order so the file contents are
        a deterministic function of the table contents.
        """
        serialized: Dict[str, Any] = {}
        for name, arity, table in zip(_TABLE_NAMES, _KEY_ARITY, tables):
            rows = []
            for key in sorted(table):
                value = table[key]
                if arity == 1:
                    rows.append([key, value])
                else:
                    rows.append([*key, value])
            serialized[name] = rows
        doc = {"version": VERSION, "fingerprint": fingerprint,
               "tables": serialized}
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fingerprint)
        # pid-unique temp name: concurrent sweep workers saving the same
        # table must not interleave writes into one temp file
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
        os.replace(tmp, path)
