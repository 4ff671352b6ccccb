"""On-disk cache for computed Groebner bases.

One JSON file per entry, named by the SHA-256 of a canonical request
string (field, ambient, order, sorted generator strings).  Writes go
through a temp file + atomic rename so interrupted runs never leave a
torn entry.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .fields import Field, FieldConfig, sha256
from .ring import AmbientSpace, Block, Poly, PolyRing, RingError


def field_from_name(name: str) -> Field:
    """The field a cache key names, 'Q' or 'Fp:<p>'."""
    return FieldConfig.parse(name).field()


def ambient_from_key(key) -> AmbientSpace:
    return AmbientSpace([Block(str(n), int(s), bool(p)) for n, s, p in key])


def basis_request_key(ring: PolyRing, order_name: str, gen_strs: Sequence[str]) -> str:
    payload = {
        "field": ring.field.name,
        "ambient": list(ring.ambient.key()),
        "order": order_name,
        "gens": sorted(gen_strs),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(key_str: str) -> str:
    return sha256(key_str.encode()).hexdigest()


class BasisCache:
    """File-per-entry basis store rooted at a directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.root / (digest + ".json")

    def get(self, key_str: str, ring: PolyRing) -> Optional[List[Poly]]:
        """The basis stored under `key_str`, parsed in `ring`, or None.

        A missing, torn or malformed entry is a miss, so the caller
        recomputes the basis and `put` rewrites the entry."""
        path = self._path(_digest(key_str))
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key_str:
            return None  # not an entry, a hash collision or a foreign file
        basis = entry.get("basis")
        if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
            return None
        try:
            return [ring.parse(s) for s in basis]
        except RingError:
            return None

    def put(self, key_str: str, basis_strs: Sequence[str]) -> None:
        entry = {"key": key_str, "basis": list(basis_strs)}
        data = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        digest = _digest(key_str)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, str(self._path(digest)))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def entries(self) -> List[Path]:
        return sorted(self.root.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        files = self.entries()
        return {
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
        }

    def clear(self) -> int:
        files = self.entries()
        for f in files:
            f.unlink()
        return len(files)

    def verify(self) -> Dict[str, List[str]]:
        """Re-hash every entry and re-parse its polynomials; report bad files."""
        ok, bad = [], []
        for f in self.entries():
            try:
                entry = json.loads(f.read_text())
                key_str = entry["key"]
                if _digest(key_str) + ".json" != f.name:
                    raise ValueError("name does not match key hash")
                req = json.loads(key_str)
                ring = PolyRing(ambient_from_key(req["ambient"]), field_from_name(req["field"]))
                for s in entry["basis"]:
                    ring.parse(s)
                for s in req["gens"]:
                    ring.parse(s)
            except Exception:
                bad.append(f.name)
            else:
                ok.append(f.name)
        return {"ok": ok, "bad": bad}
