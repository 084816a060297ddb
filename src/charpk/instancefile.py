"""Instance files: small block-structured descriptions of fields,
varieties, derivations, actions and formulas consumed by the CLI.

Syntax:

    variety V { vars: [x, u]; over: "Fp(3;t)"; gens: ["u - 1"] }
    derivation { over: "Fp(3;t)"; images: {t: "1"} }
    action { group: cyclic(4); field: "GF(2,4)"; generator_image: "frobenius" }

A file is a sequence of blocks `kind [label] { key: value; ... }`.
Values are strings, integers, bare words (kept verbatim, e.g.
cyclic(4)), lists `[..]` or maps `{k: v, ...}`.

The builders import the layer they build for when called, so parsing a
file loads no variety, derivation or group code.
"""

from __future__ import annotations

from .errors import InstanceFileError
from .fields import MAX_NESTING, FieldDescriptor, make_field
from .polys import Ideal, PolyRing


class Block:
    __slots__ = ("kind", "label", "fields")

    def __init__(self, kind, label, fields):
        self.kind = kind
        self.label = label
        self.fields = fields

    def __repr__(self):
        return f"<block {self.kind} {self.label or ''}>"

    def get(self, key, default=None):
        return self.fields.get(key, default)

    def require(self, key):
        if key not in self.fields:
            raise InstanceFileError(
                f"block {self.kind!r} is missing the key {key!r}")
        return self.fields[key]


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif ch == "#":
                while (self.pos < len(self.text)
                       and self.text[self.pos] != "\n"):
                    self.pos += 1
            else:
                break

    def done(self):
        self.skip()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise InstanceFileError(
                f"expected {ch!r} at position {self.pos}")
        self.pos += 1

    def word(self):
        self.skip()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] in "_-")):
            self.pos += 1
        if start == self.pos:
            raise InstanceFileError(f"expected a word at position {start}")
        return self.text[start:self.pos]

    def string(self):
        self.expect('"')
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != '"':
            self.pos += 1
        if self.pos >= len(self.text):
            raise InstanceFileError("unterminated string")
        out = self.text[start:self.pos]
        self.pos += 1
        return out

    def bare(self, stops):
        """Raw text up to an unnested stop character, trimmed."""
        self.skip()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif ch in stops and depth == 0:
                break
            self.pos += 1
        return self.text[start:self.pos].strip()

    def value(self, stops=";}", depth=0):
        """The value at pos, inside `depth` lists and maps; nesting them
        deeper than MAX_NESTING is refused."""
        ch = self.peek()
        if ch == '"':
            return self.string()
        if ch in ("[", "{") and depth == MAX_NESTING:
            raise InstanceFileError(f"lists and maps nest deeper than "
                                    f"{MAX_NESTING} at position {self.pos}")
        if ch == "[":
            self.expect("[")
            items = []
            while self.peek() != "]":
                items.append(self.value(",]", depth + 1))
                if self.peek() == ",":
                    self.expect(",")
            self.expect("]")
            return items
        if ch == "{":
            self.expect("{")
            out = {}
            while self.peek() != "}":
                key = self.word()
                self.expect(":")
                out[key] = self.value(",}", depth + 1)
                if self.peek() == ",":
                    self.expect(",")
            self.expect("}")
            return out
        raw = self.bare(stops)
        if not raw:
            raise InstanceFileError(
                f"expected a value at position {self.pos}")
        try:
            return int(raw)
        except ValueError:
            return raw


class InstanceFile:
    """Parsed instance file: an ordered list of blocks."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    @classmethod
    def parse(cls, text: str) -> "InstanceFile":
        sc = _Scanner(text)
        blocks = []
        while not sc.done():
            kind = sc.word()
            label = None
            if sc.peek() != "{":
                label = sc.word()
            sc.expect("{")
            fields = {}
            while sc.peek() != "}":
                key = sc.word()
                sc.expect(":")
                fields[key] = sc.value()
                if sc.peek() == ";":
                    sc.expect(";")
            sc.expect("}")
            blocks.append(Block(kind, label, fields))
        return cls(blocks)

    @classmethod
    def load(cls, path) -> "InstanceFile":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def find(self, kind, label=None):
        for b in self.blocks:
            if b.kind == kind and (label is None or b.label == label):
                return b
        return None

    def require(self, kind, label=None) -> Block:
        b = self.find(kind, label)
        if b is None:
            where = f" {label!r}" if label else ""
            raise InstanceFileError(f"no {kind!r}{where} block in the file")
        return b


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_field(spec) -> FieldDescriptor:
    if isinstance(spec, FieldDescriptor):
        return spec
    if not isinstance(spec, str):
        raise InstanceFileError(f"field spec must be a string, not {spec!r}")
    return make_field(spec)


def build_ideal(block: Block) -> Ideal:
    """The ideal of the block's `gens` in K[vars], K its `over` field."""
    over = block.get("over")
    if over is None:
        raise InstanceFileError("variety block needs an 'over' field")
    field = build_field(over)
    vars_ = block.require("vars")
    if isinstance(vars_, str):
        vars_ = [vars_]
    ring = PolyRing(field, tuple(str(v) for v in vars_))
    return Ideal(ring, [ring.parse(g) for g in block.get("gens", [])])


def build_variety(block: Block) -> "AffineVariety":
    from .variety import AffineVariety
    ideal = build_ideal(block)
    return AffineVariety(ideal.ring.field, ideal.ring.vars, ideal)


def build_derivation(block: Block, field=None) -> "DerivationContext":
    from .differential import DerivationContext
    if field is None:
        field = build_field(block.require("over"))
    images = block.get("images", {}) or {}
    return DerivationContext(field, images)


def build_action(block: Block) -> "FieldAction":
    from .groups import FieldAction
    field = build_field(block.require("field"))
    group = str(block.require("group")).strip()
    if not (group.startswith("cyclic(") and group.endswith(")")):
        raise InstanceFileError(
            f"unsupported group description {group!r}; use cyclic(n)")
    try:
        n = int(group[len("cyclic("):-1])
    except ValueError as exc:
        raise InstanceFileError(f"bad group order in {group!r}") from exc
    image = block.require("generator_image")
    if not isinstance(image, str):
        raise InstanceFileError(
            f"generator image must be a string, not {image!r}")
    return FieldAction.cyclic_action(n, field, image)
