"""Time-sliced circuit representation with a stable text format.

A circuit is a sequence of layers. Within a layer every qubit may be touched
by at most one non-noise instruction; noise instructions are exempt because
they annotate the gate or reset they follow rather than occupying time.

Supported instructions:

    CX a b [c d ...]        controlled-NOT on pairs (control, target)
    R q ...                 reset to |0>
    RX q ...                reset to |+>
    M q ...                 Z-basis measurement
    MX q ...                X-basis measurement
    DEPOLARIZE2(p) a b ...  two-qubit depolarizing noise on pairs
    X_ERROR(p) q ...        independent X flip per qubit
    Z_ERROR(p) q ...        independent Z flip per qubit

A CX or DEPOLARIZE2 instruction takes any number of pairs, as stim's format
does, and a qubit may appear in only one pair of a CX.  The encoders write
one CX and one DEPOLARIZE2 per CNOT slot (one layer), over all of the slot's
pairs, so each noise instruction, which the Monte Carlo samples with one
draw call, covers a whole slot.

CHANNELS lists each noise channel's basis faults, once for the whole package.
The text format is line-oriented: `# key: value` header lines, one
instruction per line, `TICK` between consecutive layers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def _bases(*labels: str) -> tuple[tuple[str, int, int], ...]:
    """(label, x, z) per Pauli label: bit i of x and of z is letter i's X and Z part."""
    def part(label: str, shift: int) -> int:
        return sum(("IXZY".index(ch) >> shift & 1) << i for i, ch in enumerate(label))
    return tuple((label, part(label, 0), part(label, 1)) for label in labels)


# Per noise instruction, the basis faults of one site in draw order, as
# (label, x, z): letter i of the label is the Pauli on the site's qubit i.
# A hit site suffers one of them, drawn uniformly (stab_sim.noise_draws).
# DEPOLARIZE2 orders its 15 by their bits xa za xb zb as a binary number.
CHANNELS = {
    "DEPOLARIZE2": _bases(*(a + b for a in "IZXY" for b in "IZXY"))[1:],
    "X_ERROR": _bases("X"),
    "Z_ERROR": _bases("Z"),
}
NOISE_NAMES = frozenset(CHANNELS)
PAIRWISE_NAMES = frozenset({"CX", "DEPOLARIZE2"})
KNOWN_NAMES = NOISE_NAMES | {"CX", "R", "RX", "M", "MX"}


@dataclass(frozen=True)
class Instruction:
    name: str
    targets: tuple[int, ...]
    arg: float | None = None

    def __post_init__(self):
        if self.name not in KNOWN_NAMES:
            raise ValueError(f"unknown instruction name: {self.name!r}")
        if not self.targets:
            raise ValueError(f"{self.name}: at least one target required")
        if self.name in PAIRWISE_NAMES and len(self.targets) % 2:
            raise ValueError(f"{self.name}: targets must come in pairs")
        repeats = [site for site in self.sites() if len(set(site)) < len(site)]
        if repeats:
            raise ValueError(f"{self.name}: the pair {repeats[0]} repeats a qubit")
        if self.name in NOISE_NAMES:
            if self.arg is None or not 0.0 <= self.arg <= 1.0:
                raise ValueError(f"{self.name}: probability in [0, 1] required")
        elif self.arg is not None:
            raise ValueError(f"{self.name}: takes no argument")

    @property
    def is_noise(self) -> bool:
        return self.name in NOISE_NAMES

    def sites(self) -> list[tuple[int, ...]]:
        """The targets grouped per gate or noise site: pairs or single qubits."""
        it = iter(self.targets)
        return list(zip(it, it) if self.name in PAIRWISE_NAMES else zip(it))

    @property
    def n_sites(self) -> int:
        """len(self.sites()), counted without building the sites."""
        return len(self.targets) // 2 if self.name in PAIRWISE_NAMES else len(self.targets)

    def to_text(self) -> str:
        head = self.name if self.arg is None else f"{self.name}({self.arg!r})"
        return head + " " + " ".join(str(t) for t in self.targets)


class LayerError(ValueError):
    """A layer rule broken by instruction `index` of layer `layer`."""

    def __init__(self, layer: int, index: int, message: str):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer
        self.index = index


@dataclass
class Circuit:
    n_qubits: int
    layers: list[list[Instruction]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        for k, layer in enumerate(self.layers):
            # qubit -> index of the instruction that touched it
            touched: dict[int, int] = {}
            for i, instr in enumerate(layer):
                bad = [t for t in instr.targets if not 0 <= t < self.n_qubits]
                if bad:
                    raise LayerError(k, i, f"target {bad[0]} outside 0..{self.n_qubits - 1}")
                if instr.is_noise:
                    continue
                for t in instr.targets:
                    if t in touched:
                        how = "by two instructions"
                        if touched[t] == i:
                            how = f"twice by one {instr.name}"
                        raise LayerError(k, i, f"qubit {t} touched {how}")
                    touched[t] = i

    def instructions(self):
        """Yield (layer_index, instruction) in execution order."""
        for k, layer in enumerate(self.layers):
            for instr in layer:
                yield k, instr

    @property
    def depth(self) -> int:
        """Number of layers containing at least one non-noise instruction."""
        return sum(
            1 for layer in self.layers if any(not i.is_noise for i in layer)
        )

    @property
    def entangling_depth(self) -> int:
        return sum(
            1 for layer in self.layers if any(i.name == "CX" for i in layer)
        )

    @property
    def gate_count(self) -> int:
        """Total number of CX gates (instruction targets counted pairwise)."""
        return sum(
            len(i.targets) // 2
            for _, i in self.instructions()
            if i.name == "CX"
        )

    def to_text(self) -> str:
        lines = [f"# qubits: {self.n_qubits}"]
        for key, value in self.metadata.items():
            lines.append(f"# {key}: {value}")
        for k, layer in enumerate(self.layers):
            if k:
                lines.append("TICK")
            for instr in layer:
                lines.append(instr.to_text())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        n_qubits = qubits_line = None
        metadata: dict = {}
        layers: list[list[Instruction]] = [[]]
        # line number of every instruction, laid out like layers
        lines: list[list[int]] = [[]]
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            try:
                if line == "TICK":
                    layers.append([])
                    lines.append([])
                elif line.startswith("#"):
                    m = re.match(r"#\s*([^:]+?)\s*:\s*(.*)$", line)
                    if not m:
                        raise ValueError(f"malformed header {line!r}")
                    key, value = m.group(1), m.group(2)
                    if key in metadata or (key == "qubits" and qubits_line is not None):
                        raise ValueError(f"repeated '# {key}' header")
                    if key == "qubits":
                        n_qubits = int(value)
                        qubits_line = lineno
                    else:
                        metadata[key] = value
                elif line:
                    layers[-1].append(_parse_instruction(line))
                    lines[-1].append(lineno)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if n_qubits is None:
            raise ValueError("missing '# qubits: N' header")
        if layers and not layers[-1]:
            layers.pop()
        try:
            return cls(n_qubits=n_qubits, layers=layers, metadata=metadata)
        except LayerError as exc:
            raise ValueError(f"line {lines[exc.layer][exc.index]}: {exc}") from None
        except ValueError as exc:  # the qubit count
            raise ValueError(f"line {qubits_line}: {exc}") from None


_INSTRUCTION_RE = re.compile(
    r"^([A-Z][A-Z0-9_]*)(?:\(([^()]+)\))?((?:\s+\d+)+)$"
)


def _parse_instruction(line: str) -> Instruction:
    m = _INSTRUCTION_RE.match(line)
    if not m:
        raise ValueError(f"cannot parse instruction {line!r}")
    name, arg, targets = m.group(1), m.group(2), m.group(3)
    return Instruction(
        name=name,
        targets=tuple(int(t) for t in targets.split()),
        arg=None if arg is None else float(arg),
    )
