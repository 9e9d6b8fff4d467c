"""Byte-serial sponge engine covering all four SHA-3 lengths and both SHAKEs.

One fixed datapath serves every mode: the first 168 state bytes (the
SHAKE128 rate) form a byte-wise shift register and the remaining 32 bytes
sit still.  Each cycle shifts one byte out of the low end and feeds

    new byte 167 = input byte XOR old byte 0,   new byte i = old byte i+1

so after 168 cycles the register has made one full turn and input byte i
has been XORed into state byte i.  The model advances n cycles at once:
n input bytes d turn bytes 0..167 from s into s[n:168] + (s[:n] XOR d),
which is exactly n cycles of the rule, and ``cycles`` counts each of them.
Modes with a smaller rate absorb their block and then shift zero bytes
until the turn completes, which leaves the capacity region untouched.
Squeezing emits byte 0 while shifting zeroes in, so the bytes come out in
state order and a completed turn leaves the state exactly as a block-wise
sponge would have it before the next permutation.

Padding is the usual domain-separated pad10*1, byte-granular, produced by
a five-way selector: 0x06/0x1f (first pad byte), 0x00 (middle), 0x80
(last), 0x86/0x9f (single-byte pad).  ``finish`` absorbs the whole
string ``pad`` returns.

The permutation runs 24 rounds in groups of ``unroll`` rounds per
register commit, on the state read once out of the register as one
(25, 1) ``uint64`` column (``keccak.round_step``'s layout) and written
back once at the end.  If a detection unit is attached it is primed at
permutation entry and after every commit but the last, and at every
group's first round the column sums (and, under z-sheet, the lane sums)
of the state that group reads are checked against the last prime, so
each of the 24/unroll commit windows is covered by one prime and one
check.  The sums are computed once per window, by the prime: the check
reads its parities and the group's first theta reads its column-sum
lanes.  They are computed again only when the hook returns a different
column than it was given, and then only the check and theta read them;
the shadows keep what the prime latched, so the flip is seen.  During
absorb/squeeze shifting the shadows go stale and are invalidated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fd import FdRegisters
from .keccak import NUM_ROUNDS, round_step

STATE_BYTES = 200
SHIFT_RATE_BYTES = 168        # shared shift-register width in bytes

UNROLL_FACTORS = (1, 2, 4, 6, 8, 12, 24)


@dataclass(frozen=True)
class ModeConfig:
    name: str
    rate_bits: int
    capacity_bits: int
    digest_bits: int | None     # None for the extendable-output modes
    domain: str                 # "sha3" or "shake"

    @cached_property            # read on every shift step
    def rate_bytes(self) -> int:
        return self.rate_bits // 8

    @property
    def digest_bytes(self) -> int | None:
        return None if self.digest_bits is None else self.digest_bits // 8


MODES = {
    "sha3-224": ModeConfig("sha3-224", 1152, 448, 224, "sha3"),
    "sha3-256": ModeConfig("sha3-256", 1088, 512, 256, "sha3"),
    "sha3-384": ModeConfig("sha3-384", 832, 768, 384, "sha3"),
    "sha3-512": ModeConfig("sha3-512", 576, 1024, 512, "sha3"),
    "shake128": ModeConfig("shake128", 1344, 256, None, "shake"),
    "shake256": ModeConfig("shake256", 1088, 512, None, "shake"),
}

SUPPORTED_RATES = tuple(sorted({m.rate_bits for m in MODES.values()}))


def mode_params(mode: str) -> ModeConfig:
    """Look up a mode by name (case-insensitive)."""
    key = mode.lower()
    if key not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return MODES[key]


def select_pad_byte(index: int, n_pad: int, domain: str) -> int:
    """Pad byte at position ``index`` of an ``n_pad``-byte pad string.

    Encodes the domain suffix (01 for SHA-3, 1111 for SHAKE) followed by
    pad10*1, LSB-first within bytes.
    """
    if domain not in ("sha3", "shake"):
        raise ValueError(f"unknown domain {domain!r}")
    if not 0 <= index < n_pad:
        raise ValueError("pad index out of range")
    first = 0x06 if domain == "sha3" else 0x1F
    if n_pad == 1:
        return first | 0x80
    if index == 0:
        return first
    if index == n_pad - 1:
        return 0x80
    return 0x00


def pad(rate_bits: int, msg_bits: int, domain: str) -> bytes:
    """Whole pad string for a message of ``msg_bits`` bits (byte-aligned)."""
    if rate_bits not in SUPPORTED_RATES:
        raise ValueError(f"unsupported rate {rate_bits}")
    if msg_bits % 8:
        raise ValueError("message must be byte-aligned")
    rate_bytes = rate_bits // 8
    n_pad = rate_bytes - (msg_bits // 8) % rate_bytes
    out = bytearray(n_pad)              # middle bytes 0x00; one byte if n_pad == 1
    out[0] = select_pad_byte(0, n_pad, domain)
    out[-1] = select_pad_byte(n_pad - 1, n_pad, domain)
    return bytes(out)


class Engine:
    """One hash computation: absorb, finish, squeeze.

    Attributes mirror the hardware registers: ``state_bytes`` (the
    200-byte state, low 168 acting as the shift register), ``ratecount``
    (shifts since the last permutation), ``phase`` and ``cycles``.  The
    output gate is the detection unit's sticky error flag, read as
    ``masked``: each squeezed byte is emitted as zero once the flag is
    up, and ``squeezed`` keeps the ungated bytes shifted out since the
    last reset.  ``hook``, when set, is called at every commit window
    of every permutation as ``hook(engine, slot, state)``, after the
    detection unit primes and before the check.  ``state`` is the
    read-only (25, 1) ``uint64`` column of lanes the permutation runs on;
    the hook returns the column the check and the next rounds read: the
    one it was given, or a new array if it changes the state.  Writing
    into its column raises ``ValueError``.  The fault campaigns flip bits
    and ``reference_run`` keeps entry states through it.  It is unset by
    default.
    """

    def __init__(self, mode: str, fd: str | None = None, unroll: int = 1):
        self.mode = mode_params(mode)
        if unroll not in UNROLL_FACTORS:
            raise ValueError(f"unroll must be one of {UNROLL_FACTORS}")
        self.unroll = unroll
        self.fd = None if fd is None else FdRegisters(fd)
        self.hook = None
        self.reset()

    def reset(self) -> None:
        self._state = bytearray(STATE_BYTES)
        self.ratecount = 0
        self.phase = "absorbing"
        self.cycles = 0
        self.permutation_index = 0
        self.squeezed = bytearray()
        if self.fd is not None:
            self.fd = FdRegisters(self.fd.scheme)

    @property
    def masked(self) -> bool:
        return self.fd is not None and self.fd.error

    @property
    def state_bytes(self) -> bytes:
        return bytes(self._state)

    def _shift(self, data: bytes) -> None:
        """Run ``len(data)`` cycles, at most one turn, feeding ``data`` in."""
        n = len(data)
        s = self._state
        fed = int.from_bytes(s[:n], "little") ^ int.from_bytes(data, "little")
        s[:SHIFT_RATE_BYTES] = s[n:SHIFT_RATE_BYTES] + fed.to_bytes(n, "little")
        self.ratecount += n
        self.cycles += n

    # ------------------------------------------------------------------
    # absorb path

    def absorb_byte(self, b: int) -> None:
        """Shift one message or pad byte in: one cycle."""
        if self.phase not in ("absorbing", "padding"):
            raise RuntimeError(f"cannot absorb in phase {self.phase!r}")
        if self.ratecount >= self.mode.rate_bytes:
            raise RuntimeError("mode block full; zero-fill and permute first")
        if not 0 <= b <= 0xFF:
            raise ValueError("absorb one byte at a time")
        self._shift(bytes((b,)))

    def _fill_turn(self) -> None:
        """Shift zero bytes in until the register has made a full turn."""
        self._shift(bytes(SHIFT_RATE_BYTES - self.ratecount))

    def absorb_zero_fill(self) -> None:
        """Complete the current turn with zero bytes after a mode block."""
        if self.phase not in ("absorbing", "padding"):
            raise RuntimeError(f"cannot absorb in phase {self.phase!r}")
        if self.ratecount != self.mode.rate_bytes:
            raise RuntimeError("zero fill only after a completed mode block")
        self._fill_turn()

    def _end_block(self) -> None:
        """Zero-fill and permute a mode block that ``absorb_byte`` filled."""
        if self.ratecount == self.mode.rate_bytes:
            self.absorb_zero_fill()
            self.run_permutation()

    def absorb(self, data: bytes) -> None:
        """Absorb bytes or byte values, all checked before the first cycle."""
        if self.phase != "absorbing":
            raise RuntimeError(f"cannot absorb in phase {self.phase!r}")
        # through list(): bytes(5) is five zero bytes, not a TypeError
        data = data if isinstance(data, bytes) else bytes(list(data))
        self._end_block()
        pos = 0
        while pos < len(data):
            end = pos + self.mode.rate_bytes - self.ratecount
            self._shift(data[pos:end])
            pos = end
            self._end_block()

    def finish(self) -> None:
        """Absorb the pad block and transition to squeezing."""
        if self.phase != "absorbing":
            raise RuntimeError(f"cannot finish in phase {self.phase!r}")
        self._end_block()
        self.phase = "padding"
        self._shift(pad(self.mode.rate_bits, 8 * self.ratecount, self.mode.domain))
        self.absorb_zero_fill()
        self.run_permutation()
        self.phase = "squeezing"

    # ------------------------------------------------------------------
    # permutation

    def run_permutation(self) -> None:
        """Run the 24 rounds, committing every ``unroll`` rounds.

        Detection schedule: prime at entry, check at each group's first
        round against the last prime, re-prime at each commit that another
        group reads.  The shadows are invalidated on exit because the
        shift phases that follow change the state without theta taps to
        compare against.  If the hook raises, the engine is left as it was
        at entry, apart from the shadows, which are invalidated, and the
        sticky error flag, which keeps what the checks before it raised.
        """
        if self.ratecount != SHIFT_RATE_BYTES:
            raise RuntimeError("permutation requires a completed 168-byte turn")
        outer_phase, entry_cycles = self.phase, self.cycles
        self.phase = "permuting"
        a = np.frombuffer(bytes(self._state), "<u8").reshape(25, 1)
        fd, hook, unroll = self.fd, self.hook, self.unroll
        slots = NUM_ROUNDS // unroll
        lanes = None
        if fd is not None:
            lanes, c, f = fd.prime(a)
        try:
            for slot in range(slots):
                if hook is not None:
                    a.flags.writeable = False
                    given, a = a, hook(self, slot, a)
                    if fd is not None and a is not given:
                        lanes, c, f = fd.sums(a)
                if fd is not None:
                    fd.check(c, f)
                first = slot * unroll
                a = round_step(a, first, lanes)
                for r in range(first + 1, first + unroll):
                    a = round_step(a, r)
                self.cycles += 1
                if fd is not None and slot + 1 < slots:
                    lanes, c, f = fd.prime(a)
        except BaseException:
            # the register and ratecount are written only after the loop
            self.phase, self.cycles = outer_phase, entry_cycles
            raise
        finally:
            if fd is not None:
                fd.invalidate()
        self._state[:] = a.astype("<u8").tobytes()
        self.ratecount = 0
        self.permutation_index += 1
        self.phase = outer_phase

    # ------------------------------------------------------------------
    # squeeze path

    def squeeze_byte(self) -> int:
        """Emit one digest byte, refreshing the block first as ``squeeze`` does."""
        return self.squeeze(1)[0]

    def squeeze(self, n: int) -> bytes:
        """Emit ``n`` digest bytes, each zero if the output is masked."""
        if self.phase != "squeezing":
            raise RuntimeError(f"cannot squeeze in phase {self.phase!r}")
        if n < 0:
            raise ValueError(f"cannot squeeze {n} bytes")
        out = bytearray()
        rate = self.mode.rate_bytes
        while len(out) < n:
            if self.ratecount == rate:
                self._fill_turn()
                self.run_permutation()
            m = min(rate - self.ratecount, n - len(out))
            self.squeezed += self._state[:m]
            out += bytes(m) if self.masked else self._state[:m]
            self._shift(bytes(m))
        return bytes(out)

    def resolve_out_len(self, out_len: int | None) -> int:
        if self.mode.digest_bytes is not None:
            if out_len is not None and out_len != self.mode.digest_bytes:
                raise ValueError(
                    f"{self.mode.name} digest is fixed at {self.mode.digest_bytes} bytes")
            return self.mode.digest_bytes
        if out_len is None or out_len < 1:
            raise ValueError("extendable-output modes need a positive output length")
        return out_len


def hash_message(mode: str, message: bytes, out_len: int | None = None,
                 fd: str | None = None, unroll: int = 1) -> bytes:
    """One-shot digest; ``out_len`` (bytes) only for the SHAKE modes."""
    eng = Engine(mode, fd=fd, unroll=unroll)
    n = eng.resolve_out_len(out_len)
    eng.absorb(message)
    eng.finish()
    return eng.squeeze(n)


# ----------------------------------------------------------------------
# throughput model

# synthesis results for the three byte-serial designs: maximum clock and
# long-message throughput per mode, used as the reference the cycle model
# is checked against
DESIGN_FREQ_MHZ = {"none": 714.29, "c-plane": 666.67, "z-sheet": 588.24}

REFERENCE_THROUGHPUT_MBPS = {
    "none": {
        "shake128": 4998.90, "shake256": 4046.20, "sha3-224": 4284.32,
        "sha3-256": 4046.20, "sha3-384": 3094.00, "sha3-512": 2142.07,
    },
    "c-plane": {
        "shake128": 4665.61, "shake256": 3776.43, "sha3-224": 3998.67,
        "sha3-256": 3776.43, "sha3-384": 2887.72, "sha3-512": 1999.26,
    },
    "z-sheet": {
        "shake128": 4116.71, "shake256": 3332.14, "sha3-224": 3528.24,
        "sha3-256": 3332.14, "sha3-384": 2547.99, "sha3-512": 1764.05,
    },
}


def throughput_model(mode: str, freq_mhz: float, unroll: int = 1) -> float:
    """Steady-state long-message throughput in Mbit/s.

    Every block costs one full 168-cycle register turn plus 24/unroll
    permutation cycles and carries rate_bits of message, so the rate is
    rate_bits / (168 + 24/unroll) bits per cycle.
    """
    cfg = mode_params(mode)
    if not 0 < freq_mhz < math.inf:
        raise ValueError(f"frequency must be a positive finite number of MHz, got {freq_mhz}")
    if unroll not in UNROLL_FACTORS:
        raise ValueError(f"unroll must be one of {UNROLL_FACTORS}")
    cycles_per_block = SHIFT_RATE_BYTES + NUM_ROUNDS // unroll
    return cfg.rate_bits / cycles_per_block * freq_mhz
