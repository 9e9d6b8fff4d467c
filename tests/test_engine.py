"""Tests for the byte-serial sponge engine.

The engine's digests are compared against hashlib and against the
separately written block-sponge oracle; the shift-register mechanics are
probed directly through the state bytes.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oracle_fips202 as oracle
from crossparity.engine import (
    DESIGN_FREQ_MHZ,
    MODES,
    REFERENCE_THROUGHPUT_MBPS,
    SHIFT_RATE_BYTES,
    UNROLL_FACTORS,
    Engine,
    hash_message,
    mode_params,
    pad,
    select_pad_byte,
    throughput_model,
)
from crossparity.fd import SCHEMES, FdRegisters
from crossparity.keccak import StateArray, column_sums, lane_sums, round_step

MODE_NAMES = tuple(MODES)

HASHLIB_FIXED = {
    "sha3-224": hashlib.sha3_224,
    "sha3-256": hashlib.sha3_256,
    "sha3-384": hashlib.sha3_384,
    "sha3-512": hashlib.sha3_512,
}
HASHLIB_XOF = {"shake128": hashlib.shake_128, "shake256": hashlib.shake_256}


def reference_digest(mode, msg, out_len=None):
    if mode in HASHLIB_FIXED:
        return HASHLIB_FIXED[mode](msg).digest()
    return HASHLIB_XOF[mode](msg).digest(out_len)


# ----------------------------------------------------------------------
# mode table

def test_mode_table_shape():
    assert set(MODES) == {"sha3-224", "sha3-256", "sha3-384", "sha3-512",
                          "shake128", "shake256"}
    for cfg in MODES.values():
        assert cfg.rate_bits + cfg.capacity_bits == 1600
        assert cfg.rate_bits % 8 == 0
        assert cfg.rate_bytes <= SHIFT_RATE_BYTES


def test_sha3_capacity_is_twice_the_digest():
    for name, cfg in MODES.items():
        if cfg.domain == "sha3":
            assert cfg.capacity_bits == 2 * cfg.digest_bits
            assert cfg.digest_bytes == cfg.digest_bits // 8
        else:
            assert cfg.digest_bits is None


def test_mode_rates():
    rates = {name: cfg.rate_bits for name, cfg in MODES.items()}
    assert rates == {"sha3-224": 1152, "sha3-256": 1088, "sha3-384": 832,
                     "sha3-512": 576, "shake128": 1344, "shake256": 1088}


def test_mode_params_lookup():
    assert mode_params("SHA3-256") is MODES["sha3-256"]
    assert mode_params("shake128").rate_bytes == 168
    with pytest.raises(ValueError):
        mode_params("sha3-257")


# ----------------------------------------------------------------------
# padding

def test_pad_byte_selector():
    assert select_pad_byte(0, 5, "sha3") == 0x06
    assert select_pad_byte(0, 5, "shake") == 0x1F
    assert select_pad_byte(2, 5, "sha3") == 0x00
    assert select_pad_byte(4, 5, "sha3") == 0x80
    assert select_pad_byte(0, 1, "sha3") == 0x86
    assert select_pad_byte(0, 1, "shake") == 0x9F
    with pytest.raises(ValueError):
        select_pad_byte(5, 5, "sha3")
    with pytest.raises(ValueError):
        select_pad_byte(0, 1, "md5")


def test_pad_empty_message_fills_a_block():
    p = pad(1088, 0, "sha3")
    assert len(p) == 136
    assert p[0] == 0x06 and p[-1] == 0x80
    assert set(p[1:-1]) == {0x00}


def test_pad_single_byte_case():
    assert pad(1344, 1336, "shake") == b"\x9f"
    assert pad(1088, 1080, "sha3") == b"\x86"


def test_pad_full_block_message_appends_whole_block():
    p = pad(576, 576, "sha3")
    assert len(p) == 72
    assert p[0] == 0x06 and p[-1] == 0x80


def test_pad_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pad(1000, 0, "sha3")
    with pytest.raises(ValueError):
        pad(1088, 3, "sha3")


@given(st.sampled_from(sorted({m.rate_bits for m in MODES.values()})),
       st.integers(0, 400), st.sampled_from(["sha3", "shake"]))
def test_pad_matches_bitlevel_oracle(rate_bits, msg_bytes, domain):
    p = pad(rate_bits, 8 * msg_bytes, domain)
    suffix, n_suffix = (0b10, 2) if domain == "sha3" else (0b1111, 4)
    want = oracle.pad10x1_with_suffix(suffix, n_suffix, rate_bits // 8, msg_bytes)
    assert p == want
    assert 1 <= len(p) <= rate_bits // 8
    assert (msg_bytes + len(p)) % (rate_bits // 8) == 0


# ----------------------------------------------------------------------
# shift-register mechanics

def test_first_absorbed_byte_lands_at_the_far_end():
    eng = Engine("shake128")
    eng.absorb_byte(0xA5)
    assert eng.state_bytes[167] == 0xA5
    assert eng.state_bytes[:167] == bytes(167)
    assert eng.ratecount == 1 and eng.cycles == 1


def test_full_turn_places_message_bytes_in_order():
    msg = bytes(random.Random(5).randrange(256) for _ in range(168))
    eng = Engine("shake128")
    for b in msg:
        eng.absorb_byte(b)
    assert eng.state_bytes[:168] == msg
    assert eng.state_bytes[168:] == bytes(32)
    assert eng.ratecount == SHIFT_RATE_BYTES


def test_zero_fill_completes_the_turn_without_touching_capacity():
    msg = bytes(range(72))
    eng = Engine("sha3-512")
    for b in msg:
        eng.absorb_byte(b)
    eng.absorb_zero_fill()
    assert eng.state_bytes[:72] == msg
    assert eng.state_bytes[72:] == bytes(200 - 72)
    assert eng.cycles == 168  # 72 message bytes + 96 fill bytes


def test_rotation_closure_on_zero_state():
    eng = Engine("shake128")
    for _ in range(168):
        eng.absorb_byte(0)
    assert eng.state_bytes == bytes(200)


def test_second_block_xors_into_rotated_state():
    # Message bytes of a later block XOR into whatever the permutation
    # left at that offset, matching the block-sponge absorb rule.
    msg = bytes(random.Random(6).randrange(256) for _ in range(136 + 40))
    eng = Engine("sha3-256")
    eng.absorb(msg)
    a = oracle.state_from_bytes(bytes(200))
    block = msg[:136] + bytes(200 - 136)
    a = oracle.state_from_bytes(oracle.keccak_f1600(
        bytes(x ^ y for x, y in zip(oracle.state_to_bytes(a), block))))
    expect = bytearray(oracle.state_to_bytes(a))
    for i, b in enumerate(msg[136:]):
        expect[i] ^= b
    # The engine's partial block sits rotated inside the shift register:
    # after k shifts, absorbed byte j is at offset 168 - k + j.
    k = len(msg) - 136
    state = eng.state_bytes
    for j in range(k):
        assert state[168 - k + j] == expect[j]
    assert state[168:] == bytes(expect[168:])


# ----------------------------------------------------------------------
# the n-cycle shift against the per-cycle rule

def shift_one(state: bytearray, in_byte: int) -> None:
    """One cycle: byte 0 leaves, in_byte XOR old byte 0 enters at 167."""
    first = state[0]
    state[0:SHIFT_RATE_BYTES - 1] = state[1:SHIFT_RATE_BYTES]
    state[SHIFT_RATE_BYTES - 1] = in_byte ^ first


def registers(eng):
    return eng.state_bytes, eng.cycles, eng.ratecount, eng.permutation_index


def pieces(draw, total):
    """Random split points of range(total), as (start, end) pairs."""
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=6)))
    bounds = [0, *cuts, total]
    return list(zip(bounds, bounds[1:]))


@given(st.binary(min_size=200, max_size=200), st.binary(max_size=SHIFT_RATE_BYTES))
def test_n_cycle_shift_is_n_single_cycles(reg, data):
    eng = Engine("shake128")
    eng._state[:] = reg
    eng._shift(data)
    want = bytearray(reg)
    for b in data:
        shift_one(want, b)
    assert eng.state_bytes == bytes(want)
    assert eng.cycles == len(data) and eng.ratecount == len(data)


@given(st.sampled_from(MODE_NAMES), st.binary(max_size=400), st.data())
@settings(max_examples=40, deadline=None)
def test_absorb_in_pieces_matches_one_call_and_single_bytes(mode, msg, data):
    whole, parts, single = Engine(mode), Engine(mode), Engine(mode)
    whole.absorb(msg)
    rate = MODES[mode].rate_bytes
    for start, end in pieces(data.draw, len(msg)):
        parts.absorb(msg[start:end])
        for b in msg[start:end]:
            single.absorb_byte(b)
            if single.ratecount == rate:
                single.absorb_zero_fill()
                single.run_permutation()
        assert registers(parts) == registers(single)
    assert registers(parts) == registers(whole)


@given(st.sampled_from(["shake128", "shake256"]), st.integers(0, 400), st.data())
@settings(max_examples=30, deadline=None)
def test_squeeze_in_pieces_matches_single_bytes(mode, n, data):
    flag_at = data.draw(st.sampled_from([None, 0, 1, 2]))   # permutation that flips a bit

    def engine():
        eng = Engine(mode, fd="z-sheet")
        if flag_at is not None:
            def hook(e, slot, state):
                return state.with_flips([7]) if e.permutation_index == flag_at \
                    and slot == 0 else state
            eng.hook = hook
        eng.absorb(b"squeezed in pieces")
        eng.finish()
        return eng

    parts, single = engine(), engine()
    rate = MODES[mode].rate_bytes
    got, want = bytearray(), bytearray()
    for start, end in pieces(data.draw, n):
        got += parts.squeeze(end - start)
        for _ in range(start, end):
            if single.ratecount == rate:
                single._fill_turn()
                single.run_permutation()
            want.append(single.squeeze_byte())
        assert (got, parts.squeezed, parts.cycles) == (want, single.squeezed, single.cycles)
    # the flag rises in permutation flag_at, which runs before byte flag_at * rate
    clean = reference_digest(mode, b"squeezed in pieces", n)
    flag_byte = n if flag_at is None else min(n, flag_at * rate)
    assert got == clean[:flag_byte] + bytes(n - flag_byte)
    assert parts.masked == (flag_at == 0 or flag_byte < n)


# ----------------------------------------------------------------------
# digests match hashlib and the block-sponge oracle

BOUNDARY_LENGTHS = (0, 1, 71, 72, 73, 135, 136, 137, 143, 144, 145, 167, 168, 169, 300)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_digests_at_block_boundaries(mode):
    rng = random.Random(hash(mode) & 0xFFFF)
    out_len = None if MODES[mode].domain == "sha3" else 48
    for n in BOUNDARY_LENGTHS:
        msg = bytes(rng.randrange(256) for _ in range(n))
        got = hash_message(mode, msg, out_len=out_len)
        assert got == reference_digest(mode, msg, out_len), f"{mode} len={n}"
        assert got == oracle.oracle_digest(mode, msg, out_len)


@given(st.sampled_from(MODE_NAMES), st.binary(max_size=420))
@settings(max_examples=40, deadline=None)
def test_digests_random_messages(mode, msg):
    out_len = None if MODES[mode].domain == "sha3" else 32
    assert hash_message(mode, msg, out_len=out_len) == \
        reference_digest(mode, msg, out_len)


def test_xof_long_output_crosses_refresh():
    msg = b"squeeze past one rate block"
    for mode, rate in (("shake128", 168), ("shake256", 136)):
        want = reference_digest(mode, msg, 2 * rate + 19)
        assert hash_message(mode, msg, out_len=2 * rate + 19) == want


def test_xof_streaming_is_stateless_in_chunk_size():
    eng = Engine("shake128")
    eng.absorb(b"chunked reads")
    eng.finish()
    first = eng.squeeze(150)
    second = eng.squeeze(50)
    assert first + second == reference_digest("shake128", b"chunked reads", 200)


def test_refresh_happens_once_per_rate_block():
    eng = Engine("shake128")
    eng.absorb(b"")
    eng.finish()
    assert eng.permutation_index == 1
    eng.squeeze(168)
    assert eng.permutation_index == 1
    eng.squeeze(1)
    assert eng.permutation_index == 2


# ----------------------------------------------------------------------
# phases and contract violations

def test_phase_progression():
    eng = Engine("sha3-256")
    assert eng.phase == "absorbing"
    eng.absorb(b"abc")
    eng.finish()
    assert eng.phase == "squeezing"
    assert eng.squeeze(32) == hashlib.sha3_256(b"abc").digest()


def test_cannot_squeeze_before_finish():
    eng = Engine("sha3-256")
    with pytest.raises(RuntimeError):
        eng.squeeze(1)
    with pytest.raises(RuntimeError):
        eng.squeeze_byte()


def test_squeeze_rejects_a_negative_length():
    eng = Engine("shake128")
    eng.absorb(b"abc")
    eng.finish()
    with pytest.raises(ValueError, match="-3"):
        eng.squeeze(-3)
    assert eng.squeeze(0) == b""
    assert eng.squeeze(16) == hashlib.shake_128(b"abc").digest(16)


def test_cannot_absorb_after_finish():
    eng = Engine("sha3-256")
    eng.finish()
    with pytest.raises(RuntimeError):
        eng.absorb_byte(0)
    with pytest.raises(RuntimeError):
        eng.finish()


def test_absorb_byte_range_check():
    eng = Engine("sha3-256")
    with pytest.raises(ValueError):
        eng.absorb_byte(256)


@pytest.mark.parametrize("bad, error", [
    ([1, 2, 300], ValueError), ([1, -1], ValueError), ("abc", TypeError),
    ([1, "a"], TypeError), (5, TypeError), ([1.0], TypeError)])
def test_refused_absorb_leaves_the_registers_as_they_were(bad, error):
    eng = Engine("sha3-256")
    eng.absorb(bytes(135))
    eng.absorb_byte(1)              # a full mode block, not yet permuted
    before = registers(eng)
    with pytest.raises(error):
        eng.absorb(bad)
    assert registers(eng) == before
    eng.absorb([2, 3])
    eng.finish()
    assert eng.squeeze(32) == hashlib.sha3_256(bytes(135) + b"\x01\x02\x03").digest()


def test_zero_fill_requires_completed_block():
    eng = Engine("sha3-256")
    eng.absorb_byte(1)
    with pytest.raises(RuntimeError):
        eng.absorb_zero_fill()


def test_permutation_requires_completed_turn():
    eng = Engine("sha3-256")
    with pytest.raises(RuntimeError):
        eng.run_permutation()


def test_unroll_factor_validation():
    with pytest.raises(ValueError):
        Engine("sha3-256", unroll=3)
    with pytest.raises(ValueError):
        Engine("sha3-256", fd="diagonal")


def test_reset_clears_everything():
    eng = Engine("sha3-256", fd="z-sheet")
    eng.absorb(b"x" * 300)
    eng.reset()
    assert eng.state_bytes == bytes(200)
    assert eng.cycles == 0 and eng.ratecount == 0
    assert eng.phase == "absorbing" and not eng.masked
    eng.absorb(b"abc")
    eng.finish()
    assert eng.squeeze(32) == hashlib.sha3_256(b"abc").digest()


def test_resolve_out_len():
    eng = Engine("sha3-384")
    assert eng.resolve_out_len(None) == 48
    assert eng.resolve_out_len(48) == 48
    with pytest.raises(ValueError):
        eng.resolve_out_len(32)
    xof = Engine("shake256")
    assert xof.resolve_out_len(100) == 100
    with pytest.raises(ValueError):
        xof.resolve_out_len(None)
    with pytest.raises(ValueError):
        xof.resolve_out_len(0)


# ----------------------------------------------------------------------
# cycle accounting

def test_cycle_count_examples():
    # Empty sha3-512 message: 72 pad + 96 fill + 24 rounds.
    eng = Engine("sha3-512")
    eng.finish()
    assert eng.cycles == 192

    # A 272-byte sha3-256 message plus digest: three full turns
    # (two data blocks and the pad block) and 32 squeeze shifts.
    eng = Engine("sha3-256")
    eng.absorb(bytes(272))
    eng.finish()
    eng.squeeze(32)
    assert eng.cycles == 3 * (168 + 24) + 32 == 608


@pytest.mark.parametrize("unroll", UNROLL_FACTORS)
def test_cycles_scale_with_unroll(unroll):
    eng = Engine("sha3-256", unroll=unroll)
    eng.absorb(bytes(272))
    eng.finish()
    eng.squeeze(32)
    assert eng.cycles == 3 * (168 + 24 // unroll) + 32
    assert eng.permutation_index == 3


def test_unroll_does_not_change_digests():
    msg = bytes(random.Random(12).randrange(256) for _ in range(150))
    want = hashlib.sha3_384(msg).digest()
    for unroll in UNROLL_FACTORS:
        assert hash_message("sha3-384", msg, unroll=unroll) == want


def test_detection_attached_runs_clean():
    msg = b"attached shadows change nothing"
    for scheme in ("c-plane", "z-sheet"):
        eng = Engine("shake256", fd=scheme)
        eng.absorb(msg)
        eng.finish()
        assert eng.squeeze(64) == reference_digest("shake256", msg, 64)
        assert not eng.masked
        assert eng.fd.error is False


@pytest.mark.parametrize("scheme", ["c-plane", "z-sheet"])
def test_checks_read_the_sums_of_each_group_input(monkeypatch, scheme):
    # Every group's check compares the sums of the state entering its first
    # round; the lane sums are computed under z-sheet only.
    seen = []
    monkeypatch.setattr(FdRegisters, "check", lambda self, c, f: seen.append((c, f)))
    eng = Engine("sha3-256", fd=scheme, unroll=4)
    eng.finish()
    block = pad(1088, 0, "sha3")
    sa = StateArray.from_bytes(block + bytes(200 - len(block)))
    want = []
    for r in range(24):
        if r % 4 == 0:
            want.append((column_sums(sa), lane_sums(sa) if scheme == "z-sheet" else 0))
        sa = round_step(sa, r)
    assert seen == want
    assert eng.state_bytes == sa.to_bytes()


# ----------------------------------------------------------------------
# throughput model

def test_throughput_formula():
    # Long-message rate: r bits per (168 + 24/unroll) cycles.
    assert throughput_model("shake128", 192.0) == pytest.approx(1344.0)
    assert throughput_model("sha3-512", 192.0) == pytest.approx(576.0)
    assert throughput_model("shake128", 169.0, unroll=24) == pytest.approx(1344.0)
    for mode in MODE_NAMES:
        got = throughput_model(mode, 714.29)
        assert got == pytest.approx(MODES[mode].rate_bits / 192 * 714.29)


def test_throughput_monotone_in_unroll():
    prev = 0.0
    for unroll in UNROLL_FACTORS:
        cur = throughput_model("sha3-256", 600.0, unroll=unroll)
        assert cur > prev
        prev = cur


def test_throughput_rejects_unknowns():
    with pytest.raises(ValueError):
        throughput_model("md5", 100.0)
    with pytest.raises(ValueError):
        throughput_model("sha3-256", 100.0, unroll=5)


@pytest.mark.parametrize("freq", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_throughput_rejects_bad_frequencies(freq):
    with pytest.raises(ValueError, match="positive finite"):
        throughput_model("sha3-256", freq)


def test_throughput_matches_reference_designs():
    # Each protection level has a synthesised clock; the modeled numbers
    # must stay within 1% of the recorded design throughputs.
    assert set(DESIGN_FREQ_MHZ) == {"none", "c-plane", "z-sheet"}
    for scheme, freq in DESIGN_FREQ_MHZ.items():
        for mode, ref in REFERENCE_THROUGHPUT_MBPS[scheme].items():
            got = throughput_model(mode, freq)
            assert abs(got - ref) / ref < 0.01, (scheme, mode, got, ref)


# ----------------------------------------------------------------------
# the engine API in any order

class EngineCalls(RuleBasedStateMachine):
    """absorb/absorb_byte/finish/squeeze/squeeze_byte/reset in any order,
    with and without a checker.  A model of the message and output so far
    gives the digest bytes (hashlib), which calls must fail with
    RuntimeError, and the cycle count of the shift schedule: 168 cycles
    per register turn and 24/unroll per permutation."""

    @initialize(mode=st.sampled_from(MODE_NAMES), fd=st.sampled_from([None, *SCHEMES]),
                unroll=st.sampled_from(UNROLL_FACTORS))
    def start(self, mode, fd, unroll):
        self.eng = Engine(mode, fd=fd, unroll=unroll)
        self.rate = MODES[mode].rate_bytes
        self.perm_cycles = SHIFT_RATE_BYTES - self.rate + 24 // unroll
        self.clear()

    def clear(self):
        self.msg = bytearray()
        self.out = bytearray()
        self.squeezing = False
        self.pending = False    # a block absorb_byte filled, not yet permuted

    def expected(self, n):
        mode = self.eng.mode
        if mode.domain == "shake":
            return HASHLIB_XOF[mode.name](bytes(self.msg)).digest(len(self.out) + n)
        return HASHLIB_FIXED[mode.name](bytes(self.msg)).digest()

    def refused(self, call, *args):
        with pytest.raises(RuntimeError):
            call(*args)

    @rule(data=st.binary(max_size=400))
    def absorb(self, data):
        if self.squeezing:
            return self.refused(self.eng.absorb, data)
        self.eng.absorb(data)
        self.msg += data
        self.pending = False

    @rule(b=st.integers(0, 255), to_block_end=st.booleans())
    def absorb_byte(self, b, to_block_end):
        """One byte, or the same byte until the mode block is full."""
        if self.squeezing or self.pending:
            return self.refused(self.eng.absorb_byte, b)
        count = self.rate - len(self.msg) % self.rate if to_block_end else 1
        for _ in range(count):
            self.eng.absorb_byte(b)
        self.msg += bytes([b]) * count
        self.pending = len(self.msg) % self.rate == 0

    @rule()
    def finish(self):
        if self.squeezing:
            return self.refused(self.eng.finish)
        self.eng.finish()
        self.squeezing = True
        self.pending = False

    @rule(n=st.integers(0, 300))
    def squeeze(self, n):
        if not self.squeezing:
            return self.refused(self.eng.squeeze, n)
        digest = self.eng.mode.digest_bytes
        if digest is not None:
            n = min(n, digest - len(self.out))   # hashlib stops at the digest
        want = self.expected(n)[len(self.out):len(self.out) + n]
        assert self.eng.squeeze(n) == want
        self.out += want

    @rule()
    def squeeze_byte(self):
        if not self.squeezing or (self.out and len(self.out) % self.rate == 0):
            return self.refused(self.eng.squeeze_byte)
        if len(self.out) == self.eng.mode.digest_bytes:
            return
        want = self.expected(1)[len(self.out)]
        assert self.eng.squeeze_byte() == want
        self.out.append(want)

    @rule()
    def reset(self):
        self.eng.reset()
        self.clear()

    @invariant()
    def registers_follow_the_schedule(self):
        if not hasattr(self, "eng"):
            return
        eng = self.eng
        blocks = len(self.msg) // self.rate - self.pending
        if self.squeezing:
            blocks += 1                                  # the pad block
            refreshes = max(0, len(self.out) - 1) // self.rate
            cycles = blocks * (SHIFT_RATE_BYTES + 24 // eng.unroll) + len(self.out) \
                + refreshes * self.perm_cycles
            assert eng.phase == "squeezing"
        else:
            refreshes = 0
            cycles = len(self.msg) + blocks * self.perm_cycles
            assert eng.phase == "absorbing"
        assert eng.cycles == cycles
        assert eng.permutation_index == blocks + refreshes
        assert not eng.masked
        assert bytes(eng.squeezed) == bytes(self.out)


EngineCalls.TestCase.settings = settings(max_examples=100, stateful_step_count=20,
                                         derandomize=True, deadline=None)
test_engine_calls_in_any_order = EngineCalls.TestCase
