"""DES block cipher tests: FIPS vectors, involution, key sensitivity."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.des import BLOCK_SIZE, DES


class TestKnownVectors:
    def test_classic_vector(self):
        # The canonical worked example (Stallings / FIPS test).
        cipher = DES(bytes.fromhex("133457799BBCDFF1"))
        ciphertext = cipher.encrypt_block(bytes.fromhex("0123456789ABCDEF"))
        assert ciphertext == bytes.fromhex("85E813540F0AB405")

    def test_weak_key_vector(self):
        cipher = DES(bytes.fromhex("0E329232EA6D0D73"))
        ciphertext = cipher.encrypt_block(bytes.fromhex("8787878787878787"))
        assert ciphertext == bytes.fromhex("0000000000000000")

    def test_all_zero_key_and_block(self):
        cipher = DES(bytes(8))
        assert cipher.encrypt_block(bytes(8)) == bytes.fromhex("8CA64DE9C1B123A7")

    def test_all_ones(self):
        cipher = DES(b"\xff" * 8)
        assert cipher.encrypt_block(b"\xff" * 8) == bytes.fromhex("7359B2163E4EDC58")


class TestRoundTrip:
    def test_decrypt_inverts_encrypt(self):
        cipher = DES(b"\x01\x23\x45\x67\x89\xab\xcd\xef")
        block = b"datagram"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_many_blocks_roundtrip(self):
        cipher = DES(b"8bytekey")
        for i in range(64):
            block = bytes([(i * 17 + j) & 0xFF for j in range(8)])
            assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_parity_bits_ignored(self):
        # Keys differing only in parity (LSB of each byte) are equivalent.
        key_a = bytes.fromhex("133457799BBCDFF1")
        key_b = bytes(b & 0xFE for b in key_a)
        block = b"\x00" * 8
        assert DES(key_a).encrypt_block(block) == DES(key_b).encrypt_block(block)


class TestSensitivity:
    def test_different_keys_differ(self):
        block = b"\x00" * 8
        a = DES(b"\x02" + b"\x00" * 7).encrypt_block(block)
        b = DES(b"\x04" + b"\x00" * 7).encrypt_block(block)
        assert a != b

    def test_avalanche_in_plaintext(self):
        cipher = DES(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1")
        a = cipher.encrypt_block(bytes(8))
        b = cipher.encrypt_block(b"\x80" + bytes(7))
        # A single flipped input bit should change many output bits.
        diff = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert diff > 16


class TestValidation:
    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            DES(b"short")

    def test_rejects_long_key(self):
        with pytest.raises(ValueError):
            DES(b"ninebytes")

    def test_rejects_wrong_block_size(self):
        cipher = DES(bytes(8))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"tiny")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"way too long!")

    def test_block_size_constant(self):
        assert BLOCK_SIZE == 8


class TestReferenceImplementation:
    """The retained FIPS 46 spec implementation (``des.reference``)."""

    def test_importable_from_fast_module(self):
        from repro.crypto import des

        assert des.reference.DES is not DES
        assert des.reference.BLOCK_SIZE == BLOCK_SIZE

    def test_reference_passes_fips_vectors(self):
        from repro.crypto.des_reference import DES as RefDES

        cases = [
            ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
            ("0E329232EA6D0D73", "8787878787878787", "0000000000000000"),
            ("0000000000000000", "0000000000000000", "8CA64DE9C1B123A7"),
            ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "7359B2163E4EDC58"),
        ]
        for key, plaintext, ciphertext in cases:
            cipher = RefDES(bytes.fromhex(key))
            assert cipher.encrypt_block(bytes.fromhex(plaintext)) == bytes.fromhex(
                ciphertext
            )
            assert cipher.decrypt_block(bytes.fromhex(ciphertext)) == bytes.fromhex(
                plaintext
            )

    # The four weak keys and one semi-weak key (FIPS 74): schedules that
    # repeat or mirror, where a mis-packed round key is likeliest to hide.
    @example(key=bytes.fromhex("0101010101010101"), block=bytes(8))
    @example(key=bytes.fromhex("FEFEFEFEFEFEFEFE"), block=b"\xff" * 8)
    @example(key=bytes.fromhex("E0E0E0E0F1F1F1F1"), block=b"datagram")
    @example(key=bytes.fromhex("1F1F1F1F0E0E0E0E"), block=b"\x80" + bytes(7))
    @example(key=bytes.fromhex("01FE01FE01FE01FE"), block=bytes(7) + b"\x01")
    @given(key=st.binary(min_size=8, max_size=8), block=st.binary(min_size=8, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_fast_kernel_matches_reference_randomized(self, key, block):
        # The differential oracle: ``_crypt`` over the packed schedule ==
        # the per-bit spec walk, both directions.
        from repro.crypto.des import _crypt
        from repro.crypto.des_reference import DES as RefDES

        fast, ref = DES(key), RefDES(key)
        value = int.from_bytes(block, "big")
        assert _crypt(value, fast.subkeys).to_bytes(8, "big") == ref.encrypt_block(block)
        assert _crypt(value, fast.subkeys_rev).to_bytes(8, "big") == ref.decrypt_block(block)


class TestPairedTables:
    """The four paired SP tables, entry by entry against ``_SP``."""

    PAIRS = {"_SP13": (1, 3), "_SP57": (5, 7), "_SP02": (0, 2), "_SP46": (4, 6)}

    def test_sp_boxes_are_the_reference_round_function_rotated(self):
        from repro.crypto.des import _SP
        from repro.crypto.des_reference import DES as RefDES

        for box in range(8):
            for chunk in range(64):
                # A zero half expands to zero, so the subkey is the S-box
                # input: ``chunk`` into this box, zero into the other seven.
                f = RefDES._feistel(0, chunk << (42 - 6 * box))
                expected = 0
                for other in range(8):
                    expected |= _SP[other][chunk if other == box else 0]
                assert expected == ((f << 1) | (f >> 31)) & 0xFFFFFFFF, (box, chunk)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_every_live_entry_is_the_or_of_its_two_boxes(self, name):
        from repro.crypto import des

        table = getattr(des, name)
        box_a, box_b = self.PAIRS[name]
        for i in range(64):
            for j in range(64):
                assert table[i << 8 | j] == des._SP[box_a][i] | des._SP[box_b][j]

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_the_mask_reaches_live_slots_only(self, name):
        from repro.crypto import des

        table = getattr(des, name)
        live = {i << 8 | j for i in range(64) for j in range(64)}
        assert {index & 0x3F3F for index in range(1 << 16)} == live
        assert len(table) == max(live) + 1


class TestScheduleCounter:
    def test_schedule_built_once_per_instance(self):
        before = DES.schedule_builds
        cipher = DES(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1")
        assert DES.schedule_builds == before + 1
        # Using the cipher -- either direction -- builds nothing further.
        for _ in range(10):
            cipher.encrypt_block(bytes(8))
            cipher.decrypt_block(bytes(8))
        assert DES.schedule_builds == before + 1
