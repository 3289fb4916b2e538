"""Identity derivation and digest signing."""

from __future__ import annotations

import base64
import ctypes
import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmesh import identity as identity_module
from agentmesh.identity import (
    AGENT_PREFIX,
    WALLET_PREFIX,
    BadDigestLength,
    EmptySeed,
    MalformedAddress,
    Signature,
    decode_address,
    derive_identity,
    signed_by,
    verify_digest,
)

# Golden addresses computed by an independent script over the documented
# derivation (SHA-256 of the phrase; wallet key adds the "::wallet" suffix).
DEMO_PHRASE = "a_very_secret_seed_phrase"
DEMO_ADDRESS = "agent1i7ibm23l2qvq6oxnyqxtavlagnmatmxth2bxer5wl5misewgu6fq"
DEMO_WALLET = "wallet1md2j5iz2t5hvstmo2ucb5zt4byv7q6xvzoxoy4sk63utvcm3tcsq"


# libsodium's list of small-order encodings (y of the points of order 1, 2,
# 4 and 8, and of their non-canonical forms y + p), little-endian
SMALL_ORDER_KEYS = [
    "00" * 32,
    "01" + "00" * 31,
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "ec" + "ff" * 30 + "7f",  # p - 1
    "ed" + "ff" * 30 + "7f",  # p
    "ee" + "ff" * 30 + "7f",  # p + 1
]
# the other non-canonical encodings (y >= p), which libsodium refuses too
NON_CANONICAL_KEYS = ["ef" + "ff" * 30 + "7f", "ff" * 31 + "7f"]


def digest_of(text: bytes) -> bytes:
    return hashlib.sha256(text).digest()


class TestDerivation:
    def test_demo_phrase_address_golden(self):
        identity = derive_identity(DEMO_PHRASE)
        assert identity.address == DEMO_ADDRESS

    def test_demo_phrase_wallet_golden(self):
        identity = derive_identity(DEMO_PHRASE)
        assert identity.wallet_address == DEMO_WALLET

    def test_deterministic(self):
        a = derive_identity("some phrase")
        b = derive_identity("some phrase")
        assert a.address == b.address
        assert a.wallet_address == b.wallet_address

    def test_distinct_phrases_distinct_addresses(self):
        assert derive_identity("phrase one").address != derive_identity("phrase two").address

    def test_empty_seed_rejected(self):
        with pytest.raises(EmptySeed):
            derive_identity("")

    def test_address_shape(self):
        identity = derive_identity("shape check")
        assert identity.address.startswith(AGENT_PREFIX)
        assert identity.wallet_address.startswith(WALLET_PREFIX)
        assert len(identity.address) == len(AGENT_PREFIX) + 52
        assert identity.address == identity.address.lower()

    def test_agent_and_wallet_keys_differ(self):
        identity = derive_identity("two keys")
        assert decode_address(identity.address) != decode_address(identity.wallet_address)

    def test_decode_roundtrip(self):
        identity = derive_identity("roundtrip")
        assert decode_address(identity.address) == identity.verify_key


class TestSigning:
    def test_sign_verify_roundtrip(self):
        identity = derive_identity("signer")
        digest = digest_of(b"message body")
        sig = identity.sign_digest(digest)
        assert verify_digest(identity.address, digest, sig)

    def test_signature_is_deterministic(self):
        identity = derive_identity("signer")
        digest = digest_of(b"same input")
        assert identity.sign_digest(digest).data == identity.sign_digest(digest).data

    def test_wrong_key_fails(self):
        signer = derive_identity("signer")
        other = derive_identity("other")
        digest = digest_of(b"payload")
        sig = signer.sign_digest(digest)
        assert not verify_digest(other.address, digest, sig)

    def test_wrong_digest_fails(self):
        identity = derive_identity("signer")
        sig = identity.sign_digest(digest_of(b"one"))
        assert not verify_digest(identity.address, digest_of(b"two"), sig)

    def test_wallet_key_signs_for_wallet_address(self):
        identity = derive_identity("wallet signer")
        digest = digest_of(b"spend")
        sig = identity.sign_digest_with_wallet(digest)
        assert verify_digest(identity.wallet_address, digest, sig)
        assert not verify_digest(identity.address, digest, sig)

    def test_bad_digest_length(self):
        identity = derive_identity("short")
        with pytest.raises(BadDigestLength):
            identity.sign_digest(b"too short")
        with pytest.raises(BadDigestLength):
            verify_digest(identity.address, b"too short", Signature(b"\x00" * 64))

    def test_malformed_address(self):
        digest = digest_of(b"x")
        with pytest.raises(MalformedAddress):
            verify_digest("bogus1aaaa", digest, Signature(b"\x00" * 64))
        with pytest.raises(MalformedAddress):
            verify_digest("agent1notbase32!!" + "a" * 36, digest, Signature(b"\x00" * 64))
        with pytest.raises(MalformedAddress):
            verify_digest("agent1short", digest, Signature(b"\x00" * 64))

    def test_signed_by_is_false_where_verify_digest_raises(self):
        identity = derive_identity("signer")
        digest = digest_of(b"x")
        sig = identity.sign_digest(digest)
        assert signed_by(identity.address, digest, sig)
        assert not signed_by(identity.address, digest_of(b"y"), sig)
        for address, text in ((identity.address, b"short"), ("agent1short", digest)):
            with pytest.raises((BadDigestLength, MalformedAddress)):
                verify_digest(address, text, sig)
            assert not signed_by(address, text, sig)

    def test_garbage_signature_returns_false(self):
        identity = derive_identity("garbage sig")
        digest = digest_of(b"x")
        assert not verify_digest(identity.address, digest, b"\x00" * 64)

    def test_signature_length_enforced(self):
        with pytest.raises(BadDigestLength):
            Signature(b"\x01" * 63)

    def test_bytes_like_digest_and_signature(self):
        identity = derive_identity("bytes-like")
        digest = digest_of(b"x")
        sig = identity.sign_digest(bytearray(digest))
        assert sig.data == identity.sign_digest(digest).data
        assert verify_digest(identity.address, memoryview(digest), bytearray(sig.data))
        assert not verify_digest(identity.address, bytearray(digest_of(b"y")), memoryview(sig.data))

    def test_identity_key_signs_nothing(self):
        """The identity point is a small-order key: R = identity, S = 0
        satisfies the verify equation for every digest."""
        address = AGENT_PREFIX + "ae" + "a" * 50
        assert decode_address(address) == b"\x01" + bytes(31)
        for text in (b"", b"pay 100 FET", b"any digest"):
            assert not verify_digest(address, digest_of(text), b"\x01" + bytes(63))

    @pytest.mark.parametrize("encoding", SMALL_ORDER_KEYS + NON_CANONICAL_KEYS)
    def test_small_order_and_non_canonical_keys_are_refused(self, encoding):
        key = bytes.fromhex(encoding)
        for raw in (key, key[:31] + bytes([key[31] ^ 0x80])):  # either x sign
            address = identity_module._encode_key(AGENT_PREFIX, raw)
            assert identity_module._public_key(address) is None
            assert not verify_digest(address, digest_of(b"x"), raw + bytes(32))


class TestKeyCache:
    """verify_digest takes a verify key from the live identity that owns the
    address, or decodes it, and keeps none."""

    def test_cached_key_does_not_verify_another_signer(self):
        alice, bob = derive_identity("cache alice"), derive_identity("cache bob")
        digest = digest_of(b"cached")
        sig = alice.sign_digest(digest)
        assert verify_digest(alice.address, digest, sig)
        assert verify_digest(bob.address, digest, bob.sign_digest(digest))
        # both keys are cached now; neither answers for the other's signature
        assert not verify_digest(bob.address, digest, sig)
        assert verify_digest(alice.address, digest, sig)

    def test_malformed_address_raises_on_every_call(self):
        digest = digest_of(b"x")
        for _ in range(3):
            with pytest.raises(MalformedAddress):
                verify_digest("agent1short", digest, Signature(b"\x00" * 64))
            # the address is checked before the digest length
            with pytest.raises(MalformedAddress):
                verify_digest("bogus1aaaa", b"short", Signature(b"\x00" * 64))

    def test_bad_digest_length_after_key_is_cached(self):
        identity = derive_identity("cached then short")
        digest = digest_of(b"x")
        assert verify_digest(identity.address, digest, identity.sign_digest(digest))
        with pytest.raises(BadDigestLength):
            verify_digest(identity.address, b"short", Signature(b"\x00" * 64))

    def test_a_strangers_address_leaves_nothing_behind(self):
        """Checks from 5,000 addresses no live identity holds leave traced
        memory where it was: a process does not grow with whom it meets."""
        digest = digest_of(b"from a stranger")
        strangers = [identity_module._encode_key(AGENT_PREFIX, digest_of(b"stranger %d" % i))
                     for i in range(5000)]
        assert not verify_digest(strangers[0], digest, bytes(64))  # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for address in strangers:
                assert not verify_digest(address, digest, bytes(64))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 64 * 1024, f"5,000 strangers left {grown} bytes behind"

    def test_a_check_reads_the_same_once_its_identity_is_dropped(self):
        digest, tampered = digest_of(b"alive or dropped"), digest_of(b"tampered")
        other = derive_identity("alive or dropped, other signer")

        def verdicts(address, signature):
            return (verify_digest(address, digest, signature),
                    verify_digest(address, tampered, signature),
                    verify_digest(address, digest, other.sign_digest(digest)))

        signer = derive_identity("alive or dropped")
        address, signature = signer.address, signer.sign_digest(digest)
        assert identity_module._live.get(address) is signer
        alive = verdicts(address, signature)
        del signer
        assert address not in identity_module._live
        assert verdicts(address, signature) == alive == (True, False, False)


BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


def spellings(body: str, index: int, pad: int) -> list[str]:
    """Other texts for the key behind a canonical address body: upper case,
    in full or one letter, a last character with non-zero pad bits
    (1..15), and the padding base32 would add."""
    upper_one = body[:index] + body[index].upper() + body[index + 1:]
    last = BASE32[BASE32.index(body[-1]) ^ pad]
    return [body.upper(), upper_one, body[:-1] + last, body + "====", body[:-1]]


class TestAddressText:
    """An address is the one canonical text of its key."""

    def test_one_key_answers_to_one_address(self):
        """Upper case and a flipped pad bit once decoded to the signer's key,
        so the other spellings verified its signatures."""
        signer = derive_identity("one spelling")
        digest = digest_of(b"x")
        sig = signer.sign_digest(digest)
        body = signer.address[len(AGENT_PREFIX):]
        flipped = body[:-1] + BASE32[BASE32.index(body[-1]) ^ 1]
        for other in (AGENT_PREFIX + body.upper(), AGENT_PREFIX + flipped):
            with pytest.raises(MalformedAddress):
                decode_address(other)
            assert not signed_by(other, digest, sig)
        assert verify_digest(signer.address, digest, sig)

    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(min_size=32, max_size=32),
        st.sampled_from([AGENT_PREFIX, WALLET_PREFIX]),
        st.integers(0, 51),
        st.integers(1, 15),
    )
    def test_the_codec_is_base32_and_refuses_every_other_spelling(self, raw, prefix, index, pad):
        address = identity_module._encode_key(prefix, raw)
        assert address == prefix + base64.b32encode(raw).decode("ascii").rstrip("=").lower()
        assert decode_address(address) == raw
        body = address[len(prefix):]
        for other in spellings(body, index, pad):
            if other == body:  # upper-casing a digit changes nothing
                continue
            with pytest.raises(MalformedAddress):
                decode_address(prefix + other)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1))
def test_an_address_decodes_to_its_identitys_verify_key(phrase):
    """So a check may take the key from the live identity instead of
    decoding its address, and read the same."""
    identity = derive_identity(phrase)
    assert decode_address(identity.address) == identity.verify_key


# ---------------------------------------------------------------------------
# the two Ed25519 backends: libsodium through ctypes, and `cryptography`

SODIUM = identity_module._load_backend()
CRYPTOGRAPHY = identity_module._Cryptography()
needs_sodium = pytest.mark.skipif(
    not isinstance(SODIUM, identity_module._Sodium), reason="libsodium did not load"
)

# RFC 8032 section 7.1, TEST 1
RFC_SECRET = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def _verdict(backend, raw_key: bytes, message: bytes, signature: bytes) -> bool:
    key = backend.public(raw_key)
    return key is not None and backend.verify(key, message, signature)


@pytest.mark.parametrize(
    "backend", [pytest.param(SODIUM, marks=needs_sodium, id="sodium"),
                pytest.param(CRYPTOGRAPHY, id="cryptography")]
)
def test_rfc8032_test_1(backend):
    public, secret = backend.keypair(RFC_SECRET)
    assert public == RFC_PUBLIC
    assert backend.sign(secret, b"") == RFC_SIGNATURE
    assert _verdict(backend, RFC_PUBLIC, b"", RFC_SIGNATURE)
    assert not _verdict(backend, RFC_PUBLIC, b"\x00", RFC_SIGNATURE)


@needs_sodium
def test_a_backend_swap_leaves_every_check_standing(monkeypatch):
    """A check makes its key handle for the backend in use, so a check on
    libsodium leaves nothing behind that one on `cryptography` trips on.
    Signing stays with the backend the identity was derived with."""
    monkeypatch.setattr(identity_module, "_backend", SODIUM)
    signer = derive_identity("backend swap")
    digest = digest_of(b"swapped")
    signature = signer.sign_digest(digest)
    assert verify_digest(signer.address, digest, signature)
    monkeypatch.setattr(identity_module, "_backend", identity_module._Cryptography())
    assert verify_digest(signer.address, digest, signature)
    assert not verify_digest(signer.address, digest_of(b"tampered"), signature)


@needs_sodium
@given(
    seed=st.binary(min_size=32, max_size=32),
    digest=st.binary(min_size=32, max_size=32),
    part=st.sampled_from(["signature", "key", "digest"]),
    position=st.integers(0, 63),
    flip=st.integers(1, 255),
)
@settings(max_examples=200, deadline=None)
def test_backends_agree(seed, digest, part, position, flip):
    (public, secret), (public_c, secret_c) = SODIUM.keypair(seed), CRYPTOGRAPHY.keypair(seed)
    assert public == public_c
    signature = SODIUM.sign(secret, digest)
    assert signature == CRYPTOGRAPHY.sign(secret_c, digest)
    inputs = {"key": public, "digest": digest, "signature": signature}
    assert _verdict(SODIUM, public, digest, signature)
    assert _verdict(CRYPTOGRAPHY, public, digest, signature)
    tampered = bytearray(inputs[part])
    tampered[position % len(tampered)] ^= flip
    inputs[part] = bytes(tampered)
    verdicts = {_verdict(backend, inputs["key"], inputs["digest"], inputs["signature"])
                for backend in (SODIUM, CRYPTOGRAPHY)}
    assert verdicts == {False}


def test_backend_falls_back_when_libsodium_will_not_load(monkeypatch):
    def no_library(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert isinstance(identity_module._load_backend(), identity_module._Cryptography)


@needs_sodium
def test_a_process_on_libsodium_never_imports_cryptography():
    src = str(Path(identity_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, agentmesh, agentmesh.cli\n"
        "assert isinstance(agentmesh.identity._backend, agentmesh.identity._Sodium)\n"
        "print(sorted(name for name in sys.modules if name.startswith('cryptography')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.usefixtures("cryptography_backend")
class TestDerivationOnCryptography(TestDerivation):
    pass


@pytest.mark.usefixtures("cryptography_backend")
class TestSigningOnCryptography(TestSigning):
    pass


@pytest.mark.usefixtures("cryptography_backend")
class TestKeyCacheOnCryptography(TestKeyCache):
    pass


class TestJobs:
    """Claim-once jobs and the verify pool that runs them ahead."""

    def test_each_job_runs_once_however_many_threads_take_it(self, monkeypatch):
        """With 0, 1 and 4 pool threads; the caller, which helps the pool
        while it waits on a claim, makes a share of the calls too."""
        counts, lock = {}, threading.Lock()

        def keypair(seed):
            time.sleep(0.0002)  # so that every thread takes a share
            with lock:
                counts[seed] = counts.get(seed, 0) + 1
            return identity_module._backend.keypair(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (0, 1, 4):
                pool = identity_module.VerifyPool(workers)
                monkeypatch.setattr(identity_module, "_pool", pool)
                try:
                    for round_ in range(50):
                        seeds = [hashlib.sha256(b"%d %d" % (round_, i)).digest() for i in range(40)]
                        jobs = [identity_module.Job(keypair, seed) for seed in seeds]
                        for job in jobs * 2:
                            pool.submit(job)
                        pairs = [job.result() for job in jobs]
                        assert [public for public, _ in pairs] == [
                            identity_module._backend.keypair(seed)[0] for seed in seeds
                        ]
                        assert counts == dict.fromkeys(seeds, 1), workers
                        counts.clear()
                finally:
                    pool.close()
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def hold(held, let_go):
        """A call that keeps its thread: it sets held, then waits for let_go."""
        held.set()
        return let_go.wait(timeout=30)

    @staticmethod
    def ask_on_a_thread(job):
        """[job.result()], asked on a thread named "caller"."""
        results = []
        thread = threading.Thread(target=lambda: results.append(job.result()), name="caller")
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return results

    def test_a_caller_runs_the_next_queued_job_while_a_pool_thread_holds_its_own(
        self, monkeypatch
    ):
        pool = identity_module.VerifyPool(1)
        monkeypatch.setattr(identity_module, "_pool", pool)
        ran = []  # (job, thread name)
        claimed, let_go = threading.Event(), threading.Event()

        def held():
            ran.append(("held", threading.current_thread().name))
            claimed.set()
            let_go.wait(timeout=30)  # only the queued job lets go
            return "held result"

        def queued():
            ran.append(("queued", threading.current_thread().name))
            let_go.set()
            return "queued result"

        held_job, queued_job = identity_module.Job(held), identity_module.Job(queued)
        try:
            pool.submit(held_job)
            assert claimed.wait(timeout=30)
            pool.submit(queued_job)  # the pool thread is busy, so this one stays queued
            assert self.ask_on_a_thread(held_job) == ["held result"]
        finally:
            pool.close()
        assert ran == [("held", "agentmesh-verify"), ("queued", "caller")]
        assert queued_job.result() == "queued result"

    def test_close_still_ends_every_pool_thread_after_a_caller_has_helped(self, monkeypatch):
        before = set(threading.enumerate())
        pool = identity_module.VerifyPool(2)
        monkeypatch.setattr(identity_module, "_pool", pool)
        threads = [t for t in threading.enumerate() if t not in before]
        assert [t.name for t in threads] == ["agentmesh-verify"] * 2
        let_go, holding = threading.Event(), [threading.Event(), threading.Event()]
        held = [identity_module.Job(self.hold, event, let_go) for event in holding]
        for job in held:
            pool.submit(job)
        assert all(event.wait(timeout=30) for event in holding)
        ran, taken = [], []
        pool.submit(identity_module.Job(lambda: ran.append(threading.current_thread().name)))
        pool.close()  # both end markers queue behind that job
        take = pool._take

        def watched_take():
            job = take()
            taken.append(job)
            if job is None:
                let_go.set()  # the caller has taken an end marker and put it back
            return job

        monkeypatch.setattr(pool, "_take", watched_take)
        assert self.ask_on_a_thread(held[0]) == [True]
        assert ran == ["caller"]
        assert taken[-1] is None
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_a_helped_job_that_waits_on_a_held_claim_blocks_instead_of_helping_again(
        self, monkeypatch
    ):
        pool = identity_module.VerifyPool(2)
        monkeypatch.setattr(identity_module, "_pool", pool)
        let_first, let_second = threading.Event(), threading.Event()
        first_held, second_held = threading.Event(), threading.Event()
        ran, blocked_by = [], []  # (step, thread name); who blocked on second's claim

        class WatchedClaim:
            """second's claim, which lets second go once a thread blocks on it."""

            def __init__(self):
                self.lock = threading.Lock()

            def acquire(self, blocking=True):
                if blocking:
                    blocked_by.append(threading.current_thread().name)
                    let_second.set()
                return self.lock.acquire(blocking)

            def release(self):
                self.lock.release()

        def step(name):
            ran.append((name, threading.current_thread().name))

        def helped():
            step("helped starts")
            second.result()
            step("helped ends")

        def last():
            step("last")
            let_first.set()

        first = identity_module.Job(self.hold, first_held, let_first)
        second = identity_module.Job(self.hold, second_held, let_second)
        second._claim = WatchedClaim()
        try:
            pool.submit(first)
            pool.submit(second)
            assert first_held.wait(timeout=30) and second_held.wait(timeout=30)
            pool.submit(identity_module.Job(helped))
            pool.submit(identity_module.Job(last))
            assert self.ask_on_a_thread(first) == [True]
        finally:
            pool.close()
        assert blocked_by == ["caller"]
        on_caller = [name for name, thread in ran if thread == "caller"]
        assert on_caller[:2] == ["helped starts", "helped ends"]

    def test_a_raise_on_a_pool_thread_lets_go_of_the_claim_and_the_caller_raises(self):
        claimed = threading.Event()
        threads = []

        def broken():
            threads.append(threading.current_thread().name)
            if threading.current_thread().name == "agentmesh-verify":
                claimed.set()
                time.sleep(0.05)  # the caller asks while this thread holds the claim
            raise RuntimeError("job broke")

        job = identity_module.Job(broken)
        pool = identity_module.VerifyPool(1)
        raised = []

        def ask():
            try:
                job.result()
            except RuntimeError as exc:
                raised.append(exc)

        try:
            pool.submit(job)
            assert claimed.wait(timeout=30)
            thread = threading.Thread(target=ask, name="caller")
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            pool.close()
        assert [str(exc) for exc in raised] == ["job broke"]
        assert threads == ["agentmesh-verify", "caller"]

    def test_a_batch_goes_to_the_pool_last_first(self, monkeypatch):
        """Each job goes to the pool as it is taken, from the first, a batch
        of one too; once all are taken, the caller runs the rest from the
        last. Where the backend holds the GIL, nothing is handed over."""
        submitted, ran, seen = [], [], []
        monkeypatch.setattr(identity_module, "verifies_overlap", lambda: True)
        pool = types.SimpleNamespace(submit=lambda job: submitted.append(job) or True)
        monkeypatch.setattr(identity_module, "_pool", pool)

        def batch(size):
            return [identity_module.Job(lambda i: ran.append(i) or i, i) for i in range(size)]

        def taken(jobs):
            for job in jobs:
                seen.append(len(submitted))  # jobs handed over before this one is taken
                yield job

        jobs = batch(11)
        identity_module.work_ahead(taken(jobs))
        assert submitted == jobs
        assert seen == list(range(11))
        assert ran == list(range(11))[::-1]
        for size in (1, 2):
            submitted.clear()
            ran.clear()
            jobs = batch(size)
            identity_module.work_ahead(iter(jobs))
            assert submitted == jobs and ran == list(range(size))[::-1]
        submitted.clear()
        ran.clear()
        jobs = batch(3)
        monkeypatch.setattr(identity_module, "verifies_overlap", lambda: False)
        identity_module.work_ahead(iter(jobs))  # the backend holds the GIL
        assert submitted == [] and ran == []
        assert [job.result() for job in jobs] == [0, 1, 2]
        assert ran == [0, 1, 2]
        monkeypatch.setattr(identity_module, "verifies_overlap", lambda: True)
        monkeypatch.setattr(identity_module, "_pool", identity_module.VerifyPool(0))
        assert not identity_module.hand_ahead(batch(1)[0])  # no pool thread may run it

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_derive_identities_derives_what_derive_identity_does(self, monkeypatch, workers):
        monkeypatch.setattr(identity_module, "_pool", identity_module.VerifyPool(workers))
        phrases = [f"batch phrase {i}" for i in range(20)]
        try:
            assert identity_module.derive_identities(phrases) == [
                derive_identity(phrase) for phrase in phrases
            ]
            with pytest.raises(EmptySeed):
                identity_module.derive_identities(phrases + [""])
        finally:
            identity_module._pool.close()
