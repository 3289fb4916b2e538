"""Deterministic agent identities and digest signing.

An identity is derived from a seed phrase alone: the phrase is hashed to an
Ed25519 signing key for the agent address, and hashed again with a wallet
suffix for a second, independent wallet key. The same phrase always produces
the same keys, addresses, and signatures.

Address text format (see docs/wire.md):

    agent1<base32>   - 52 chars of lowercase unpadded base32 of the verify key
    wallet1<base32>  - same encoding over the wallet verify key

Ed25519 runs on libsodium, called through ctypes, when the system library
loads; otherwise on `cryptography`. Both give the same RFC 8032 keys and
signatures, so every address and signed byte is the same either way.

A check finds the verify key behind an agent address in the live identity
derive_identity made for it, and decodes the address text of any other,
wallet addresses included. No key is kept, so a process does not grow with
the addresses it checks.

Ed25519 work that a thread will need later is handed ahead, each job as it
is made and only by hand_ahead, to the process's VerifyPool, whose threads
run it while the caller does other work: key pairs, registration checks,
and envelope checks. A sealed envelope's Signature is pending, the Job that
signs it, so an envelope handed ahead as it is sealed is signed and then
checked there. A thread that asks for a job's result while another holds
it runs the pool's queued jobs, one at a time from the front, until the
claim is let go, and blocks only once none is queued. Where the backend
holds the GIL, nothing is handed ahead and no signature is pending; there,
or with one CPU, every job runs on the thread that asks for its result.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import queue
import re
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric import ed25519

AGENT_PREFIX = "agent1"
WALLET_PREFIX = "wallet1"
WALLET_SUFFIX = b"::wallet"

DIGEST_LEN = 32
SIGNATURE_LEN = 64

# Names the libsodium shared library goes by: 1.0.18, later releases, macOS.
_SODIUM_NAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so", "libsodium.dylib")

# Verify keys no signature may be checked against, refused before either
# backend runs so both refuse the same keys. A key of small order (the 8
# points of order 1, 2, 4 and 8) verifies forged signatures, such as
# R = identity, S = 0 for the identity key; libsodium also refuses a
# non-canonical key (y >= p). The y coordinates of the small-order points
# are libsodium's list; the x sign bit is ignored.
_P = 2**255 - 19
_ORDER_8_Y = int.from_bytes(
    bytes.fromhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"), "little"
)
_SMALL_ORDER_Y = frozenset({0, 1, _P - 1, _ORDER_8_Y, _P - _ORDER_8_Y})


class IdentityError(Exception):
    """Base for identity failures."""


class EmptySeed(IdentityError):
    """Seed phrase was empty."""


class BadDigestLength(IdentityError):
    """Digest passed to sign/verify was not exactly 32 bytes."""


class MalformedAddress(IdentityError):
    """Address string does not decode to a verify key."""


# RFC 4648 base32 in lowercase. A key is encoded as one 260-bit int (the
# 256 key bits, then 4 zero pad bits), ten bits at a time from a table of
# every pair of letters, and decoded with int(), whose base-32 digits are
# 0-9a-v: the translate table maps each letter to the digit of its value.
_BASE32 = "abcdefghijklmnopqrstuvwxyz234567"
_PAIRS = [high + low for high in _BASE32 for low in _BASE32]
_PAIR_SHIFTS = range(250, -1, -10)
_TO_INT_DIGITS = str.maketrans(_BASE32, "0123456789abcdefghijklmnopqrstuv")
_BODY = re.compile(r"[a-z2-7]{52}")


def _encode_key(prefix: str, raw: bytes) -> str:
    value = int.from_bytes(raw, "big") << 4
    return prefix + "".join([_PAIRS[value >> shift & 1023] for shift in _PAIR_SHIFTS])


def decode_address(address: str) -> bytes:
    """Return the 32-byte verify key behind an agent1/wallet1 address.

    Only the text _encode_key makes is accepted: 52 lowercase base32
    characters whose 4 pad bits are zero. Any other spelling of a key raises
    MalformedAddress, so one key answers to one address."""
    if address.startswith(AGENT_PREFIX):
        body = address[len(AGENT_PREFIX):]
    elif address.startswith(WALLET_PREFIX):
        body = address[len(WALLET_PREFIX):]
    else:
        raise MalformedAddress(f"unknown address prefix: {address[:12]!r}")
    if _BODY.fullmatch(body) is None:
        raise MalformedAddress(f"address body must be 52 lowercase base32 chars: {body[:12]!r}")
    value = int(body.translate(_TO_INT_DIGITS), 32)
    if value & 0xF:
        raise MalformedAddress("address pad bits are not zero")
    return (value >> 4).to_bytes(32, "big")


class _Sodium:
    """Ed25519 through libsodium's C functions. The public handle is the raw
    32-byte key; the secret handle is the 64-byte seed-and-key libsodium
    signs with. Callers check every length before a call; a message or
    signature in another bytes-like type is copied to bytes, which is all
    `c_char_p` takes."""

    # ctypes lets go of the GIL for the length of each C call
    releases_gil = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        buf, size = ctypes.c_char_p, ctypes.c_ulonglong
        # the output buffer types, made once: create_string_buffer asks
        # ctypes for its array type on every call
        self._buf32, self._buf64 = ctypes.c_char * 32, ctypes.c_char * 64
        self._keypair = lib.crypto_sign_ed25519_seed_keypair
        self._keypair.argtypes = [buf, buf, buf]
        self._sign = lib.crypto_sign_ed25519_detached
        self._sign.argtypes = [buf, ctypes.POINTER(size), buf, size, buf]
        self._verify = lib.crypto_sign_ed25519_verify_detached
        self._verify.argtypes = [buf, buf, size, buf]
        for fn in (self._keypair, self._sign, self._verify):
            fn.restype = ctypes.c_int

    def keypair(self, seed: bytes) -> tuple[bytes, bytes]:
        public, secret = self._buf32(), self._buf64()
        self._keypair(public, secret, seed)
        return public.raw, secret.raw

    def public(self, raw: bytes) -> bytes:
        return raw

    def sign(self, secret: bytes, message: bytes) -> bytes:
        signature = self._buf64()
        self._sign(signature, None, bytes(message), len(message), secret)
        return signature.raw

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return self._verify(bytes(signature), bytes(message), len(message), public) == 0


class _Cryptography:
    """Ed25519 through `cryptography` (OpenSSL), with its key objects as
    the handles. The package is imported here, not with the module, so a
    process on libsodium never pays for loading it."""

    # its verify holds the GIL: two threads take as long as one
    releases_gil = False

    def __init__(self) -> None:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric import ed25519

        self._invalid = InvalidSignature
        self._private, self._public = ed25519.Ed25519PrivateKey, ed25519.Ed25519PublicKey

    def keypair(self, seed: bytes) -> tuple[bytes, ed25519.Ed25519PrivateKey]:
        secret = self._private.from_private_bytes(seed)
        return secret.public_key().public_bytes_raw(), secret

    def public(self, raw: bytes) -> ed25519.Ed25519PublicKey | None:
        try:
            return self._public.from_public_bytes(raw)
        except ValueError:
            return None

    def sign(self, secret: ed25519.Ed25519PrivateKey, message: bytes) -> bytes:
        return secret.sign(message)

    def verify(self, public: ed25519.Ed25519PublicKey, message: bytes, signature: bytes) -> bool:
        try:
            public.verify(signature, message)
        except self._invalid:
            return False
        return True


def _load_backend() -> _Sodium | _Cryptography:
    """libsodium when its library loads and initialises, else `cryptography`."""
    for name in _SODIUM_NAMES:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        lib.sodium_init.argtypes = []
        lib.sodium_init.restype = ctypes.c_int
        # 1 means already initialised; -1 a failure
        if lib.sodium_init() >= 0:
            return _Sodium(lib)
    return _Cryptography()


_backend = _load_backend()


class Job:
    """One call made once, on whichever thread claims it first: a pool
    thread (hand_ahead), or the thread that asks for its result. A thread
    that asks while another holds the claim runs the verify pool's queued
    jobs until the claim is let go, and waits for it only once none is
    queued (VerifyPool.wait). A call that raises keeps no result and lets go
    of the claim, so the next thread to ask makes the call again and raises
    in its own right. A job holds C-bound work: one call, or an envelope's
    check that first asks its pending signature's job for the sign. Python
    work on a pool thread would only take the GIL from the caller."""

    __slots__ = ("_call", "_args", "_claim", "_done", "_result")

    def __init__(self, call: Callable[..., Any], *args: Any) -> None:
        self._call, self._args = call, args
        self._claim = threading.Lock()
        self._done = False
        self._result: Any = None

    def result(self) -> Any:
        """The call's result: made here unless it is made already, once the
        claim is ours; while another thread holds it, this one runs the
        verify pool's queued jobs."""
        if not self._done:
            if not self._claim.acquire(blocking=False):
                pool = _pool
                if pool is None:
                    self._claim.acquire()
                else:
                    pool.wait(self._claim)
            try:
                if not self._done:
                    self._make()
            finally:
                self._claim.release()
        return self._result

    def _make(self) -> None:
        """Make the call; the caller holds the claim. A made job lets go of
        the call and its arguments, such as the identity a sign needs."""
        self._result = self._call(*self._args)
        self._done = True
        self._call = self._args = None

    def run_ahead(self) -> None:
        """Make the call here unless it is made or claimed; never waits and
        never raises."""
        if self._done or not self._claim.acquire(blocking=False):
            return
        try:
            if not self._done:
                self._make()
        except Exception:
            pass  # the claim is let go; the thread that asks makes the call and raises
        finally:
            self._claim.release()


class VerifyPool:
    """Daemon threads that run what hand_ahead queues, ahead of the thread
    that needs it: anything with a run_ahead() method, such as a Job or an
    envelope, whose run_ahead makes its pending signature and then works out
    its signature check. Their Ed25519 calls overlap the caller's work only
    where the backend lets go of the GIL. A thread that would wait on a job
    another holds runs queued jobs meanwhile (wait), as the joining thread
    of a fork/join pool does (Blumofe & Leiserson, JACM 1999): without it,
    the main thread of a `forged_bids` order sat idle on about 79 checks a
    pool thread held, 1.8 ms in all on 2 vCPUs."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._jobs: queue.SimpleQueue[Any] = queue.SimpleQueue()
        self._helping = threading.local()
        for _ in range(workers):
            threading.Thread(target=self._serve, name="agentmesh-verify", daemon=True).start()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            job.run_ahead()

    def wait(self, claim: threading.Lock) -> None:
        """Take claim, which another thread holds: until it is let go, run
        the queued jobs here one at a time, and block once none is queued.
        A thread already running a job it took this way blocks at once, so
        helping goes one level deep."""
        helping = self._helping
        if not getattr(helping, "on", False):
            helping.on = True
            try:
                while (job := self._take()) is not None:
                    job.run_ahead()
                    if claim.acquire(blocking=False):
                        return
            finally:
                helping.on = False
        claim.acquire()

    def _take(self) -> Any:
        """The next queued job, or None when none is queued. An end marker
        taken is put back, so that it still ends a pool thread."""
        try:
            job = self._jobs.get_nowait()
        except queue.Empty:
            return None
        if job is None:
            self._jobs.put(None)
        return job

    def submit(self, job: Any) -> bool:
        """Queue one job for a pool thread, if there is one, and say so."""
        if self.workers:
            self._jobs.put(job)
        return self.workers > 0

    def close(self) -> None:
        """Let every pool thread end once it has taken what is queued."""
        for _ in range(self.workers):
            self._jobs.put(None)


# Threads belong to the process, not to one world: every world shares this
# pool, made the first time a job is handed ahead.
_pool: VerifyPool | None = None
_pool_lock = threading.Lock()


def verify_pool() -> VerifyPool:
    """The process's VerifyPool: one thread fewer than the CPUs this process
    may run on, as the calling thread works too."""
    global _pool
    with _pool_lock:
        if _pool is None:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            _pool = VerifyPool(cpus - 1)
        return _pool


def hand_ahead(job: Any) -> bool:
    """The one hand-off to the verify pool: queue job where the backend's
    calls overlap, and say whether a pool thread may run it."""
    return verifies_overlap() and verify_pool().submit(job)


def work_ahead(jobs: Iterable[Job]) -> None:
    """Hand each job, whose result the caller will ask for first to last,
    ahead as it is taken (hand_ahead); once all are taken, run those not
    yet made here from the last, so that the pool and the caller meet once
    (without that, `fleet` read slower in 4 of 4 pairs)."""
    taken, pooled = [], False
    for job in jobs:
        taken.append(job)
        pooled = hand_ahead(job)
    if pooled:
        for job in reversed(taken):
            job.run_ahead()


class Signature:
    """A 64-byte Ed25519 signature over a 32-byte digest. A pending one is
    the claim-once Job that makes it, run on the verify pool or by the first
    thread that reads `data`; it compares, hashes and prints as its bytes."""

    __slots__ = ("_data", "_sign")

    def __init__(self, data: bytes) -> None:
        if len(data) != SIGNATURE_LEN:
            raise BadDigestLength(f"signature must be {SIGNATURE_LEN} bytes")
        self._data, self._sign = data, None

    @classmethod
    def pending(cls, sign: Job) -> "Signature":
        """The Signature the Job `sign` makes: now, or pending where calls overlap."""
        if not verifies_overlap():
            return sign.result()
        signature = cls.__new__(cls)
        signature._data, signature._sign = None, sign
        return signature

    @property
    def data(self) -> bytes:
        data = self._data
        if data is None:
            data = self._data = self._sign.result().data
        return data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"Signature(data={self.data!r})"

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Signature":
        return cls(bytes.fromhex(text))


@dataclass(frozen=True)
class AgentIdentity:
    """Keys and addresses derived from one seed phrase.

    The signing key controls the agent address; a second key derived from the
    same phrase controls the wallet address. Instances are immutable and safe
    to share.
    """

    address: str
    wallet_address: str
    verify_key: bytes
    # secret handles of the backend the identity was derived with
    _signing_key: object = field(repr=False)
    _wallet_key: object = field(repr=False)

    def sign_digest(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest with the agent key (deterministic)."""
        if len(digest) != DIGEST_LEN:
            raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
        return Signature(_backend.sign(self._signing_key, digest))

    def sign_digest_with_wallet(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest with the wallet key."""
        if len(digest) != DIGEST_LEN:
            raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
        return Signature(_backend.sign(self._wallet_key, digest))


# Every identity derive_identity made that is still alive, by agent address
# (the newest, where a phrase is derived twice): a check takes its verify
# key from here. An entry goes with its identity, so the map grows with the
# identities alive, not with the addresses checked. Decoding every address
# instead read a `fleet` order's p50 about 4% slower (344 decodes an order).
_live: weakref.WeakValueDictionary[str, AgentIdentity] = weakref.WeakValueDictionary()


def _keypair_jobs(phrase: str) -> tuple[Job, Job]:
    """The jobs that make a phrase's agent and wallet key pairs."""
    if not phrase:
        raise EmptySeed("seed phrase must be non-empty")
    data = phrase.encode("utf-8")
    signing_seed = hashlib.sha256(data).digest()
    wallet_seed = hashlib.sha256(data + WALLET_SUFFIX).digest()
    return Job(_backend.keypair, signing_seed), Job(_backend.keypair, wallet_seed)


def derive_identity(phrase: str, *, keypairs: Sequence[Job] | None = None) -> AgentIdentity:
    """Derive the full identity for a seed phrase.

    Deterministic: the phrase is the only input. Distinct phrases yield
    distinct addresses (collision would require a SHA-256 collision).
    `keypairs` are the phrase's two key-pair jobs when derive_identities
    has already handed them to the verify pool.
    """
    signing, wallet = keypairs or _keypair_jobs(phrase)
    verify_key, signing_key = signing.result()
    wallet_verify, wallet_key = wallet.result()
    identity = AgentIdentity(
        address=_encode_key(AGENT_PREFIX, verify_key),
        wallet_address=_encode_key(WALLET_PREFIX, wallet_verify),
        verify_key=verify_key,
        _signing_key=signing_key,
        _wallet_key=wallet_key,
    )
    _live[identity.address] = identity
    return identity


def derive_identities(phrases: Sequence[str]) -> list[AgentIdentity]:
    """derive_identity for each phrase, in order, with every key pair handed
    to the verify pool first (work_ahead)."""
    jobs = [_keypair_jobs(phrase) for phrase in phrases]
    work_ahead(job for pair in jobs for job in pair)
    return [derive_identity(phrase, keypairs=pair) for phrase, pair in zip(phrases, jobs)]


def _public_key(address: str) -> object | None:
    """The backend's handle for the verify key behind address, or None if
    its bytes are no valid key or one of small order or non-canonical.

    The raw key is the live identity's own when derive_identity made one
    for address that is still alive, and is decoded from the text
    otherwise; the two agree, as an address is its key's one canonical
    text. Nothing is kept: a malformed address raises MalformedAddress, and
    the handle is made for the backend in use, on every call.
    """
    identity = _live.get(address)
    raw_key = decode_address(address) if identity is None else identity.verify_key
    y = int.from_bytes(raw_key, "little") & ((1 << 255) - 1)
    if y >= _P or y in _SMALL_ORDER_Y:
        return None
    return _backend.public(raw_key)


def verify_digest(address: str, digest: bytes, signature: Signature | bytes) -> bool:
    """True iff signature was made over exactly this digest by the key behind address.

    Raises MalformedAddress for undecodable addresses and BadDigestLength for
    digests of the wrong size; malformed signature bytes simply return False.
    """
    key = _public_key(address)
    if len(digest) != DIGEST_LEN:
        raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    sig = signature.data if isinstance(signature, Signature) else signature
    if key is None or len(sig) != SIGNATURE_LEN:
        return False
    return _backend.verify(key, digest, sig)


def verifies_overlap() -> bool:
    """Whether verifies on several threads run at the same time, which
    holds for the backend in use right now."""
    return _backend.releases_gil


def signed_by(address: str, digest: bytes, signature: Signature | bytes) -> bool:
    """verify_digest for a signature from outside the program: False, not
    an error, for an address or digest that verify_digest refuses. It calls
    verify_digest through this module, so a wrapper installed here sees it."""
    try:
        return verify_digest(address, digest, signature)
    except IdentityError:
        return False
