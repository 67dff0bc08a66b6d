//! Self-healing TCP transport: sequence-numbered, CRC-checked frames
//! over one duplex stream per rank pair, with per-link send windows,
//! ack/replay, application-level heartbeats, and reconnect with capped
//! exponential backoff.
//!
//! ## Reliability layer
//!
//! Every steady-state frame on a stream is either a **MSG** (`0x10`:
//! `seq u64 | crc32 u32 | inner wire frame`) or a **HB** (`0x12`:
//! `cumulative ack u64`), inside the `u32`-length outer framing. Each
//! directed link keeps a send window of unacked MSG frames; heartbeats
//! carry cumulative acks that prune it (sent promptly after every sweep
//! that delivers frames, and at least once a heartbeat period), and a
//! go-back-N retransmit timer replays the window when acks stall. A
//! data frame is encoded once, behind headroom for its header, and that
//! one buffer is the window entry and the bytes every (re)send writes.
//! The receiver applies frames strictly in sequence (duplicates and
//! out-of-order futures are discarded), so a frame the chaos interposer
//! drops, corrupts, or duplicates on the wire is healed *below* the
//! application: the CRC rejects mangled bytes, the replay timer
//! retransmits, and the seq check deduplicates.
//!
//! ## Link state machine (DESIGN.md §16)
//!
//! Established → Suspect (heartbeat silence past the miss threshold) →
//! Reconnecting (stream torn; the higher-ranked end re-dials the
//! lower-ranked end's listener with capped exponential backoff +
//! jitter, sending a `RECON` handshake naming both ranks and its
//! highest delivered seq) → back to Established (window replayed from
//! the peer's ack point) or → Down (backoff budget exhausted). A link
//! that goes Down feeds [`Registry::mark_failed`] — tagged with a
//! typed [`CommError::LinkDown`] — so ULFM revoke/shrink recovery
//! fires on genuine peer death instead of hanging, while transient
//! tears (including injected partitions) heal transparently.
//!
//! A peer that says goodbye first (a `BYE` control frame) goes Down
//! without reconnect attempts or a failure mark: its EOF is a
//! shutdown. Backend threads never panic on wire errors — corrupt
//! frames are discarded (CRC) or tear the link for reconnection.
//!
//! Like the shmem backend, two modes share the code: **loopback**
//! (ranks are threads, both socket ends live in this process) and
//! **per-process** (a parent/child rendezvous builds a full mesh;
//! every process keeps its listener and the address table afterwards
//! so torn links can be re-dialed).

use super::chaos::LinkChaos;
use super::{wire, CtrlMsg, LinkStats, Route, Transport, TransportKind};
use crate::config::CommConfig;
use crate::error::CommError;
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Steady-state frame tags (first payload byte inside the outer
/// `u32`-length framing).
const TAG_MSG: u8 = 0x10;
const TAG_HB: u8 = 0x12;
const TAG_RECON: u8 = 0x13;

/// Per-dial allowance for the RECON handshake round-trip.
const RECON_IO_TIMEOUT: Duration = Duration::from_millis(250);

/// Bytes in front of a MSG frame's inner wire frame: the `u32` stream
/// length, then the tag, `seq u64` and `crc32 u32`. Data frames are
/// encoded behind this much headroom so the header is sealed in place
/// and one buffer serves the window, the first send and every replay.
const MSG_HEADROOM: usize = 4 + 13;

/// Write all of `bytes`, tolerating `WouldBlock` (the write half shares
/// its fd with the nonblocking reader clone).
fn write_all(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one length-prefixed frame that has no headroom of its own
/// (handshakes and chaos-mangled copies).
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    write_all(stream, &buf)
}

/// Read exactly `buf.len()` bytes, spinning through `WouldBlock` until
/// `deadline`. Handshake-time helper; steady-state reads go through the
/// nonblocking event loop instead.
fn read_exact_deadline(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        if Instant::now() > deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// CRC-32 (the IEEE 802.3 / zlib polynomial, bit-reflected) over a
/// frame's inner bytes. Dispatches at runtime to a PCLMULQDQ folding
/// kernel and falls back to the byte table. SSE4.2's `crc32`
/// instruction is not an option: it computes CRC-32C (Castagnoli), a
/// different polynomial, so it would change the wire format.
fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= clmul::MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: PCLMULQDQ and SSE4.1 support was just verified at
            // runtime, and the length meets the kernel's minimum.
            return unsafe { clmul::crc32(bytes) };
        }
    }
    crc32_bytes(bytes)
}

/// Byte-at-a-time table CRC-32: the portable fallback, and the oracle
/// the folding kernel is tested against.
fn crc32_bytes(bytes: &[u8]) -> u32 {
    !crc32_table_update(!0, bytes)
}

/// Advance a raw (uninverted) CRC-32 register over `bytes`, one table
/// lookup per byte.
fn crc32_table_update(mut c: u32, bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0u32;
        while i < 256 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            t[i as usize] = c;
            i += 1;
        }
        t
    });
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), bit-reflected variant: fold four 128-bit lanes 64
/// bytes at a time, fold them into one lane, reduce 128 → 64 bits, and
/// finish with a Barrett reduction to 32 bits. The last `len % 16`
/// bytes go through the byte table.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    /// Shortest input the kernel accepts: its four initial lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants `x^k mod P(x)`, bit-reflected and shifted left
    // by one, for fold distances of four lanes (k = 4·128 ± 32), one
    // lane (k = 128 ± 32) and the final 64 bits (k = 64).
    const K1: i64 = 0x1_5444_2bd4; // k = 544
    const K2: i64 = 0x1_c6e4_1596; // k = 480
    const K3: i64 = 0x1_7519_97d0; // k = 160
    const K4: i64 = 0x0_ccaa_009e; // k = 96
    const K5: i64 = 0x1_63cd_6124; // k = 64
    /// `P(x)` bit-reflected, and Barrett's `μ = ⌊x^64 / P(x)⌋` likewise.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1, and
    /// `data.len() >= MIN_LEN`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32(mut data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN);
        let mut x3 = take(&mut data);
        let mut x2 = take(&mut data);
        let mut x1 = take(&mut data);
        let mut x0 = take(&mut data);
        // The initial register (all ones) is folded into the first word.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(!0));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, take(&mut data), k1k2);
            x2 = fold(x2, take(&mut data), k1k2);
            x1 = fold(x1, take(&mut data), k1k2);
            x0 = fold(x0, take(&mut data), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, take(&mut data), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits; reflected, so the remainder
        // lands in the upper half of the low quadword.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        !super::crc32_table_update(c, data)
    }

    /// `a` carried forward across the fold distance in `keys`, plus `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Load the next 16 bytes and advance past them.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn take(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(head.as_ptr() as *const __m128i) }
    }
}

/// Seal a MSG frame in place: `frame` is [`MSG_HEADROOM`] bytes of
/// headroom followed by the inner wire frame. The seq is stamped later,
/// under the link lock; the CRC covers only the inner frame, so it is
/// computed here, outside the lock.
fn seal_msg(frame: &mut [u8]) {
    let crc = crc32(&frame[MSG_HEADROOM..]);
    let len = (frame.len() - 4) as u32;
    frame[0..4].copy_from_slice(&len.to_le_bytes());
    frame[4] = TAG_MSG;
    frame[13..17].copy_from_slice(&crc.to_le_bytes());
}

/// A length-prefixed HB frame carrying a cumulative ack, ready for one
/// `write`.
fn encode_hb(ack: u64) -> [u8; 13] {
    let mut out = [0u8; 13];
    out[0..4].copy_from_slice(&9u32.to_le_bytes());
    out[4] = TAG_HB;
    out[5..13].copy_from_slice(&ack.to_le_bytes());
    out
}

fn encode_recon(from: usize, to: usize, last_delivered: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(TAG_RECON);
    out.extend_from_slice(&(from as u64).to_le_bytes());
    out.extend_from_slice(&(to as u64).to_le_bytes());
    out.extend_from_slice(&last_delivered.to_le_bytes());
    out
}

fn decode_recon(frame: &[u8]) -> io::Result<(usize, usize, u64)> {
    if frame.len() != 25 || frame[0] != TAG_RECON {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad RECON frame"));
    }
    let f = |i: usize| u64::from_le_bytes(frame[i..i + 8].try_into().unwrap());
    Ok((f(1) as usize, f(9) as usize, f(17)))
}

/// Flip bytes inside a MSG frame's inner region, leaving the header
/// (tag, seq, CRC) intact so the stream framing survives and the
/// receiver's CRC check is what catches the damage.
fn corrupt_copy(msg: &[u8]) -> Vec<u8> {
    let mut bad = msg.to_vec();
    let start = 13.min(bad.len());
    for b in bad[start..].iter_mut().take(8) {
        *b ^= 0xFF;
    }
    bad
}

/// Aggregate link-health counters, shared with the event loop.
#[derive(Default)]
struct Stats {
    reconnects: AtomicU64,
    heartbeat_misses: AtomicU64,
    replayed_frames: AtomicU64,
    last_reconnect_ns: AtomicU64,
}

/// Timing knobs resolved from [`CommConfig`] at construction.
#[derive(Clone, Copy)]
struct Knobs {
    hb_period: Duration,
    hb_misses: u32,
    attempts: u32,
    backoff: Duration,
    /// Ack-stall retransmit timeout (go-back-N).
    rto: Duration,
    /// How long the accept side of a torn link waits for a re-dial
    /// before declaring it Down — sized to cover the dialer's whole
    /// backoff schedule plus handshake allowances.
    reconnect_window: Duration,
}

impl Knobs {
    fn from_config(config: &CommConfig) -> Knobs {
        let mut window = config.heartbeat_period;
        let mut d = config.reconnect_backoff;
        for _ in 0..config.reconnect_attempts {
            window += d + RECON_IO_TIMEOUT;
            d = (d * 2).min(config.reconnect_backoff * 32);
        }
        Knobs {
            hb_period: config.heartbeat_period,
            hb_misses: config.heartbeat_misses,
            attempts: config.reconnect_attempts,
            backoff: config.reconnect_backoff,
            rto: config.heartbeat_period * 2,
            reconnect_window: window,
        }
    }
}

/// Send-side state of one directed link, guarded by the link mutex.
struct Tx {
    /// Write half, `None` while torn. Nonblocking: it shares its open
    /// file with the reader, so a full socket returns `WouldBlock`.
    stream: Option<TcpStream>,
    /// Sequence the next new frame gets (first frame is 1).
    next_seq: u64,
    /// Highest cumulative ack applied to the window.
    acked: u64,
    /// Unacked MSG frames, sealed and length-prefixed, oldest first.
    window: VecDeque<(u64, Vec<u8>)>,
    /// When the stream tore (drives the backoff / give-up schedule).
    torn_at: Option<Instant>,
    /// Dials made since the tear.
    attempts_made: u32,
    /// A dial thread is in flight; its result lands in
    /// `Shared::dial_results`.
    dialing: bool,
    /// Earliest time for the next dial.
    next_dial: Instant,
    /// Terminal state: no more reconnects (peer dead or said BYE).
    down: bool,
    /// Last time we sent a heartbeat (periodic or prompt ack).
    last_hb: Instant,
    /// Last time the window made progress (ack advance / retransmit).
    last_progress: Instant,
}

impl Tx {
    /// Stamp a sealed MSG frame with the next seq and keep it in the
    /// window until the peer acks it.
    fn push(&mut self, mut frame: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        frame[5..13].copy_from_slice(&seq.to_le_bytes());
        if self.window.is_empty() {
            self.last_progress = Instant::now();
        }
        self.window.push_back((seq, frame));
    }
}

/// One directed link endpoint this process owns: `owner` (local) writes
/// toward `peer`, and the paired reader delivers the reverse direction.
struct Link {
    owner: usize,
    peer: usize,
    /// Where to re-dial after a tear; `None` means the far end dials us
    /// (the higher-ranked endpoint dials the lower-ranked listener).
    dial_addr: Option<String>,
    tx: Mutex<Tx>,
    /// Highest seq applied from the peer (receive side).
    last_delivered: AtomicU64,
    /// Highest `last_delivered` a heartbeat has carried to the peer.
    ack_sent: AtomicU64,
    /// Highest cumulative ack heard from the peer. The event loop
    /// records it here without waiting for `tx`; whoever holds `tx` next
    /// prunes the window ([`Link::absorb_acks`]).
    peer_acked: AtomicU64,
    /// Origin of `last_heard_ns`.
    epoch: Instant,
    /// Nanoseconds after `epoch` that bytes last arrived from the peer.
    last_heard_ns: AtomicU64,
    /// Heartbeat periods of silence already counted as misses.
    misses_counted: AtomicU32,
    /// Peer announced a clean shutdown; its EOF is not a failure.
    saw_bye: AtomicBool,
    /// Bumped on every (re)install so stale readers don't tear the
    /// fresh connection.
    generation: AtomicU64,
    /// Test hook: suppress heartbeat sends so peers observe silence.
    mute: AtomicBool,
}

impl Link {
    fn new(owner: usize, peer: usize, dial_addr: Option<String>, stream: TcpStream) -> io::Result<(Arc<Link>, Reader)> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        stream.set_nonblocking(true)?;
        let now = Instant::now();
        let link = Arc::new(Link {
            owner,
            peer,
            dial_addr,
            tx: Mutex::new(Tx {
                stream: Some(write_half),
                next_seq: 1,
                acked: 0,
                window: VecDeque::new(),
                torn_at: None,
                attempts_made: 0,
                dialing: false,
                next_dial: now,
                down: false,
                last_hb: now,
                last_progress: now,
            }),
            last_delivered: AtomicU64::new(0),
            ack_sent: AtomicU64::new(0),
            peer_acked: AtomicU64::new(0),
            epoch: now,
            last_heard_ns: AtomicU64::new(0),
            misses_counted: AtomicU32::new(0),
            saw_bye: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            mute: AtomicBool::new(false),
        });
        let reader = Reader::new(Arc::clone(&link), 0, stream);
        Ok((link, reader))
    }

    /// Record that bytes arrived from the peer just now.
    fn mark_heard(&self, now: Instant) {
        let ns = now.duration_since(self.epoch).as_nanos() as u64;
        self.last_heard_ns.store(ns, Ordering::Relaxed);
        self.misses_counted.store(0, Ordering::Relaxed);
    }

    /// How long the peer has been silent.
    fn silence(&self, now: Instant) -> Duration {
        let heard = self.epoch + Duration::from_nanos(self.last_heard_ns.load(Ordering::Relaxed));
        now.saturating_duration_since(heard)
    }

    /// Drop window frames covered by the peer's latest ack; an advance
    /// counts as progress for the retransmit timer.
    fn absorb_acks(&self, tx: &mut Tx, now: Instant) {
        let ack = self.peer_acked.load(Ordering::Acquire);
        if ack > tx.acked {
            tx.acked = ack;
            tx.last_progress = now;
            while tx.window.front().is_some_and(|(seq, _)| *seq <= ack) {
                tx.window.pop_front();
            }
        }
    }

    /// One nonblocking write of a heartbeat carrying our cumulative ack.
    /// `WouldBlock` leaves it for a later sweep; returns false when the
    /// stream must be torn (an error, or a short write that left half a
    /// frame on the wire).
    fn write_hb(&self, tx: &mut Tx, now: Instant) -> bool {
        let Some(stream) = tx.stream.as_mut() else {
            return true;
        };
        let ack = self.last_delivered.load(Ordering::Acquire);
        let hb = encode_hb(ack);
        match stream.write(&hb) {
            Ok(n) if n == hb.len() => {
                tx.last_hb = now;
                self.ack_sent.fetch_max(ack, Ordering::Relaxed);
                true
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => true,
            _ => false,
        }
    }

    /// Tear the connection: close our end (so the peer sees EOF) and
    /// start the reconnect clock. Idempotent.
    fn tear(&self, tx: &mut Tx, now: Instant) {
        if let Some(s) = tx.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if tx.torn_at.is_none() {
            tx.torn_at = Some(now);
            tx.attempts_made = 0;
            tx.next_dial = now;
        }
        self.generation.fetch_add(1, Ordering::Release);
        self.misses_counted.store(0, Ordering::Relaxed);
    }
}

/// One nonblocking read half the event loop drains.
struct Reader {
    link: Arc<Link>,
    generation: u64,
    stream: TcpStream,
    buf: RecvBuf,
    open: bool,
}

impl Reader {
    fn new(link: Arc<Link>, generation: u64, stream: TcpStream) -> Reader {
        Reader {
            link,
            generation,
            stream,
            buf: RecvBuf::default(),
            open: true,
        }
    }
}

/// Least free space a socket read is offered.
const READ_MIN: usize = 64 * 1024;

/// A reader's receive buffer. The socket reads straight into its tail;
/// `data[start..end]` is read but not yet framed.
#[derive(Default)]
struct RecvBuf {
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    /// Free space for the next read: at least [`READ_MIN`] bytes, and
    /// room for the rest of a frame whose length prefix has arrived.
    /// The unframed tail slides to the front only when the space behind
    /// it is short, and the buffer at most doubles per call, so a bogus
    /// length cannot allocate far past the bytes actually received.
    fn spare(&mut self) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let pending = self.end - self.start;
        let frame_rest = if pending >= 4 {
            let len = u32::from_le_bytes(self.data[self.start..self.start + 4].try_into().unwrap());
            (4 + len as usize).saturating_sub(pending)
        } else {
            0
        };
        let want = frame_rest.clamp(READ_MIN, self.data.len().max(READ_MIN));
        if self.data.len() - self.end < want {
            self.data.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = pending;
            if self.data.len() - self.end < want {
                self.data.resize(self.end + want, 0);
            }
        }
        &mut self.data[self.end..]
    }
}

/// Everything the event loop shares with the transport facade.
struct Shared {
    /// `(owner_world, peer_world) -> link`, fixed after construction.
    links: HashMap<(usize, usize), Arc<Link>>,
    /// World ranks hosted by this process (all of them in loopback).
    local: Vec<usize>,
    /// Kept past rendezvous so torn links can re-dial us. Nonblocking.
    listener: Option<TcpListener>,
    stop: AtomicBool,
    stats: Stats,
    knobs: Knobs,
    chaos: Option<Arc<LinkChaos>>,
    /// Results from detached dial threads, drained by the event loop.
    /// Dials must not block that loop: in loopback mode the same loop
    /// services the listener the dial is connecting to.
    dial_results: Mutex<Vec<DialResult>>,
}

/// `(owner, peer, outcome)` from one detached reconnect dial; `Ok`
/// carries the fresh stream and the peer's last-delivered point.
type DialResult = (usize, usize, io::Result<(TcpStream, u64)>);

/// The TCP transport. See the module docs for the two modes.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Initial readers, handed to the event loop at attach.
    readers: Mutex<Vec<Reader>>,
    event_loop: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Collects links/readers during rendezvous, then freezes into `Shared`.
struct MeshBuilder {
    links: HashMap<(usize, usize), Arc<Link>>,
    readers: Vec<Reader>,
}

impl MeshBuilder {
    fn new() -> MeshBuilder {
        MeshBuilder {
            links: HashMap::new(),
            readers: Vec::new(),
        }
    }

    fn add_link(
        &mut self,
        owner: usize,
        peer: usize,
        dial_addr: Option<String>,
        stream: TcpStream,
    ) -> io::Result<()> {
        let (link, reader) = Link::new(owner, peer, dial_addr, stream)?;
        self.links.insert((owner, peer), link);
        self.readers.push(reader);
        Ok(())
    }

    fn finish(
        self,
        local: Vec<usize>,
        listener: Option<TcpListener>,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        Ok(TcpTransport {
            shared: Arc::new(Shared {
                links: self.links,
                local,
                listener,
                stop: AtomicBool::new(false),
                stats: Stats::default(),
                knobs: Knobs::from_config(config),
                chaos,
                dial_results: Mutex::new(Vec::new()),
            }),
            readers: Mutex::new(self.readers),
            event_loop: Mutex::new(None),
        })
    }
}

impl TcpTransport {
    /// Build a loopback transport: all ranks are threads here, and both
    /// ends of every pair's socket live in this process. The listener
    /// stays open for reconnects (the higher-ranked end of a torn pair
    /// re-dials it).
    pub fn loopback(
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut mesh = MeshBuilder::new();
        for i in 0..num_ranks {
            for j in (i + 1)..num_ranks {
                let a = TcpStream::connect(addr.as_str())?;
                let (b, _) = listener.accept()?;
                // `a` is rank i's end of the (i, j) pair, `b` is rank
                // j's: writes into `a` surface on `b` and vice versa.
                // The higher-ranked end owns the dial address.
                mesh.add_link(i, j, None, a)?;
                mesh.add_link(j, i, Some(addr.clone()), b)?;
            }
        }
        mesh.finish((0..num_ranks).collect(), Some(listener), config, chaos)
    }

    /// Parent side of the per-process rendezvous: accept a connection
    /// from every child (bounded by the handshake deadline, so a child
    /// that crashes during startup yields a typed error instead of a
    /// hang), learn its listen address, then broadcast the full table
    /// so children can mesh among themselves.
    pub fn parent(
        listener: TcpListener,
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        listener.set_nonblocking(true)?;
        let mut mesh = MeshBuilder::new();
        let mut tab: HashMap<usize, String> = HashMap::new();
        let mut links: Vec<(usize, TcpStream)> = Vec::new();
        for _ in 1..num_ranks {
            let mut stream = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "rendezvous timed out: {}/{} children connected within {:?}",
                                    links.len(),
                                    num_ranks - 1,
                                    config.handshake_timeout
                                ),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            let (rank, listen_addr) = read_hello(&mut stream, deadline)?;
            tab.insert(rank, listen_addr);
            links.push((rank, stream));
        }
        let table = encode_table(&tab);
        for (_, stream) in links.iter_mut() {
            stream.set_nodelay(true)?;
            write_frame(stream, &table)?;
        }
        for (rank, stream) in links {
            // Rank 0 is the lowest end of every parent link: children
            // re-dial us, we never dial.
            mesh.add_link(0, rank, None, stream)?;
        }
        mesh.finish(vec![0], Some(listener), config, chaos)
    }

    /// Child side of the rendezvous: dial the parent, announce our own
    /// listen address, receive the sibling table, then dial every
    /// lower-ranked sibling and accept from every higher-ranked one.
    /// The dial direction (higher dials lower) is exactly the reconnect
    /// rule, so the addresses we used here are the ones we keep.
    pub fn child(
        parent_addr: &str,
        my_rank: usize,
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut mesh = MeshBuilder::new();

        let mut parent = TcpStream::connect(parent_addr)?;
        write_hello(&mut parent, my_rank, &listener.local_addr()?.to_string())?;
        let table = decode_table(&read_one_frame(&mut parent, deadline)?)?;
        mesh.add_link(my_rank, 0, Some(parent_addr.to_owned()), parent)?;

        for peer in 1..my_rank {
            let addr = table.get(&peer).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("rank {peer} not in table"))
            })?;
            let mut stream = TcpStream::connect(addr.as_str())?;
            write_hello(&mut stream, my_rank, "")?;
            mesh.add_link(my_rank, peer, Some(addr.clone()), stream)?;
        }
        listener.set_nonblocking(true)?;
        for _ in (my_rank + 1)..num_ranks {
            let mut stream = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {my_rank}: rendezvous timed out waiting for higher siblings"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            let (rank, _) = read_hello(&mut stream, deadline)?;
            mesh.add_link(my_rank, rank, None, stream)?;
        }
        mesh.finish(vec![my_rank], Some(listener), config, chaos)
    }
}

fn write_hello(stream: &mut TcpStream, rank: usize, listen_addr: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(10 + listen_addr.len());
    frame.extend_from_slice(&(rank as u64).to_le_bytes());
    frame.extend_from_slice(&(listen_addr.len() as u16).to_le_bytes());
    frame.extend_from_slice(listen_addr.as_bytes());
    write_frame(stream, &frame)
}

fn read_hello(stream: &mut TcpStream, deadline: Instant) -> io::Result<(usize, String)> {
    let frame = read_one_frame(stream, deadline)?;
    if frame.len() < 10 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short hello"));
    }
    let rank = u64::from_le_bytes(frame[0..8].try_into().unwrap()) as usize;
    let len = u16::from_le_bytes(frame[8..10].try_into().unwrap()) as usize;
    let addr = std::str::from_utf8(&frame[10..10 + len])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .to_owned();
    Ok((rank, addr))
}

fn read_one_frame(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    read_exact_deadline(stream, &mut len_bytes, deadline)?;
    let mut frame = vec![0u8; u32::from_le_bytes(len_bytes) as usize];
    read_exact_deadline(stream, &mut frame, deadline)?;
    Ok(frame)
}

fn encode_table(tab: &HashMap<usize, String>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tab.len() as u32).to_le_bytes());
    for (rank, addr) in tab {
        out.extend_from_slice(&(*rank as u64).to_le_bytes());
        out.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        out.extend_from_slice(addr.as_bytes());
    }
    out
}

fn decode_table(frame: &[u8]) -> io::Result<HashMap<usize, String>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
    let mut tab = HashMap::new();
    if frame.len() < 4 {
        return Err(bad("short table"));
    }
    let count = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    for _ in 0..count {
        if frame.len() < pos + 10 {
            return Err(bad("truncated table entry"));
        }
        let rank = u64::from_le_bytes(frame[pos..pos + 8].try_into().unwrap()) as usize;
        let len = u16::from_le_bytes(frame[pos + 8..pos + 10].try_into().unwrap()) as usize;
        pos += 10;
        if frame.len() < pos + len {
            return Err(bad("truncated table address"));
        }
        let addr = std::str::from_utf8(&frame[pos..pos + len])
            .map_err(|_| bad("non-utf8 address"))?
            .to_owned();
        pos += len;
        tab.insert(rank, addr);
    }
    Ok(tab)
}

/// Install a fresh stream into a torn link: prune the window to the
/// peer's delivered point, replay the rest in order, and register a new
/// reader generation. `torn_at` (if any) feeds the reconnect-latency
/// stat.
fn install_stream(
    link: &Arc<Link>,
    stream: TcpStream,
    peer_delivered: u64,
    readers: &mut Vec<Reader>,
    stats: &Stats,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut write_half = stream.try_clone()?;
    stream.set_nonblocking(true)?;
    let now = Instant::now();
    let mut tx = link.tx.lock();
    if let Some(old) = tx.stream.take() {
        let _ = old.shutdown(Shutdown::Both);
    }
    link.peer_acked.fetch_max(peer_delivered, Ordering::AcqRel);
    link.absorb_acks(&mut tx, now);
    let mut replayed = 0u64;
    for (_, frame) in tx.window.iter() {
        write_all(&mut write_half, frame)?;
        replayed += 1;
    }
    if let Some(torn) = tx.torn_at.take() {
        stats
            .last_reconnect_ns
            .store(now.duration_since(torn).as_nanos() as u64, Ordering::Relaxed);
    }
    stats.replayed_frames.fetch_add(replayed, Ordering::Relaxed);
    stats.reconnects.fetch_add(1, Ordering::Relaxed);
    tx.stream = Some(write_half);
    tx.attempts_made = 0;
    tx.down = false;
    tx.last_hb = now;
    tx.last_progress = now;
    link.mark_heard(now);
    let generation = link.generation.fetch_add(1, Ordering::AcqRel) + 1;
    readers.push(Reader::new(Arc::clone(link), generation, stream));
    Ok(())
}

/// Dial the peer's listener and run the RECON handshake. Returns the
/// fresh stream plus the peer's highest delivered seq (our replay
/// point).
fn dial_reconnect(link: &Link) -> io::Result<(TcpStream, u64)> {
    let addr = link.dial_addr.as_deref().expect("dial side has an address");
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &encode_recon(link.owner, link.peer, link.last_delivered.load(Ordering::Acquire)),
    )?;
    let deadline = Instant::now() + RECON_IO_TIMEOUT;
    let reply = read_one_frame(&mut stream, deadline)?;
    let (from, to, peer_delivered) = decode_recon(&reply)?;
    if from != link.peer || to != link.owner {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "RECON reply names the wrong link",
        ));
    }
    Ok((stream, peer_delivered))
}

/// Declare a link Down under the caller's tx guard. Returns true when
/// this call made the transition, in which case the caller must drop
/// the guard and then call [`Registry::record_link_down`] — the
/// registry's failure broadcast re-enters this transport's tx locks
/// (`publish_ctrl` walks every link), so posting it under the guard
/// would self-deadlock the event loop.
#[must_use]
fn declare_down(link: &Link, tx: &mut Tx, attempts: u32) -> bool {
    if tx.down {
        return false;
    }
    tx.down = true;
    tx.window.clear();
    let err = CommError::LinkDown {
        peer: link.peer,
        attempts,
    };
    eprintln!("beatnik-comm: {err} (observed by rank {})", link.owner);
    true
}

/// Handle every complete frame in `reader.buf`. Returns false when the
/// stream must be torn (protocol error after a clean CRC). Never waits
/// for the link's tx lock: a rank thread may hold it while it spins on
/// a full socket that only this loop drains.
fn drain_reader_frames(reader: &mut Reader, registry: &Registry) -> bool {
    let link = &reader.link;
    let buf = &mut reader.buf;
    let mut healthy = true;
    while buf.end - buf.start >= 4 {
        let pos = buf.start;
        let len = u32::from_le_bytes(buf.data[pos..pos + 4].try_into().unwrap()) as usize;
        if buf.end - pos < 4 + len {
            break;
        }
        let frame = &buf.data[pos + 4..pos + 4 + len];
        buf.start = pos + 4 + len;
        match frame.first().copied() {
            Some(TAG_MSG) if frame.len() >= 13 => {
                let seq = u64::from_le_bytes(frame[1..9].try_into().unwrap());
                let sum = u32::from_le_bytes(frame[9..13].try_into().unwrap());
                let inner = &frame[13..];
                if crc32(inner) != sum {
                    // Mangled on the wire: drop it. The sender's
                    // go-back-N timer replays everything unacked.
                    continue;
                }
                let expected = link.last_delivered.load(Ordering::Acquire) + 1;
                if seq != expected {
                    // Duplicate (seq < expected) or a gap left by a
                    // dropped frame (seq > expected): discard; replay
                    // will deliver the run in order.
                    continue;
                }
                match wire::decode(inner) {
                    Ok(wire::Frame::Ctrl(CtrlMsg::Bye(rank))) => {
                        if rank == link.peer {
                            link.saw_bye.store(true, Ordering::Release);
                        }
                    }
                    Ok(f) => wire::apply(f, registry),
                    Err(e) => {
                        // CRC passed but the payload is still not a
                        // wire frame: torn framing somewhere. Tear and
                        // replay rather than panicking the backend.
                        eprintln!(
                            "beatnik-comm: undecodable frame from rank {} ({e}); tearing link",
                            link.peer
                        );
                        healthy = false;
                        break;
                    }
                }
                link.last_delivered.store(seq, Ordering::Release);
            }
            Some(TAG_HB) if frame.len() == 9 => {
                let ack = u64::from_le_bytes(frame[1..9].try_into().unwrap());
                if link.peer_acked.fetch_max(ack, Ordering::AcqRel) < ack {
                    // Prune now if the lock is free; otherwise the next
                    // holder (a send or this loop's tending) does it.
                    if let Some(mut tx) = link.tx.try_lock() {
                        link.absorb_acks(&mut tx, Instant::now());
                    }
                }
            }
            _ => {
                eprintln!(
                    "beatnik-comm: unknown frame tag from rank {}; tearing link",
                    link.peer
                );
                healthy = false;
                break;
            }
        }
    }
    healthy
}

/// Cumulative ack, sent as soon as a sweep has delivered frames the
/// peer has not yet heard acknowledged, instead of waiting up to a
/// heartbeat period: the peer's send window then holds only frames in
/// flight. Muted links stay silent. This runs on the event loop, so it
/// never spins: a busy tx lock or a full socket defers it to the next
/// sweep (the periodic heartbeat covers it too), and a short write
/// tears the link for replay to heal.
fn send_prompt_ack(link: &Link, stopping: bool) {
    if link.last_delivered.load(Ordering::Acquire) <= link.ack_sent.load(Ordering::Relaxed)
        || link.mute.load(Ordering::Acquire)
    {
        return;
    }
    let Some(mut tx) = link.tx.try_lock() else {
        return;
    };
    let now = Instant::now();
    if !link.write_hb(&mut tx, now) && !stopping {
        link.tear(&mut tx, now);
    }
}

/// Accept one reconnect dial on the listener: match it to the torn
/// local link, refuse it while the pair is partitioned, reply with our
/// delivered point, and install the stream.
fn accept_reconnect(
    shared: &Shared,
    mut stream: TcpStream,
    readers: &mut Vec<Reader>,
    stats: &Stats,
) {
    let deadline = Instant::now() + RECON_IO_TIMEOUT;
    let Ok(frame) = read_one_frame(&mut stream, deadline) else {
        return;
    };
    let Ok((dialer, target, dialer_delivered)) = decode_recon(&frame) else {
        return;
    };
    let Some(link) = shared.links.get(&(target, dialer)) else {
        return;
    };
    if let Some(chaos) = &shared.chaos {
        if chaos.pair_partitioned(target, dialer) {
            // Still severed: close without replying; the dialer's
            // backoff schedule absorbs the refusal.
            return;
        }
    }
    {
        let tx = link.tx.lock();
        if tx.down || link.saw_bye.load(Ordering::Acquire) {
            return;
        }
    }
    if write_frame(
        &mut stream,
        &encode_recon(target, dialer, link.last_delivered.load(Ordering::Acquire)),
    )
    .is_err()
    {
        return;
    }
    let _ = install_stream(link, stream, dialer_delivered, readers, stats);
}

/// Per-link periodic duties: heartbeats, silence accounting, go-back-N
/// retransmits, reconnect dials, and give-up deadlines. A link whose tx
/// lock is busy is tended on a later sweep: its holder may be a rank
/// thread spinning on a socket that only this loop drains.
fn tend_link(
    shared: &Arc<Shared>,
    link: &Arc<Link>,
    registry: &Registry,
    stopping: bool,
) {
    let knobs = &shared.knobs;
    let now = Instant::now();
    let Some(mut tx) = link.tx.try_lock() else {
        return;
    };
    if tx.down {
        return;
    }
    if tx.stream.is_some() {
        link.absorb_acks(&mut tx, now);
        // Silence accounting: every full heartbeat period without
        // inbound traffic is one miss; enough misses mark the link
        // Suspect and tear it for reconnection.
        let silent = link.silence(now);
        let periods = (silent.as_nanos() / knobs.hb_period.as_nanos().max(1)) as u32;
        let counted = link.misses_counted.fetch_max(periods, Ordering::Relaxed);
        if periods > counted {
            shared
                .stats
                .heartbeat_misses
                .fetch_add((periods - counted) as u64, Ordering::Relaxed);
        }
        if periods >= knobs.hb_misses && !stopping {
            link.tear(&mut tx, now);
            return;
        }
        if now.duration_since(tx.last_hb) >= knobs.hb_period
            && !link.mute.load(Ordering::Acquire)
            && !link.write_hb(&mut tx, now)
            && !stopping
        {
            link.tear(&mut tx, now);
            return;
        }
        if !tx.window.is_empty() && now.duration_since(tx.last_progress) > knobs.rto {
            // Acks stalled: go-back-N replay of everything unacked,
            // straight from the window.
            let Tx { stream, window, .. } = &mut *tx;
            let stream = stream.as_mut().expect("checked above");
            let ok = window.iter().all(|(_, frame)| write_all(stream, frame).is_ok());
            let replayed = window.len() as u64;
            tx.last_progress = now;
            shared
                .stats
                .replayed_frames
                .fetch_add(replayed, Ordering::Relaxed);
            if !ok && !stopping {
                link.tear(&mut tx, now);
            }
        }
        return;
    }
    // Torn. A clean goodbye or world teardown ends the link quietly.
    if link.saw_bye.load(Ordering::Acquire) {
        tx.down = true;
        return;
    }
    if stopping {
        return;
    }
    let torn_at = match tx.torn_at {
        Some(t) => t,
        None => {
            tx.torn_at = Some(now);
            now
        }
    };
    if link.dial_addr.is_none() {
        // Accept side: the peer dials us. Give it the dialer's whole
        // backoff budget before declaring the link dead.
        if now.duration_since(torn_at) > knobs.reconnect_window
            && declare_down(link, &mut tx, knobs.attempts)
        {
            drop(tx);
            registry.record_link_down(link.peer, knobs.attempts);
        }
        return;
    }
    // Dial side.
    if tx.dialing || now < tx.next_dial {
        return;
    }
    if let Some(chaos) = &shared.chaos {
        if chaos.pair_partitioned(link.owner, link.peer) {
            // Known partition window: defer without spending attempts.
            tx.next_dial = now + knobs.backoff;
            return;
        }
    }
    // Dial on a detached thread: the handshake round-trip must not
    // block this loop, which (in loopback mode) is also the loop that
    // accepts the dial on the listener side.
    tx.dialing = true;
    drop(tx);
    let link2 = Arc::clone(link);
    let shared2 = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("beatnik-tcp-dial".into())
        .spawn(move || {
            let result = dial_reconnect(&link2);
            shared2
                .dial_results
                .lock()
                .push((link2.owner, link2.peer, result));
        });
}

/// Fold finished dial attempts back into their links: install on
/// success, advance the backoff schedule (or give up) on failure.
fn drain_dial_results(
    shared: &Arc<Shared>,
    readers: &mut Vec<Reader>,
    registry: &Registry,
) {
    let results = std::mem::take(&mut *shared.dial_results.lock());
    for (owner, peer, result) in results {
        let Some(link) = shared.links.get(&(owner, peer)) else {
            continue;
        };
        let knobs = &shared.knobs;
        let mut tx = link.tx.lock();
        tx.dialing = false;
        if tx.down || tx.stream.is_some() {
            continue; // raced with an inbound accept
        }
        match result {
            Ok((stream, peer_delivered)) => {
                drop(tx);
                let _ = install_stream(link, stream, peer_delivered, readers, &shared.stats);
            }
            Err(_) => {
                tx.attempts_made += 1;
                if tx.attempts_made >= knobs.attempts {
                    let attempts = tx.attempts_made;
                    if declare_down(link, &mut tx, attempts) {
                        drop(tx);
                        registry.record_link_down(link.peer, attempts);
                    }
                    continue;
                }
                // Capped exponential backoff with deterministic jitter
                // so both ends of a flapping mesh don't dial in
                // lockstep.
                let shift = tx.attempts_made.min(5);
                let base = knobs.backoff * (1u32 << shift);
                let capped = base.min(knobs.backoff * 32);
                let jitter = 0.75
                    + 0.5
                        * ((link.owner as u64 * 31 + tx.attempts_made as u64 * 17) % 16) as f64
                        / 16.0;
                tx.next_dial = Instant::now()
                    + Duration::from_nanos((capped.as_nanos() as f64 * jitter) as u64);
            }
        }
    }
}

fn run_event_loop(shared: Arc<Shared>, registry: Arc<Registry>, mut readers: Vec<Reader>) {
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let mut drained = false;
        for reader in readers.iter_mut() {
            if !reader.open {
                continue;
            }
            let current_gen = reader.link.generation.load(Ordering::Acquire);
            if reader.generation != current_gen {
                reader.open = false; // superseded by a reconnect
                continue;
            }
            loop {
                match reader.stream.read(reader.buf.spare()) {
                    Ok(0) => {
                        reader.open = false;
                        if reader.generation == reader.link.generation.load(Ordering::Acquire) {
                            let mut tx = reader.link.tx.lock();
                            reader.link.tear(&mut tx, Instant::now());
                        }
                        break;
                    }
                    Ok(n) => {
                        drained = true;
                        reader.buf.end += n;
                        reader.link.mark_heard(Instant::now());
                        if !drain_reader_frames(reader, &registry) {
                            reader.open = false;
                            let mut tx = reader.link.tx.lock();
                            reader.link.tear(&mut tx, Instant::now());
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        reader.open = false;
                        if reader.generation == reader.link.generation.load(Ordering::Acquire) {
                            let mut tx = reader.link.tx.lock();
                            reader.link.tear(&mut tx, Instant::now());
                        }
                        break;
                    }
                }
            }
            if reader.open {
                send_prompt_ack(&reader.link, stopping);
            }
        }
        if let Some(listener) = &shared.listener {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        drained = true;
                        accept_reconnect(&shared, stream, &mut readers, &shared.stats);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        drain_dial_results(&shared, &mut readers, &registry);
        for link in shared.links.values() {
            tend_link(&shared, link, &registry, stopping);
        }
        readers.retain(|r| r.open);
        if drained {
            idle_sweeps = 0;
            continue;
        }
        if stopping {
            return;
        }
        idle_sweeps += 1;
        if idle_sweeps < 256 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let shared = Arc::clone(&self.shared);
        let registry = Arc::clone(registry);
        let readers = std::mem::take(&mut *self.readers.lock());
        let handle = std::thread::Builder::new()
            .name("beatnik-tcp-link".into())
            .spawn(move || run_event_loop(shared, registry, readers))
            .expect("spawning the tcp link thread");
        *self.event_loop.lock() = Some(handle);
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire (and never count as
            // chaos frames, matching every other backend).
            registry.mailbox(route.comm, route.dst_local).push(env);
            return;
        }
        let link = self
            .shared
            .links
            .get(&(route.src_world, route.dst_world))
            .unwrap_or_else(|| {
                panic!("no tcp link for {} -> {}", route.src_world, route.dst_world)
            });
        let mut frame = wire::encode_data_after(MSG_HEADROOM, route.comm, route.dst_local, &env);
        seal_msg(&mut frame);
        // Chaos counts exactly the first transmission of each data
        // frame; retransmits, heartbeats, and handshakes are invisible
        // to it, which keeps the ledger identical across backends.
        let fate = match &self.shared.chaos {
            Some(chaos) => chaos.on_frame(route.src_world, route.dst_world),
            None => super::chaos::FrameFate {
                deliver: true,
                corrupt: false,
                duplicate: false,
                delay: None,
                partitioned: false,
            },
        };
        if let Some(d) = fate.delay {
            std::thread::sleep(d);
        }
        let mut tx = link.tx.lock();
        if tx.down {
            // The ledger already names this peer; senders above us get
            // their error from the collective layer, not a panic here.
            return;
        }
        let now = Instant::now();
        link.absorb_acks(&mut tx, now);
        tx.push(frame);
        if fate.partitioned {
            // Sever the pair now; the frame stays in the window and
            // replays after the reconnect.
            link.tear(&mut tx, now);
            return;
        }
        let Tx { stream, window, .. } = &mut *tx;
        let Some(stream) = stream.as_mut().filter(|_| fate.deliver) else {
            // Dropped on the wire (or already torn): the window plus
            // the go-back-N timer will deliver it eventually.
            return;
        };
        let frame = &window.back().expect("just pushed").1;
        let result = if fate.corrupt {
            write_frame(stream, &corrupt_copy(&frame[4..]))
        } else if fate.duplicate {
            write_all(stream, frame).and_then(|()| write_all(stream, frame))
        } else {
            write_all(stream, frame)
        };
        if result.is_err() {
            // The socket died mid-write: tear and let the reconnect
            // path (backed by the window) heal or declare the peer
            // dead. No panic, no immediate failure mark.
            link.tear(&mut tx, now);
        }
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only per-process mode (one
        // local rank) needs to broadcast.
        if self.shared.local.len() != 1 {
            return;
        }
        let mut frame = vec![0u8; MSG_HEADROOM];
        frame.extend_from_slice(&wire::encode_ctrl(ctrl));
        seal_msg(&mut frame);
        for link in self.shared.links.values() {
            let mut tx = link.tx.lock();
            if tx.down {
                continue;
            }
            tx.push(frame.clone());
            let Tx { stream, window, .. } = &mut *tx;
            if let Some(stream) = stream.as_mut() {
                let frame = &window.back().expect("just pushed").1;
                if write_all(stream, frame).is_err() {
                    link.tear(&mut tx, Instant::now());
                }
            }
        }
    }

    fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.event_loop.lock().take() {
            let _ = handle.join();
        }
    }

    fn link_stats(&self) -> LinkStats {
        let s = &self.shared.stats;
        LinkStats {
            reconnects: s.reconnects.load(Ordering::Relaxed),
            heartbeat_misses: s.heartbeat_misses.load(Ordering::Relaxed),
            replayed_frames: s.replayed_frames.load(Ordering::Relaxed),
            last_reconnect_ns: s.last_reconnect_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::registry::WORLD_COMM_ID;
    use crate::transport::Route;

    /// Aggressive timing so tear/reconnect cycles finish in test time.
    fn fast_config() -> CommConfig {
        CommConfig {
            heartbeat_period: Duration::from_millis(25),
            heartbeat_misses: 4,
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(5),
            ..CommConfig::default()
        }
    }

    fn route(src: usize, dst: usize) -> Route {
        Route {
            comm: WORLD_COMM_ID,
            dst_local: dst,
            src_world: src,
            dst_world: dst,
        }
    }

    fn recv_u64(registry: &Registry, rank: usize, tag: u64) -> Vec<u64> {
        registry
            .mailbox(WORLD_COMM_ID, rank)
            .recv_matching_timeout(rank, usize::MAX, tag, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("rank {rank} waiting for tag {tag}: {e}"))
            .into_data::<u64>()
    }

    /// The unprefixed MSG frame the send path seals around `inner`.
    fn encode_msg(seq: u64, inner: &[u8]) -> Vec<u8> {
        let mut frame = vec![0u8; MSG_HEADROOM];
        frame.extend_from_slice(inner);
        seal_msg(&mut frame);
        frame[5..13].copy_from_slice(&seq.to_le_bytes());
        frame.split_off(4)
    }

    /// Bit-at-a-time CRC-32 straight from the polynomial: an oracle
    /// that shares no code with the table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn dispatched_crc32_matches_the_byte_table() {
        let data = noise(262_144 + 67 + 2);
        let lengths = (0..300).chain([4095, 4096, 65_536, 262_144 + 67]);
        for len in lengths {
            for off in 0..3 {
                let bytes = &data[off..off + len];
                assert_eq!(crc32(bytes), crc32_bytes(bytes), "len {len} offset {off}");
            }
        }
    }

    #[test]
    fn byte_table_fallback_matches_the_polynomial() {
        assert_eq!(crc32_bytes(b"123456789"), 0xCBF4_3926);
        let data = noise(1000);
        for len in [0, 1, 15, 16, 63, 64, 65, 999] {
            assert_eq!(crc32_bytes(&data[..len]), crc32_bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sealed_frames_carry_length_tag_seq_and_crc() {
        let inner = noise(100);
        let mut frame = vec![0u8; MSG_HEADROOM];
        frame.extend_from_slice(&inner);
        seal_msg(&mut frame);
        assert_eq!(u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize, 13 + inner.len());
        assert_eq!(frame[4], TAG_MSG);
        assert_eq!(frame[13..17], crc32(&inner).to_le_bytes());
        assert_eq!(frame[17..], inner[..]);
        let hb = encode_hb(0x0102);
        assert_eq!(hb[..5], [9, 0, 0, 0, TAG_HB]);
        assert_eq!(u64::from_le_bytes(hb[5..].try_into().unwrap()), 0x0102);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let msg = encode_msg(7, b"payload-bytes");
        let mangled = corrupt_copy(&msg);
        assert_ne!(msg, mangled);
        // Header (tag, seq, crc) intact; inner bytes no longer match it.
        assert_eq!(msg[..13], mangled[..13]);
        let sum = u32::from_le_bytes(mangled[9..13].try_into().unwrap());
        assert_ne!(crc32(&mangled[13..]), sum);
    }

    #[test]
    fn recon_frames_roundtrip() {
        let frame = encode_recon(3, 1, 0xABCD);
        assert_eq!(decode_recon(&frame).unwrap(), (3, 1, 0xABCD));
        assert!(decode_recon(&frame[..24]).is_err());
        assert!(decode_recon(&encode_hb(9)).is_err());
    }

    #[test]
    fn loopback_builds_a_full_mesh_with_dial_addresses_on_the_high_end() {
        let t = TcpTransport::loopback(4, &CommConfig::default(), None).unwrap();
        assert_eq!(t.shared.links.len(), 12);
        for ((owner, peer), link) in &t.shared.links {
            assert_eq!(link.owner, *owner);
            assert_eq!(link.peer, *peer);
            // Reconnect dial rule matches rendezvous: higher rank dials.
            assert_eq!(link.dial_addr.is_some(), owner > peer);
            assert!(link.tx.lock().stream.is_some());
        }
        assert!(t.shared.listener.is_some());
        t.shutdown();
    }

    #[test]
    fn frames_cross_a_socket_and_land_in_the_mailbox() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &CommConfig::default(), None).unwrap();
        t.attach(&registry);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![1u64, 2, 3]));
        assert_eq!(recv_u64(&registry, 1, 7), vec![1, 2, 3]);
        // Self-sends bypass the wire entirely.
        t.deliver(&registry, route(1, 1), Envelope::new(1, 8, vec![9u64]));
        assert_eq!(recv_u64(&registry, 1, 8), vec![9]);
        t.shutdown();
    }

    /// Messages pushed through a lossy link all arrive, in order, with
    /// no application-level help: CRC + seq + go-back-N do the healing.
    fn chaos_run(spec: &str) -> (Vec<Vec<u64>>, LinkStats) {
        let plan = FaultPlan::parse(spec, 0xC0FFEE).unwrap();
        let chaos = LinkChaos::from_plan(&plan).expect("plan has link actions");
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &fast_config(), Some(chaos)).unwrap();
        t.attach(&registry);
        let mut got = Vec::new();
        for i in 0..8u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, 40 + i, vec![i, i * i]));
        }
        for i in 0..8u64 {
            got.push(recv_u64(&registry, 1, 40 + i));
        }
        let stats = t.link_stats();
        t.shutdown();
        (got, stats)
    }

    #[test]
    fn dropped_frames_are_replayed_by_the_ack_timer() {
        let (got, _) = chaos_run("drop:r0>r1@link2,drop:r0>r1@link5");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn corrupted_frames_fail_crc_and_are_replayed() {
        let (got, _) = chaos_run("corrupt:r0>r1@link1,corrupt:r0>r1@link7");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn duplicated_frames_are_deduplicated_by_sequence() {
        let (got, _) = chaos_run("dup:r0>r1@link1,dup:r0>r1@link4");
        assert_eq!(got.len(), 8);
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn a_partition_tears_the_link_and_reconnect_replays_the_window() {
        let (got, stats) = chaos_run("partition:r0>r1@link3:100ms");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
        assert!(
            stats.reconnects >= 1,
            "healing a partition must reconnect: {stats:?}"
        );
        assert!(stats.last_reconnect_ns > 0);
    }

    #[test]
    fn muted_heartbeats_drive_suspect_then_reconnect() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &fast_config(), None).unwrap();
        // Rank 1 stops heartbeating; rank 0's inbound link goes silent,
        // suspects, tears, and the pair re-establishes.
        t.shared.links[&(1, 0)].mute.store(true, Ordering::Release);
        t.attach(&registry);
        let deadline = Instant::now() + Duration::from_secs(10);
        while t.link_stats().reconnects == 0 {
            assert!(
                Instant::now() < deadline,
                "no reconnect after heartbeat silence: {:?}",
                t.link_stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(t.link_stats().heartbeat_misses >= fast_config().heartbeat_misses as u64);
        // The healed link still carries traffic.
        t.deliver(&registry, route(0, 1), Envelope::new(0, 3, vec![42u64]));
        assert_eq!(recv_u64(&registry, 1, 3), vec![42]);
        t.shutdown();
    }

    /// Heartbeats ten seconds apart: only prompt acks can move windows.
    fn slow_heartbeat_config() -> CommConfig {
        CommConfig {
            heartbeat_period: Duration::from_secs(10),
            ..CommConfig::default()
        }
    }

    fn window_len(t: &TcpTransport, owner: usize, peer: usize) -> usize {
        t.shared.links[&(owner, peer)].tx.lock().window.len()
    }

    fn await_empty_windows(t: &TcpTransport, within: Duration) {
        let deadline = Instant::now() + within;
        loop {
            let lens: Vec<usize> = [(0, 1), (1, 0)].iter().map(|&(o, p)| window_len(t, o, p)).collect();
            if lens.iter().all(|&n| n == 0) {
                return;
            }
            assert!(Instant::now() < deadline, "windows still hold {lens:?} frames after {within:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn prompt_acks_drain_every_window_between_heartbeats() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &slow_heartbeat_config(), None).unwrap();
        t.attach(&registry);
        let block = vec![7u64; 256 * 1024 / 8];
        for i in 0..32u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, 100 + i, block.clone()));
            t.deliver(&registry, route(1, 0), Envelope::new(1, 100 + i, block.clone()));
        }
        await_empty_windows(&t, Duration::from_secs(1));
        for i in 0..32u64 {
            assert_eq!(recv_u64(&registry, 1, 100 + i), block);
            assert_eq!(recv_u64(&registry, 0, 100 + i), block);
        }
        t.shutdown();
    }

    #[test]
    fn a_muted_link_sends_no_prompt_acks() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &slow_heartbeat_config(), None).unwrap();
        t.shared.links[&(1, 0)].mute.store(true, Ordering::Release);
        t.attach(&registry);
        let heard = t.shared.links[&(0, 1)].last_heard_ns.load(Ordering::Relaxed);
        for i in 0..4u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, 60 + i, vec![i]));
        }
        for i in 0..4u64 {
            assert_eq!(recv_u64(&registry, 1, 60 + i), vec![i]);
        }
        std::thread::sleep(Duration::from_millis(200));
        // Rank 1 delivered everything but, muted, told rank 0 nothing:
        // rank 0 still hears silence and still holds the whole window.
        assert_eq!(window_len(&t, 0, 1), 4);
        assert_eq!(t.shared.links[&(0, 1)].last_heard_ns.load(Ordering::Relaxed), heard);
        t.shutdown();
    }

    #[test]
    fn the_receive_path_never_waits_for_the_tx_lock() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &slow_heartbeat_config(), None).unwrap();
        t.attach(&registry);
        // Hold rank 1's tx lock, as a rank thread stuck in a write on a
        // full socket would: frames toward rank 1 must still land.
        let held = t.shared.links[&(1, 0)].tx.lock();
        for i in 0..4u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, 80 + i, vec![i]));
        }
        for i in 0..4u64 {
            assert_eq!(recv_u64(&registry, 1, 80 + i), vec![i]);
        }
        // The ack needs that lock, so it waits; it goes out once free.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(window_len(&t, 0, 1), 4);
        drop(held);
        await_empty_windows(&t, Duration::from_secs(1));
        t.shutdown();
    }

    /// Two transports in one process over real sockets, as two
    /// single-rank "processes" would hold them: killing one end without
    /// a goodbye must mark the peer failed on the survivor — the
    /// detection path that keeps a real peer death from hanging ULFM.
    #[test]
    fn abrupt_peer_death_exhausts_reconnect_and_marks_the_rank_failed() {
        let config = fast_config();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let child_cfg = config.clone();
        let child = std::thread::spawn(move || {
            TcpTransport::child(&addr, 1, 2, &child_cfg, None).unwrap()
        });
        let parent = Arc::new(TcpTransport::parent(listener, 2, &config, None).unwrap());
        let child_t = child.join().unwrap();
        let parent_reg = Arc::new(Registry::new());
        parent.attach(&parent_reg);
        // Install the transport the way a real world does, so the
        // failure broadcast (`mark_failed` → `publish_ctrl`) re-enters
        // this transport's tx locks from the event-loop thread — the
        // re-entrancy that once self-deadlocked `declare_down`.
        parent_reg.install_transport(Arc::clone(&parent) as Arc<dyn Transport>);
        // Sever the child's sockets abruptly: no Bye, no live listener.
        {
            let link = &child_t.shared.links[&(1, 0)];
            let mut tx = link.tx.lock();
            if let Some(s) = tx.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        drop(child_t); // closes the child's listener too
        let deadline = Instant::now() + Duration::from_secs(20);
        while !parent_reg.is_failed(1) {
            assert!(
                Instant::now() < deadline,
                "survivor never declared the dead peer failed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let downs = parent_reg.link_downs();
        assert!(
            matches!(downs.first(), Some(CommError::LinkDown { peer: 1, .. })),
            "typed cause missing: {downs:?}"
        );
        parent.shutdown();
    }
}
