//! A bounded lock-free trace of typed events.
//!
//! [`TraceRing`] answers "what just happened" for a live daemon: a
//! fixed-capacity ring of [`TraceEvent`] slots with drop-oldest
//! semantics. Writers claim a slot with one `fetch_add`, stamp it with
//! a seqlock-style sequence (odd while writing, even when published)
//! and store the event as four relaxed atomic words — no lock, no
//! allocation, no torn reads. Readers ([`TraceRing::snapshot_into`])
//! skip any slot whose stamp says a writer is mid-flight or has lapped
//! it, so a snapshot only ever contains fully published events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic clock epoch: timestamps are nanoseconds
/// since the first call, so every subsystem's events sort on one axis.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What kind of thing happened. The `a`/`b` payload fields of the
/// carrying [`TraceEvent`] are kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A client connection was accepted (`a` = active connections).
    ConnOpen,
    /// A client connection ended (`a` = requests served on it).
    ConnClose,
    /// A request exceeded the configured slow threshold (`a` = request
    /// kind tag, `b` = latency in nanoseconds).
    SlowRequest,
    /// A connection was rejected at the connection cap (`a` = cap).
    BusyRejected,
    /// A connection died to a framing violation (`a` = running
    /// protocol-error count).
    ProtocolError,
    /// A lazy-CRC first touch found damaged payload bytes (`a` = entry
    /// index).
    CrcFail,
    /// The hot set evicted an entry to admit another (`a` = shard
    /// index, `b` = hot entries resident after the eviction).
    HotEviction,
    /// A recalibrated waveform was published over a live gate (`a` =
    /// new generation stamp).
    RecalibrationPublish,
}

impl TraceKind {
    /// The on-wire tag.
    pub fn tag(self) -> u8 {
        match self {
            TraceKind::ConnOpen => 1,
            TraceKind::ConnClose => 2,
            TraceKind::SlowRequest => 3,
            TraceKind::BusyRejected => 4,
            TraceKind::ProtocolError => 5,
            TraceKind::CrcFail => 6,
            TraceKind::HotEviction => 7,
            TraceKind::RecalibrationPublish => 8,
        }
    }

    /// Decodes an on-wire tag.
    pub fn from_tag(tag: u8) -> Option<TraceKind> {
        match tag {
            1 => Some(TraceKind::ConnOpen),
            2 => Some(TraceKind::ConnClose),
            3 => Some(TraceKind::SlowRequest),
            4 => Some(TraceKind::BusyRejected),
            5 => Some(TraceKind::ProtocolError),
            6 => Some(TraceKind::CrcFail),
            7 => Some(TraceKind::HotEviction),
            8 => Some(TraceKind::RecalibrationPublish),
            _ => None,
        }
    }

    /// A stable snake_case name (used by the text exposition).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::ConnOpen => "conn_open",
            TraceKind::ConnClose => "conn_close",
            TraceKind::SlowRequest => "slow_request",
            TraceKind::BusyRejected => "busy_rejected",
            TraceKind::ProtocolError => "protocol_error",
            TraceKind::CrcFail => "crc_fail",
            TraceKind::HotEviction => "hot_eviction",
            TraceKind::RecalibrationPublish => "recalibration_publish",
        }
    }
}

/// One published trace event. Plain `Copy` data: two kind-specific
/// payload words and a [`now_ns`] timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// First kind-specific payload word (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload word (see [`TraceKind`]).
    pub b: u64,
    /// Nanoseconds since the process trace epoch ([`now_ns`]).
    pub t_ns: u64,
}

/// One ring slot. The event payload is stored as four separate relaxed
/// atomics (not an `UnsafeCell`), so a racing reader's loads are
/// well-defined; the `seq` stamp decides whether what it read was a
/// fully published event.
struct Slot {
    /// Seqlock stamp: `0` = never written; `2k+1` = claim `k` being
    /// written; `2k+2` = claim `k` published.
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    t_ns: AtomicU64,
}

/// The bounded lock-free event ring. See the [module docs](self).
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Next global claim index; slot = claim & mask.
    head: AtomicU64,
    /// Events abandoned because another writer held their slot: one
    /// still mid-publish when the ring lapped it, or a later lap that
    /// got there first (never blocks the writer).
    dropped: AtomicU64,
    mask: u64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// A ring holding the most recent `capacity` events (rounded up to
    /// a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
                t_ns: AtomicU64::new(0),
            })
            .collect();
        TraceRing {
            slots,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Slot count (events retained before drop-oldest kicks in).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events abandoned because another writer held their slot (see
    /// [`TraceRing::push_event`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records an event stamped with [`now_ns`]. Lock-free and
    /// allocation-free; the oldest retained event is overwritten.
    #[inline]
    pub fn push(&self, kind: TraceKind, a: u64, b: u64) {
        self.push_event(TraceEvent { kind, a, b, t_ns: now_ns() });
    }

    /// Records a fully specified event (caller supplies the
    /// timestamp). Same cost model as [`TraceRing::push`].
    pub fn push_event(&self, event: TraceEvent) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim & self.mask) as usize];
        // Take the slot from any published (even) stamp older than ours,
        // not only the previous lap's: a lap whose writer dropped never
        // published, and waiting for its stamp would lock the slot out
        // for good. An odd stamp means a writer is still mid-publish, a
        // newer one means a later lap got here first; either way, drop
        // this event rather than block or tear theirs.
        let mine = 2 * claim + 1;
        let mut seen = slot.seq.load(Ordering::Relaxed);
        loop {
            if seen % 2 == 1 || seen > mine {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match slot.seq.compare_exchange_weak(seen, mine, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        slot.kind.store(u64::from(event.kind.tag()), Ordering::Relaxed);
        slot.a.store(event.a, Ordering::Relaxed);
        slot.b.store(event.b, Ordering::Relaxed);
        slot.t_ns.store(event.t_ns, Ordering::Relaxed);
        slot.seq.store(2 * claim + 2, Ordering::Release);
    }

    /// Appends the currently published events to `out`, oldest first.
    /// Slots a writer is racing on (or has lapped past) are skipped, so
    /// every returned event is internally consistent. Cold path; `out`
    /// may grow.
    pub fn snapshot_into(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for claim in start..head {
            let slot = &self.slots[(claim & self.mask) as usize];
            let want = 2 * claim + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let event = TraceEvent {
                kind: match TraceKind::from_tag(slot.kind.load(Ordering::Relaxed) as u8) {
                    Some(kind) => kind,
                    None => continue, // torn by a racing lap; stamp check below also fails
                },
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
            };
            // Seqlock read validation: if the stamp moved while we
            // copied, a writer lapped us — discard the copy.
            if slot.seq.load(Ordering::Acquire) == want {
                out.push(event);
            }
        }
    }

    /// The currently published events, oldest first (cold path).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.snapshot_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_newest_events_and_drops_the_oldest() {
        let ring = TraceRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for k in 0..10u64 {
            ring.push(TraceKind::SlowRequest, k, 2 * k);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4, "ring keeps exactly its capacity");
        let got: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "drop-oldest keeps the newest claims in order");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0, "single-threaded pushes never collide");
    }

    #[test]
    fn every_kind_round_trips_its_tag() {
        for kind in [
            TraceKind::ConnOpen,
            TraceKind::ConnClose,
            TraceKind::SlowRequest,
            TraceKind::BusyRejected,
            TraceKind::ProtocolError,
            TraceKind::CrcFail,
            TraceKind::HotEviction,
            TraceKind::RecalibrationPublish,
        ] {
            assert_eq!(TraceKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(TraceKind::from_tag(0), None);
        assert_eq!(TraceKind::from_tag(99), None);
    }

    #[test]
    fn timestamps_are_monotone() {
        let ring = TraceRing::new(8);
        ring.push(TraceKind::ConnOpen, 1, 0);
        ring.push(TraceKind::ConnClose, 1, 0);
        let events = ring.snapshot();
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn a_writer_caught_mid_publish_costs_exactly_one_event() {
        // Claim 0 stalls mid-publish on a 2-slot ring. The next lap's
        // writer of slot 0 must drop its event, but once claim 0
        // publishes, every later lap takes the slot again.
        let ring = TraceRing::new(2);
        let stalled = ring.head.fetch_add(1, Ordering::Relaxed);
        ring.slots[0].seq.store(2 * stalled + 1, Ordering::Relaxed);
        ring.push(TraceKind::SlowRequest, 1, 0);
        ring.push(TraceKind::SlowRequest, 2, 0);
        assert_eq!(ring.dropped(), 1, "claim 2 finds claim 0 mid-publish");
        ring.slots[0].seq.store(2 * stalled + 2, Ordering::Release);
        for k in 3..40 {
            ring.push(TraceKind::SlowRequest, k, 0);
        }
        assert_eq!(ring.recorded(), 40);
        assert_eq!(ring.dropped(), 1, "one stalled writer costs one event");
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.a).collect();
        assert_eq!(got, vec![38, 39], "both slots hold the newest laps");
    }

    #[test]
    fn concurrent_writers_never_tear_a_published_event() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for k in 0..2000u64 {
                        // Invariant each event carries: b == a * 3 + kind tag.
                        let a = t * 10_000 + k;
                        ring.push(TraceKind::HotEviction, a, a * 3 + 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = ring.snapshot();
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.kind, TraceKind::HotEviction);
            assert_eq!(e.b, e.a * 3 + 7, "published event must never mix two writers' words");
        }
        assert_eq!(ring.recorded(), 8000);
        assert!(events.len() <= ring.capacity());
    }
}
