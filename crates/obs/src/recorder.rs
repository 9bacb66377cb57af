//! Always-on flight recorder: a bounded ring of compact event records.
//!
//! The recorder is the postmortem counterpart of the tracer. Where the
//! tracer serializes every event into a (large) Perfetto document and is
//! therefore opt-in, the flight recorder keeps only the *last*
//! [`FlightRecorder::capacity`] events as fixed-size binary records — cheap
//! enough to leave armed on every run — and renders them to JSON only when
//! something goes wrong: a watchdog trip, a failed coherence audit, or a
//! fault-injection anomaly. Because the simulator is deterministic, the
//! dump is too: the same seed and fault plan reproduce the same ring,
//! byte for byte, so a postmortem from production is replayable locally.
//!
//! Records deliberately capture the *coherence* narrative (message sends,
//! switch sinks, deliveries, SD outcomes, NAKs and read milestones), not
//! per-cycle resource telemetry: the question a dump answers is "what were
//! the last N protocol steps before the wreck", not "what was the load".

use crate::{Probe, SdProbeEvent, ServicePoint, SwitchLoc};
use dresar_stats::ReadClass;
use dresar_types::msg::{Endpoint, Message, MsgType};
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, ToJson};

/// Default ring capacity: enough to cover several thousand protocol steps
/// leading up to an anomaly while keeping the ring under ~256 KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What a record describes. The discriminant is the wire/JSON code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum RecordKind {
    MsgSend = 0,
    MsgSink = 1,
    MsgDeliver = 2,
    SdEvent = 3,
    Nak = 4,
    ReadIssue = 5,
    ReadRetry = 6,
    ReadServiceArrive = 7,
    ReadServiceDone = 8,
    ReadComplete = 9,
}

impl RecordKind {
    fn label(self) -> &'static str {
        match self {
            RecordKind::MsgSend => "send",
            RecordKind::MsgSink => "sink",
            RecordKind::MsgDeliver => "deliver",
            RecordKind::SdEvent => "sd",
            RecordKind::Nak => "nak",
            RecordKind::ReadIssue => "issue",
            RecordKind::ReadRetry => "retry",
            RecordKind::ReadServiceArrive => "svc_arrive",
            RecordKind::ReadServiceDone => "svc_done",
            RecordKind::ReadComplete => "complete",
        }
    }
}

/// One fixed-size ring record. `loc` encodes an [`Endpoint`] or switch
/// (see [`encode_endpoint`]); `aux` is kind-specific detail (message id,
/// SD outcome code, latency, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    t: Cycle,
    kind: RecordKind,
    loc: u64,
    block: u64,
    txn: u64,
    aux: u64,
}

/// Packs an endpoint into one word: tag in bits 32.. (0 = proc, 1 = mem,
/// 2 = switch), payload below.
fn encode_endpoint(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Proc(n) => u64::from(n),
        Endpoint::Mem(n) => (1 << 32) | u64::from(n),
        Endpoint::Switch { stage, index } => {
            (2 << 32) | (u64::from(stage) << 16) | u64::from(index)
        }
    }
}

fn encode_switch(sw: SwitchLoc) -> u64 {
    encode_endpoint(Endpoint::Switch { stage: sw.stage, index: sw.index })
}

/// Stable small code for a message type (Table 1 order first).
fn msg_code(kind: MsgType) -> u64 {
    match kind {
        MsgType::ReadRequest => 0,
        MsgType::WriteRequest => 1,
        MsgType::WriteReply => 2,
        MsgType::CtoCRequest => 3,
        MsgType::CopyBack => 4,
        MsgType::WriteBack => 5,
        MsgType::Retry => 6,
        MsgType::ReadReply => 7,
        MsgType::CtoCData => 8,
        MsgType::Invalidate => 9,
        MsgType::InvalAck => 10,
        MsgType::WriteBackAck => 11,
    }
}

/// Stable small code for an SD snoop outcome.
fn sd_code(ev: SdProbeEvent) -> u64 {
    match ev {
        SdProbeEvent::Insert => 0,
        SdProbeEvent::InsertBlocked => 1,
        SdProbeEvent::Evict => 2,
        SdProbeEvent::ReadHit { .. } => 3,
        SdProbeEvent::TransientNak { .. } => 4,
        SdProbeEvent::ReaderAccumulated { .. } => 5,
        SdProbeEvent::Invalidate => 6,
        SdProbeEvent::WriteNak { .. } => 7,
        SdProbeEvent::CopybackMarked { .. } => 8,
        SdProbeEvent::WritebackServed { .. } => 9,
    }
}

/// The fourth observer: a bounded ring buffer of [`Record`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<Record>,
    capacity: usize,
    /// Index the next record overwrites once the ring is full.
    head: usize,
    /// Records ever pushed (so a dump reports how many were dropped).
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder { ring: Vec::with_capacity(capacity), capacity, head: 0, total: 0 }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn push(&mut self, r: Record) {
        self.total += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(r);
        } else {
            self.ring[self.head] = r;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Finalizes into a dump with records in oldest-first order.
    pub fn finish(self) -> FlightDump {
        let FlightRecorder { mut ring, capacity, head, total } = self;
        ring.rotate_left(head);
        FlightDump { capacity, total, records: ring }
    }
}

impl Probe for FlightRecorder {
    #[inline]
    fn msg_send(&mut self, t: Cycle, msg: &Message) {
        self.push(Record {
            t,
            kind: RecordKind::MsgSend,
            loc: encode_endpoint(msg.src),
            block: msg.block.0,
            txn: msg.txn,
            aux: msg_code(msg.kind),
        });
    }

    #[inline]
    fn msg_sink(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        self.push(Record {
            t,
            kind: RecordKind::MsgSink,
            loc: encode_switch(sw),
            block: msg.block.0,
            txn: msg.txn,
            aux: msg_code(msg.kind),
        });
    }

    #[inline]
    fn msg_deliver(&mut self, t: Cycle, msg: &Message) {
        self.push(Record {
            t,
            kind: RecordKind::MsgDeliver,
            loc: encode_endpoint(msg.dst),
            block: msg.block.0,
            txn: msg.txn,
            aux: msg_code(msg.kind),
        });
    }

    #[inline]
    fn sd_event(&mut self, t: Cycle, sw: SwitchLoc, block: BlockAddr, ev: SdProbeEvent) {
        self.push(Record {
            t,
            kind: RecordKind::SdEvent,
            loc: encode_switch(sw),
            block: block.0,
            txn: 0,
            aux: sd_code(ev),
        });
    }

    #[inline]
    fn nak_received(&mut self, t: Cycle, node: NodeId, block: BlockAddr) {
        self.push(Record {
            t,
            kind: RecordKind::Nak,
            loc: u64::from(node),
            block: block.0,
            txn: 0,
            aux: 0,
        });
    }

    #[inline]
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, txn: u64) {
        self.push(Record {
            t: t0,
            kind: RecordKind::ReadIssue,
            loc: u64::from(node),
            block: block.0,
            txn,
            aux: inject,
        });
    }

    #[inline]
    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        self.push(Record {
            t,
            kind: RecordKind::ReadRetry,
            loc: u64::from(node),
            block: block.0,
            txn,
            aux: 0,
        });
    }

    #[inline]
    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        txn: u64,
    ) {
        let loc = match at {
            ServicePoint::Home(h) => (1 << 32) | u64::from(h),
            ServicePoint::Switch(sw) => encode_switch(sw),
        };
        self.push(Record {
            t,
            kind: RecordKind::ReadServiceArrive,
            loc,
            block: block.0,
            txn,
            aux: u64::from(node),
        });
    }

    #[inline]
    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        self.push(Record {
            t,
            kind: RecordKind::ReadServiceDone,
            loc: u64::from(node),
            block: block.0,
            txn,
            aux: 0,
        });
    }

    #[inline]
    fn read_complete(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        class: ReadClass,
        latency: Cycle,
        t: Cycle,
        txn: u64,
    ) {
        self.push(Record {
            t,
            kind: RecordKind::ReadComplete,
            loc: u64::from(node),
            block: block.0,
            txn,
            aux: (latency << 2) | crate::class_index(class) as u64,
        });
    }
}

/// A finalized flight-recorder dump: the last `records.len()` of `total`
/// recorded events, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Events recorded over the whole run (>= records kept).
    pub total: u64,
    records: Vec<Record>,
}

impl FlightDump {
    /// Number of records retained in the dump.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dump holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl ToJson for FlightDump {
    fn to_json(&self) -> JsonValue {
        // Each record serializes as a compact fixed-shape array:
        // [t, kind, loc, block, txn, aux].
        let records: Vec<JsonValue> = self
            .records
            .iter()
            .map(|r| {
                JsonValue::Arr(vec![
                    r.t.to_json(),
                    JsonValue::Str(r.kind.label().to_string()),
                    r.loc.to_json(),
                    r.block.to_json(),
                    r.txn.to_json(),
                    r.aux.to_json(),
                ])
            })
            .collect();
        JsonValue::obj()
            .field("capacity", self.capacity as u64)
            .field("total", self.total)
            .field("dropped", self.total - self.records.len() as u64)
            .field("records", records)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(r: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            r.read_issue((i % 16) as NodeId, BlockAddr(i), i * 10, i * 10 + 3, i + 1);
        }
    }

    #[test]
    fn ring_keeps_the_newest_records_after_wraparound() {
        let mut r = FlightRecorder::new(8);
        feed(&mut r, 20);
        let dump = r.finish();
        assert_eq!(dump.len(), 8);
        assert_eq!(dump.total, 20);
        // Oldest-first: records 12..20 survive (txn 13..=20).
        let txns: Vec<u64> = dump.records.iter().map(|rec| rec.txn).collect();
        assert_eq!(txns, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn dump_before_wraparound_keeps_everything_in_order() {
        let mut r = FlightRecorder::new(64);
        feed(&mut r, 5);
        let dump = r.finish();
        assert_eq!(dump.len(), 5);
        assert_eq!(dump.total, 5);
        assert_eq!(dump.to_json().get("dropped").and_then(JsonValue::as_u64), Some(0));
        let txns: Vec<u64> = dump.records.iter().map(|rec| rec.txn).collect();
        assert_eq!(txns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn identical_event_streams_dump_byte_identically() {
        let run = || {
            let mut r = FlightRecorder::new(16);
            feed(&mut r, 40);
            r.sd_event(
                7,
                SwitchLoc { stage: 1, index: 2, linear: 6 },
                BlockAddr(9),
                SdProbeEvent::Insert,
            );
            r.nak_received(11, 3, BlockAddr(5));
            r.finish().to_json().dump()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        feed(&mut r, 3);
        let dump = r.finish();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump.total, 3);
    }

    #[test]
    fn dump_json_has_fixed_shape_records() {
        let mut r = FlightRecorder::new(4);
        r.msg_send(
            5,
            &dresar_types::msg::Message::new(
                1,
                MsgType::ReadRequest,
                BlockAddr(2),
                Endpoint::Proc(0),
                Endpoint::Mem(3),
                0,
                5,
            )
            .with_txn(42),
        );
        let dump = r.finish();
        let json = dump.to_json();
        let recs = json.get("records").and_then(JsonValue::as_arr).expect("records array");
        assert_eq!(recs.len(), 1);
        let rec = recs[0].as_arr().expect("record is an array");
        assert_eq!(rec.len(), 6);
        assert_eq!(rec[1].as_str(), Some("send"));
        assert_eq!(rec[4].as_u64(), Some(42));
    }
}
