//! The switch directory device (DRESAR, paper §3.2–§4.3).
//!
//! Each crossbar switch embeds one [`SwitchDirectory`]: a small set-
//! associative SRAM array of ownership entries with three states —
//! **MODIFIED** (the recorded owner holds the block dirty), **TRANSIENT**
//! (this switch sank a read and a cache-to-cache transfer is in flight) and
//! **INVALID** (absent). [`SwitchDirectory::snoop`] implements the protocol
//! FSM of the paper's Figure 4 for the seven Table 1 message types and
//! returns what the switch should do with the message (forward, sink, or
//! sink-and-generate).
//!
//! Module layout:
//! * [`array`] — the entry array with TRANSIENT-pinned LRU replacement and
//!   the pending-buffer capacity bound of §4.3.
//! * the FSM itself lives on [`SwitchDirectory`] in this module;
//! * [`ports`] — the multiported-SRAM cycle-budget scheduler of §4.2
//!   ("four incoming requests need switch directory processing within four
//!   cycles").

pub mod array;
pub mod ports;

use dresar_obs::{NullProbe, Probe, SdProbeEvent, SwitchLoc};
use dresar_types::config::SwitchDirConfig;
use dresar_types::msg::{Message, MsgType};
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, ToJson};

pub use array::{SdEntryView, SdState};
pub use ports::PortScheduler;

/// Policy for a `ReadRequest` that hits a TRANSIENT entry (paper §3.2
/// discusses both alternatives; the paper *chose* `Retry` "because
/// communication intensive blocks have very few sharers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransientReadPolicy {
    /// Sink the read and NAK the requester (the paper's choice).
    #[default]
    Retry,
    /// Sink the read and remember the requester in the entry's bit vector;
    /// it is served with data when the owner's copyback/writeback passes
    /// (the paper's rejected-for-complexity alternative — kept as an
    /// ablation).
    Accumulate,
}

/// A message the switch directory asks the switch to emit (the "CtoC &
/// Reply Unit" of Figure 6). Routes are computed by the caller, which knows
/// the switch's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMsg {
    /// Send a cache-to-cache transfer request down to the owner.
    CtoCRequest {
        /// Owner cache to interrogate.
        owner: NodeId,
        /// Processor the data should go to.
        requester: NodeId,
    },
    /// NAK a requester (it retries after backoff).
    Retry {
        /// Destination processor.
        to: NodeId,
    },
    /// Reply with data captured from a passing writeback/copyback.
    DataReply {
        /// Destination processor.
        to: NodeId,
    },
}

/// What the switch should do with the snooped message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnoopAction {
    /// Forward unchanged (possibly after in-place marking).
    Forward,
    /// Consume the message.
    Sink,
    /// Consume the message and emit the generated messages.
    SinkSend(Vec<GenMsg>),
    /// Forward the (marked) message and also emit generated messages
    /// (writeback passing a TRANSIENT entry: data replies to waiters plus
    /// the marked writeback continuing to the home).
    ForwardSend(Vec<GenMsg>),
}

/// Counters per switch directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdStats {
    /// Entries installed by passing write replies.
    pub inserts: u64,
    /// Installs skipped because every way of the set was pinned TRANSIENT
    /// or the pending buffer was full.
    pub inserts_blocked: u64,
    /// Read hits that fell through to the home path because the §4.3
    /// pending buffer was full. Dedicated (not folded into
    /// `inserts_blocked`) so a full buffer is never a silent overflow:
    /// flow control backs off via the home path and this counter records
    /// every refusal.
    pub pending_refused: u64,
    /// Reads served (MODIFIED hit, CtoC request generated).
    pub read_hits: u64,
    /// Reads sunk+NAK'd on TRANSIENT entries.
    pub transient_retries: u64,
    /// Readers accumulated into TRANSIENT bit vectors (Accumulate policy).
    pub readers_accumulated: u64,
    /// Entries invalidated by writes/CtoC/writebacks passing through.
    pub invalidations: u64,
    /// Writes / foreign CtoC requests NAK'd on TRANSIENT entries.
    pub write_retries: u64,
    /// Copybacks marked with served-sharer pids.
    pub copybacks_marked: u64,
    /// Writebacks whose data answered waiting readers.
    pub writeback_replies: u64,
    /// Messages snooped in total.
    pub snoops: u64,
    /// Valid entries displaced by replacement (LRU victims of new inserts).
    pub evictions: u64,
    /// Replacement victims that were TRANSIENT — structurally zero while the
    /// TRANSIENT pin holds; a nonzero value flags a protocol bug, so the
    /// breakdown doubles as a telemetry cross-check.
    pub evictions_transient: u64,
    /// High-water mark of valid entries in the array.
    pub peak_occupancy: u64,
    /// High-water mark of TRANSIENT entries — the pending-buffer occupancy
    /// a sized §4.3 buffer would have needed.
    pub peak_transients: u64,
}

impl SdStats {
    /// Sums another instance's counters into this one (aggregation across
    /// switches). Peaks take the max: the merged value answers "how large
    /// would the busiest single switch's array/buffer have to be".
    pub fn merge(&mut self, other: &SdStats) {
        self.inserts += other.inserts;
        self.inserts_blocked += other.inserts_blocked;
        self.pending_refused += other.pending_refused;
        self.read_hits += other.read_hits;
        self.transient_retries += other.transient_retries;
        self.readers_accumulated += other.readers_accumulated;
        self.invalidations += other.invalidations;
        self.write_retries += other.write_retries;
        self.copybacks_marked += other.copybacks_marked;
        self.writeback_replies += other.writeback_replies;
        self.snoops += other.snoops;
        self.evictions += other.evictions;
        self.evictions_transient += other.evictions_transient;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
        self.peak_transients = self.peak_transients.max(other.peak_transients);
    }
}

impl ToJson for SdStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("inserts", self.inserts)
            .field("inserts_blocked", self.inserts_blocked)
            .field("pending_refused", self.pending_refused)
            .field("read_hits", self.read_hits)
            .field("transient_retries", self.transient_retries)
            .field("readers_accumulated", self.readers_accumulated)
            .field("invalidations", self.invalidations)
            .field("write_retries", self.write_retries)
            .field("copybacks_marked", self.copybacks_marked)
            .field("writeback_replies", self.writeback_replies)
            .field("snoops", self.snoops)
            .field("evictions", self.evictions)
            .field("evictions_transient", self.evictions_transient)
            .field("peak_occupancy", self.peak_occupancy)
            .field("peak_transients", self.peak_transients)
            .build()
    }
}

/// One switch's directory cache plus its protocol FSM.
#[derive(Debug, Clone)]
pub struct SwitchDirectory {
    array: array::SdArray,
    policy: TransientReadPolicy,
    stats: SdStats,
    /// Degraded mode (fault-injected whole-switch disable): no new entries
    /// are installed and no reads are served; existing TRANSIENT entries
    /// keep draining so in-flight transfers complete correctly.
    disabled: bool,
}

impl SwitchDirectory {
    /// Builds a directory from the configuration.
    pub fn new(cfg: SwitchDirConfig) -> Self {
        Self::with_policy(cfg, TransientReadPolicy::default())
    }

    /// Builds a directory with an explicit TRANSIENT-read policy.
    pub fn with_policy(cfg: SwitchDirConfig, policy: TransientReadPolicy) -> Self {
        SwitchDirectory {
            array: array::SdArray::new(cfg),
            policy,
            stats: SdStats::default(),
            disabled: false,
        }
    }

    /// Counters.
    pub fn stats(&self) -> SdStats {
        self.stats
    }

    /// Entry view for tests/diagnostics.
    pub fn peek(&self, block: BlockAddr) -> Option<SdEntryView> {
        self.array.peek(block)
    }

    /// Number of TRANSIENT entries currently held (pending-buffer load).
    pub fn transient_count(&self) -> usize {
        self.array.transient_count()
    }

    /// Snoops a message traversing this switch, applying the Figure 4 FSM.
    /// May mutate `msg` in place (attaching carried sharer pids to
    /// copybacks/writebacks). Message types outside Table 1 are forwarded
    /// untouched.
    pub fn snoop(&mut self, msg: &mut Message) -> SnoopAction {
        self.snoop_probed(msg, SwitchLoc::default(), 0, &mut NullProbe)
    }

    /// [`SwitchDirectory::snoop`] with observability: emits an
    /// [`SdProbeEvent`] for every notable outcome. With [`NullProbe`] this
    /// monomorphizes to exactly the uninstrumented FSM.
    pub fn snoop_probed<P: Probe>(
        &mut self,
        msg: &mut Message,
        loc: SwitchLoc,
        t: Cycle,
        probe: &mut P,
    ) -> SnoopAction {
        let action = self.snoop_impl(msg, loc, t, probe);
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.array.occupancy() as u64);
        self.stats.peak_transients =
            self.stats.peak_transients.max(self.array.transient_count() as u64);
        action
    }

    fn snoop_impl<P: Probe>(
        &mut self,
        msg: &mut Message,
        loc: SwitchLoc,
        t: Cycle,
        probe: &mut P,
    ) -> SnoopAction {
        if !msg.kind.switch_dir_relevant() {
            return SnoopAction::Forward;
        }
        self.stats.snoops += 1;
        let block = msg.block;
        match msg.kind {
            MsgType::WriteReply => {
                if self.disabled {
                    // Degraded mode: never install new hints; the reply
                    // streams on to the writer untouched.
                    return SnoopAction::Forward;
                }
                // Capture ownership as the reply streams toward the writer.
                let owner = msg.requester;
                if self.array.insert_modified(block, owner) {
                    self.stats.inserts += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::Insert);
                    if let Some((victim, state)) = self.array.take_last_evicted() {
                        self.stats.evictions += 1;
                        if state == SdState::Transient {
                            self.stats.evictions_transient += 1;
                        }
                        probe.sd_event(t, loc, victim, SdProbeEvent::Evict);
                    }
                } else {
                    self.stats.inserts_blocked += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::InsertBlocked);
                }
                SnoopAction::Forward
            }
            MsgType::ReadRequest => self.snoop_read(block, msg.requester, loc, t, probe),
            MsgType::WriteRequest => match self.array.peek(block) {
                Some(e) if e.state == SdState::Modified => {
                    self.array.invalidate(block);
                    self.stats.invalidations += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::Invalidate);
                    SnoopAction::Forward
                }
                Some(_) => {
                    // TRANSIENT: a CtoC is in flight from this switch; NAK
                    // the writer and retry later (paper §3.2).
                    self.stats.write_retries += 1;
                    probe.sd_event(
                        t,
                        loc,
                        block,
                        SdProbeEvent::WriteNak { requester: msg.requester },
                    );
                    SnoopAction::SinkSend(vec![GenMsg::Retry { to: msg.requester }])
                }
                None => SnoopAction::Forward,
            },
            MsgType::CtoCRequest => match self.array.peek(block) {
                Some(e) if e.state == SdState::Modified => {
                    // The block is about to stop being dirty-owned: the
                    // recorded hint is stale the moment the transfer
                    // completes.
                    self.array.invalidate(block);
                    self.stats.invalidations += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::Invalidate);
                    SnoopAction::Forward
                }
                Some(_) => {
                    // Another switch (or the home) races our in-flight CtoC:
                    // sink it and NAK its requester; ours will complete and
                    // the retry falls back to the (by then updated) home.
                    self.stats.write_retries += 1;
                    probe.sd_event(
                        t,
                        loc,
                        block,
                        SdProbeEvent::WriteNak { requester: msg.requester },
                    );
                    SnoopAction::SinkSend(vec![GenMsg::Retry { to: msg.requester }])
                }
                None => SnoopAction::Forward,
            },
            MsgType::CopyBack => match self.array.peek(block) {
                Some(e) if e.state == SdState::Transient => {
                    // Mark the copyback with every pid this switch served or
                    // queued so the home's full-map vector stays exact, and
                    // (Accumulate policy) answer queued readers beyond the
                    // first from the copyback's data.
                    let served = e.sharers.clone();
                    msg.carried_sharers = msg.carried_sharers.clone().union(served.clone());
                    self.stats.copybacks_marked += 1;
                    probe.sd_event(
                        t,
                        loc,
                        block,
                        SdProbeEvent::CopybackMarked { served: served.len() as u32 },
                    );
                    let first = e.first_requester;
                    self.array.invalidate(block);
                    let extra: Vec<GenMsg> = served
                        .iter()
                        .filter(|&p| p != first)
                        .map(|p| GenMsg::DataReply { to: p })
                        .collect();
                    if extra.is_empty() {
                        SnoopAction::Forward
                    } else {
                        SnoopAction::ForwardSend(extra)
                    }
                }
                Some(_) => {
                    // Stale MODIFIED hint for a block completing a transfer
                    // elsewhere.
                    self.array.invalidate(block);
                    self.stats.invalidations += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::Invalidate);
                    SnoopAction::Forward
                }
                None => SnoopAction::Forward,
            },
            MsgType::WriteBack => match self.array.peek(block) {
                Some(e) if e.state == SdState::Transient => {
                    // The owner evicted before our CtoC request reached it:
                    // serve every waiting reader from the writeback's data
                    // and mark the writeback so the home records them as
                    // sharers (paper §3.2).
                    let served = e.sharers.clone();
                    msg.carried_sharers = msg.carried_sharers.clone().union(served.clone());
                    self.array.invalidate(block);
                    self.stats.writeback_replies += served.len() as u64;
                    probe.sd_event(
                        t,
                        loc,
                        block,
                        SdProbeEvent::WritebackServed { served: served.len() as u32 },
                    );
                    let replies: Vec<GenMsg> =
                        served.iter().map(|p| GenMsg::DataReply { to: p }).collect();
                    if replies.is_empty() {
                        SnoopAction::Forward
                    } else {
                        SnoopAction::ForwardSend(replies)
                    }
                }
                Some(_) => {
                    self.array.invalidate(block);
                    self.stats.invalidations += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::Invalidate);
                    SnoopAction::Forward
                }
                None => SnoopAction::Forward,
            },
            MsgType::Retry => SnoopAction::Forward,
            other => {
                // Guarded by `switch_dir_relevant` above; reaching this arm
                // means the Table 1 filter and the FSM disagree. Forwarding
                // untouched is always protocol-safe for a hint cache.
                debug_assert!(false, "snooped irrelevant message {other:?}");
                SnoopAction::Forward
            }
        }
    }

    fn snoop_read<P: Probe>(
        &mut self,
        block: BlockAddr,
        requester: NodeId,
        loc: SwitchLoc,
        t: Cycle,
        probe: &mut P,
    ) -> SnoopAction {
        match self.array.peek(block) {
            None => SnoopAction::Forward,
            Some(e) if e.state == SdState::Modified => {
                if e.owner == requester {
                    // Stale hint: the recorded owner itself is asking (its
                    // writeback must be in flight). Let the home sort it
                    // out; the writeback will clean this entry as it passes.
                    return SnoopAction::Forward;
                }
                // The switch-directory hit: sink the read and re-route it
                // straight to the owner cache.
                if self.array.make_transient(block, requester) {
                    self.stats.read_hits += 1;
                    probe.sd_event(
                        t,
                        loc,
                        block,
                        SdProbeEvent::ReadHit { owner: e.owner, requester },
                    );
                    SnoopAction::SinkSend(vec![GenMsg::CtoCRequest { owner: e.owner, requester }])
                } else {
                    // Pending buffer full: cannot track another transient
                    // block, fall through to the home path (§4.3 feedback).
                    // Never a silent overflow: the refusal is counted.
                    self.stats.pending_refused += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::InsertBlocked);
                    SnoopAction::Forward
                }
            }
            Some(e) => {
                debug_assert_eq!(e.state, SdState::Transient);
                if e.sharers.contains(requester) || e.first_requester == requester {
                    // Duplicate/retried read from a pid we already track:
                    // NAK (its data or NAK is already on the way).
                    self.stats.transient_retries += 1;
                    probe.sd_event(t, loc, block, SdProbeEvent::TransientNak { requester });
                    return SnoopAction::SinkSend(vec![GenMsg::Retry { to: requester }]);
                }
                match self.policy {
                    TransientReadPolicy::Retry => {
                        self.stats.transient_retries += 1;
                        probe.sd_event(t, loc, block, SdProbeEvent::TransientNak { requester });
                        SnoopAction::SinkSend(vec![GenMsg::Retry { to: requester }])
                    }
                    TransientReadPolicy::Accumulate => {
                        self.array.add_sharer(block, requester);
                        self.stats.readers_accumulated += 1;
                        probe.sd_event(
                            t,
                            loc,
                            block,
                            SdProbeEvent::ReaderAccumulated { requester },
                        );
                        SnoopAction::Sink
                    }
                }
            }
        }
    }

    /// Number of valid entries in the array (O(1)).
    pub fn occupancy(&self) -> usize {
        self.array.occupancy()
    }

    /// Iterates over all valid entries as `(block, view)` pairs (array
    /// order, deterministic). The coherence checker uses this to verify
    /// SD contents against home-directory truth.
    pub fn entries(&self) -> impl Iterator<Item = (BlockAddr, SdEntryView)> + '_ {
        self.array.entries()
    }

    /// Whether the directory is in degraded (disabled) mode.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Fault hook: enters or leaves degraded mode. Disabling drops every
    /// MODIFIED hint immediately (they are pure hints, always safe to
    /// lose) but keeps TRANSIENT entries so in-flight cache-to-cache
    /// transfers drain through the normal copyback/writeback path.
    /// Returns how many entries were dropped.
    pub fn set_disabled(&mut self, disabled: bool) -> u32 {
        self.disabled = disabled;
        if disabled {
            self.array.drop_modified()
        } else {
            0
        }
    }

    /// Fault hook: ECC scrub pulse — invalidates one MODIFIED entry chosen
    /// by `nonce`. Returns the victim block, if any entry was scrubbed.
    pub fn scrub(&mut self, nonce: u64) -> Option<BlockAddr> {
        self.array.scrub_one(nonce)
    }

    /// Fault hook: forced eviction storm — drops up to `n` MODIFIED
    /// entries (nonce-rotated, deterministic). Returns how many dropped.
    pub fn force_evict(&mut self, n: u32, nonce: u64) -> u32 {
        self.array.force_evict(n, nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::msg::Endpoint;
    use dresar_types::Cycle;

    fn cfg() -> SwitchDirConfig {
        SwitchDirConfig { entries: 64, ways: 4, lookup_ports: 2, pending_buffer_entries: 8 }
    }

    fn msg(kind: MsgType, block: u64, requester: NodeId) -> Message {
        Message::new(
            0,
            kind,
            BlockAddr(block),
            Endpoint::Proc(requester),
            Endpoint::Mem(0),
            requester,
            0 as Cycle,
        )
    }

    fn install(sd: &mut SwitchDirectory, block: u64, owner: NodeId) {
        let mut wr = msg(MsgType::WriteReply, block, owner);
        assert_eq!(sd.snoop(&mut wr), SnoopAction::Forward);
    }

    #[test]
    fn write_reply_installs_modified_entry() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let e = sd.peek(BlockAddr(5)).expect("entry present");
        assert_eq!(e.state, SdState::Modified);
        assert_eq!(e.owner, 3);
        assert_eq!(sd.stats().inserts, 1);
    }

    #[test]
    fn read_hit_sinks_and_generates_ctoc() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let mut rd = msg(MsgType::ReadRequest, 5, 7);
        let act = sd.snoop(&mut rd);
        assert_eq!(
            act,
            SnoopAction::SinkSend(vec![GenMsg::CtoCRequest { owner: 3, requester: 7 }])
        );
        let e = sd.peek(BlockAddr(5)).unwrap();
        assert_eq!(e.state, SdState::Transient);
        assert!(e.sharers.contains(7));
        assert_eq!(sd.stats().read_hits, 1);
    }

    #[test]
    fn read_miss_forwards() {
        let mut sd = SwitchDirectory::new(cfg());
        let mut rd = msg(MsgType::ReadRequest, 99, 7);
        assert_eq!(sd.snoop(&mut rd), SnoopAction::Forward);
    }

    #[test]
    fn read_from_recorded_owner_forwards() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let mut rd = msg(MsgType::ReadRequest, 5, 3);
        assert_eq!(sd.snoop(&mut rd), SnoopAction::Forward);
        assert_eq!(sd.peek(BlockAddr(5)).unwrap().state, SdState::Modified);
    }

    #[test]
    fn transient_read_retries_under_default_policy() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7)); // -> transient
        let act = sd.snoop(&mut msg(MsgType::ReadRequest, 5, 9));
        assert_eq!(act, SnoopAction::SinkSend(vec![GenMsg::Retry { to: 9 }]));
        assert_eq!(sd.stats().transient_retries, 1);
    }

    #[test]
    fn transient_read_accumulates_under_alt_policy() {
        let mut sd = SwitchDirectory::with_policy(cfg(), TransientReadPolicy::Accumulate);
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        let act = sd.snoop(&mut msg(MsgType::ReadRequest, 5, 9));
        assert_eq!(act, SnoopAction::Sink);
        assert!(sd.peek(BlockAddr(5)).unwrap().sharers.contains(9));
        assert_eq!(sd.stats().readers_accumulated, 1);
    }

    #[test]
    fn duplicate_transient_reader_is_nakked_even_when_accumulating() {
        let mut sd = SwitchDirectory::with_policy(cfg(), TransientReadPolicy::Accumulate);
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        let act = sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        assert_eq!(act, SnoopAction::SinkSend(vec![GenMsg::Retry { to: 7 }]));
    }

    #[test]
    fn write_request_invalidates_modified_entry() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let act = sd.snoop(&mut msg(MsgType::WriteRequest, 5, 9));
        assert_eq!(act, SnoopAction::Forward);
        assert!(sd.peek(BlockAddr(5)).is_none());
        assert_eq!(sd.stats().invalidations, 1);
    }

    #[test]
    fn write_request_on_transient_is_nakked() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        let act = sd.snoop(&mut msg(MsgType::WriteRequest, 5, 9));
        assert_eq!(act, SnoopAction::SinkSend(vec![GenMsg::Retry { to: 9 }]));
        assert_eq!(sd.peek(BlockAddr(5)).unwrap().state, SdState::Transient);
    }

    #[test]
    fn foreign_ctoc_request_invalidates_modified() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let mut cc = msg(MsgType::CtoCRequest, 5, 9);
        assert_eq!(sd.snoop(&mut cc), SnoopAction::Forward);
        assert!(sd.peek(BlockAddr(5)).is_none());
    }

    #[test]
    fn copyback_in_transient_is_marked_and_cleans_entry() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        let mut cb = msg(MsgType::CopyBack, 5, 3);
        let act = sd.snoop(&mut cb);
        assert_eq!(act, SnoopAction::Forward);
        assert!(cb.carried_sharers.contains(7), "copyback must carry the served pid");
        assert!(sd.peek(BlockAddr(5)).is_none());
        assert_eq!(sd.stats().copybacks_marked, 1);
    }

    #[test]
    fn copyback_serves_accumulated_readers_beyond_first() {
        let mut sd = SwitchDirectory::with_policy(cfg(), TransientReadPolicy::Accumulate);
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 9));
        let mut cb = msg(MsgType::CopyBack, 5, 3);
        let act = sd.snoop(&mut cb);
        assert_eq!(act, SnoopAction::ForwardSend(vec![GenMsg::DataReply { to: 9 }]));
        assert!(cb.carried_sharers.contains(7) && cb.carried_sharers.contains(9));
    }

    #[test]
    fn writeback_in_transient_answers_waiters_with_data() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7));
        let mut wb = msg(MsgType::WriteBack, 5, 3);
        let act = sd.snoop(&mut wb);
        assert_eq!(act, SnoopAction::ForwardSend(vec![GenMsg::DataReply { to: 7 }]));
        assert!(wb.carried_sharers.contains(7));
        assert!(sd.peek(BlockAddr(5)).is_none());
        assert_eq!(sd.stats().writeback_replies, 1);
    }

    #[test]
    fn writeback_invalidates_stale_modified_entry() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        let mut wb = msg(MsgType::WriteBack, 5, 3);
        assert_eq!(sd.snoop(&mut wb), SnoopAction::Forward);
        assert!(sd.peek(BlockAddr(5)).is_none());
    }

    #[test]
    fn retry_and_irrelevant_messages_pass_untouched() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 5, 3);
        for kind in [MsgType::Retry, MsgType::ReadReply, MsgType::CtoCData, MsgType::Invalidate] {
            let mut m = msg(kind, 5, 9);
            assert_eq!(sd.snoop(&mut m), SnoopAction::Forward, "{kind:?}");
        }
        assert_eq!(sd.peek(BlockAddr(5)).unwrap().state, SdState::Modified);
    }

    #[test]
    fn pending_buffer_limit_blocks_new_transients() {
        let mut small = SwitchDirConfig { pending_buffer_entries: 1, ..cfg() };
        small.entries = 64;
        let mut sd = SwitchDirectory::new(small);
        install(&mut sd, 1, 3);
        install(&mut sd, 2, 3);
        // First transient OK.
        let a1 = sd.snoop(&mut msg(MsgType::ReadRequest, 1, 7));
        assert!(matches!(a1, SnoopAction::SinkSend(_)));
        // Second would exceed the pending buffer: falls through to home.
        let a2 = sd.snoop(&mut msg(MsgType::ReadRequest, 2, 7));
        assert_eq!(a2, SnoopAction::Forward);
        assert_eq!(sd.transient_count(), 1);
        assert_eq!(sd.stats().pending_refused, 1, "refusal counted, never silent");
        assert_eq!(sd.stats().inserts_blocked, 0, "install blocking is a separate counter");
        // The refused read was forwarded to the home, so flow control is
        // preserved; a third attempt counts again.
        let a3 = sd.snoop(&mut msg(MsgType::ReadRequest, 2, 9));
        assert_eq!(a3, SnoopAction::Forward);
        assert_eq!(sd.stats().pending_refused, 2);
    }

    #[test]
    fn disable_drops_hints_but_drains_transients() {
        let mut sd = SwitchDirectory::new(cfg());
        install(&mut sd, 1, 3);
        install(&mut sd, 2, 4);
        sd.snoop(&mut msg(MsgType::ReadRequest, 1, 7)); // block 1 -> TRANSIENT
        assert_eq!(sd.set_disabled(true), 1, "only the MODIFIED hint dropped");
        assert!(sd.is_disabled());
        assert_eq!(sd.peek(BlockAddr(1)).unwrap().state, SdState::Transient);
        assert!(sd.peek(BlockAddr(2)).is_none());
        // No new installs while degraded.
        install(&mut sd, 5, 9);
        assert!(sd.peek(BlockAddr(5)).is_none());
        // Reads fall through to the home path.
        assert_eq!(sd.snoop(&mut msg(MsgType::ReadRequest, 5, 7)), SnoopAction::Forward);
        // The in-flight transfer still completes through the copyback path.
        let mut cb = msg(MsgType::CopyBack, 1, 3);
        assert_eq!(sd.snoop(&mut cb), SnoopAction::Forward);
        assert!(cb.carried_sharers.contains(7), "degraded switch still marks its copyback");
        assert_eq!(sd.transient_count(), 0);
        // Re-enable: installs work again.
        assert_eq!(sd.set_disabled(false), 0);
        install(&mut sd, 6, 2);
        assert_eq!(sd.peek(BlockAddr(6)).unwrap().owner, 2);
    }

    #[test]
    fn scrub_and_storm_hooks_count_against_occupancy() {
        let mut sd = SwitchDirectory::new(cfg());
        for blk in 0..6u64 {
            install(&mut sd, blk, 1);
        }
        assert!(sd.scrub(42).is_some());
        assert_eq!(sd.occupancy(), 5);
        assert_eq!(sd.force_evict(3, 7), 3);
        assert_eq!(sd.occupancy(), 2);
        let listed: Vec<_> = sd.entries().collect();
        assert_eq!(listed.len(), 2);
    }

    #[test]
    fn eviction_and_peak_counters_tracked() {
        // 4 sets x 2 ways: blocks 0, 4, 8 share set 0.
        let mut sd = SwitchDirectory::new(SwitchDirConfig {
            entries: 8,
            ways: 2,
            lookup_ports: 2,
            pending_buffer_entries: 8,
        });
        install(&mut sd, 0, 1);
        install(&mut sd, 4, 2);
        install(&mut sd, 8, 3); // evicts MODIFIED block 0
        assert_eq!(sd.stats().evictions, 1);
        assert_eq!(sd.stats().evictions_transient, 0, "TRANSIENT pin holds");
        assert_eq!(sd.stats().peak_occupancy, 2);
        sd.snoop(&mut msg(MsgType::ReadRequest, 4, 7)); // -> transient
        assert_eq!(sd.stats().peak_transients, 1);
        // Peaks persist after the transient drains.
        let mut cb = msg(MsgType::CopyBack, 4, 2);
        sd.snoop(&mut cb);
        assert_eq!(sd.transient_count(), 0);
        assert_eq!(sd.stats().peak_transients, 1);
        // Merge takes the max of peaks, the sum of evictions.
        let mut a = sd.stats();
        let b = SdStats { peak_occupancy: 9, evictions: 4, ..SdStats::default() };
        a.merge(&b);
        assert_eq!(a.peak_occupancy, 9);
        assert_eq!(a.evictions, 5);
    }

    #[test]
    fn snoop_counts_only_relevant_messages() {
        let mut sd = SwitchDirectory::new(cfg());
        sd.snoop(&mut msg(MsgType::ReadReply, 1, 1));
        assert_eq!(sd.stats().snoops, 0);
        sd.snoop(&mut msg(MsgType::ReadRequest, 1, 1));
        assert_eq!(sd.stats().snoops, 1);
    }
}
