//! Sampled, outside-in layer timing for the execution-driven simulator.
//!
//! [`LayerProbe`] is a [`Probe`] the benchmark owns and passes to the
//! public `System::run_probed`. It samples one event in `every` at
//! `tick`; inside a sampled event it stamps an [`Instant`] at each hook
//! and charges the time since the previous stamp to the layer that the
//! *previous* (opening) hook names. The sample closes at the next `tick`,
//! so a sampled event's time runs from its dispatch to the next event's
//! dispatch and every nanosecond of it is charged to exactly one layer.
//!
//! The probe never forwards hooks to an observer: the clock reads alone
//! would swamp any observer share. Observer cost is measured from paired
//! untraced runs instead.

use crate::stats::pct;
use dresar_obs::{Probe, SdProbeEvent, SwitchLoc};
use dresar_stats::ReadClass;
use dresar_types::msg::{Message, MsgType};
use dresar_types::{BlockAddr, Cycle, NodeId};
use std::time::Instant;

/// A simulator layer, named after the crate or module doing the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Event dispatch and the processor stream (`tick`).
    Core,
    /// Message injection, hops and link booking.
    Interconnect,
    /// Switch-directory sinks and snoop outcomes.
    Switchdir,
    /// Home-directory FSM and controller/DRAM service.
    Directory,
    /// Deliveries into the cache hierarchy and read completion.
    Cache,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 5] =
    [Layer::Core, Layer::Interconnect, Layer::Switchdir, Layer::Directory, Layer::Cache];

impl Layer {
    /// Dense index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Sampled per-layer host time of one or more runs.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Events the simulator dispatched (every `tick`).
    pub events: u64,
    /// Events whose time was sampled to completion.
    pub sampled_events: u64,
    /// Total sampled nanoseconds, measured from each sample's first stamp
    /// to its last.
    pub sampled_ns: u64,
    /// Sampled nanoseconds charged to each layer, indexed by
    /// [`Layer::index`].
    pub layer_ns: [u64; 5],
    /// Hooks seen inside samples, per layer they opened.
    pub hooks: [u64; 5],
    /// Estimated host nanoseconds per layer over *all* events: each run's
    /// sampled time scaled by its events / sampled events.
    pub est_ns: [f64; 5],
}

impl LayerTimes {
    /// Adds another run's times.
    pub fn merge(&mut self, o: &LayerTimes) {
        self.events += o.events;
        self.sampled_events += o.sampled_events;
        self.sampled_ns += o.sampled_ns;
        for i in 0..LAYERS.len() {
            self.layer_ns[i] += o.layer_ns[i];
            self.hooks[i] += o.hooks[i];
            self.est_ns[i] += o.est_ns[i];
        }
    }

    /// `layer`'s share of the sampled time, in percent.
    pub fn self_pct(&self, layer: Layer) -> f64 {
        pct(self.layer_ns[layer.index()] as f64, self.sampled_ns as f64)
    }

    /// Whether the per-layer charges add up to exactly the sampled time.
    pub fn shares_are_whole(&self) -> bool {
        self.layer_ns.iter().sum::<u64>() == self.sampled_ns
    }
}

/// The sampling probe. See the module docs.
#[derive(Debug)]
pub struct LayerProbe {
    every: u64,
    /// Open sample: (layer being charged, last stamp, sample start).
    open: Option<(Layer, Instant, Instant)>,
    times: LayerTimes,
}

impl LayerProbe {
    /// Samples one event in `every` (at least 1).
    pub fn new(every: u64) -> Self {
        LayerProbe { every: every.max(1), open: None, times: LayerTimes::default() }
    }

    /// Ends the run. A sample still open here would also time the
    /// simulator's end-of-run work, so it is dropped, not charged.
    pub fn finish(self) -> LayerTimes {
        let mut t = self.times;
        if t.sampled_events > 0 {
            let scale = t.events as f64 / t.sampled_events as f64;
            for i in 0..LAYERS.len() {
                t.est_ns[i] = t.layer_ns[i] as f64 * scale;
            }
        }
        t
    }

    /// Charges the time since the last stamp and hands the clock to
    /// `layer`. A no-op outside a sample.
    #[inline]
    fn stamp(&mut self, layer: Layer) {
        if let Some((current, last, start)) = self.open {
            let now = Instant::now();
            self.times.layer_ns[current.index()] += (now - last).as_nanos() as u64;
            self.times.hooks[layer.index()] += 1;
            self.open = Some((layer, now, start));
        }
    }
}

impl Probe for LayerProbe {
    #[inline]
    fn tick(&mut self, _t: Cycle, _queue_depth: usize) {
        if let Some((current, last, start)) = self.open.take() {
            let now = Instant::now();
            self.times.layer_ns[current.index()] += (now - last).as_nanos() as u64;
            self.times.sampled_ns += (now - start).as_nanos() as u64;
            self.times.sampled_events += 1;
        }
        self.times.events += 1;
        if self.times.events.is_multiple_of(self.every) {
            let now = Instant::now();
            self.times.hooks[Layer::Core.index()] += 1;
            self.open = Some((Layer::Core, now, now));
        }
    }

    #[inline]
    fn msg_send(&mut self, _t: Cycle, _msg: &Message) {
        self.stamp(Layer::Interconnect);
    }

    #[inline]
    fn msg_hop(&mut self, _t: Cycle, _msg: &Message, _sw: SwitchLoc) {
        self.stamp(Layer::Interconnect);
    }

    #[inline]
    fn link_traverse(
        &mut self,
        _link: dresar_obs::LinkKey,
        _dense: u32,
        _start: Cycle,
        _end: Cycle,
        _flits: u32,
        _kind: MsgType,
        _wait: Cycle,
    ) {
        self.stamp(Layer::Interconnect);
    }

    #[inline]
    fn read_issue(&mut self, _n: NodeId, _b: BlockAddr, _t0: Cycle, _inject: Cycle, _txn: u64) {
        self.stamp(Layer::Interconnect);
    }

    #[inline]
    fn read_retry(&mut self, _n: NodeId, _b: BlockAddr, _t: Cycle, _txn: u64) {
        self.stamp(Layer::Interconnect);
    }

    #[inline]
    fn msg_sink(&mut self, _t: Cycle, _msg: &Message, _sw: SwitchLoc) {
        self.stamp(Layer::Switchdir);
    }

    #[inline]
    fn sd_event(&mut self, _t: Cycle, _sw: SwitchLoc, _b: BlockAddr, _ev: SdProbeEvent) {
        self.stamp(Layer::Switchdir);
    }

    #[inline]
    fn home_fsm(
        &mut self,
        _t: Cycle,
        _home: NodeId,
        _b: BlockAddr,
        _tr: dresar_obs::HomeTransition,
    ) {
        self.stamp(Layer::Directory);
    }

    #[inline]
    fn home_service(
        &mut self,
        _home: NodeId,
        _b: BlockAddr,
        _kind: MsgType,
        _arrive: Cycle,
        _start: Cycle,
        _done: Cycle,
    ) {
        self.stamp(Layer::Directory);
    }

    #[inline]
    fn msg_deliver(&mut self, _t: Cycle, _msg: &Message) {
        self.stamp(Layer::Cache);
    }

    #[inline]
    fn read_complete(
        &mut self,
        _n: NodeId,
        _b: BlockAddr,
        _class: ReadClass,
        _latency: Cycle,
        _t: Cycle,
        _txn: u64,
    ) {
        self.stamp(Layer::Cache);
    }

    #[inline]
    fn nak_received(&mut self, _t: Cycle, _n: NodeId, _b: BlockAddr) {
        self.stamp(Layer::Cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar::system::{RunOptions, System};
    use dresar_obs::ObserverConfig;
    use dresar_types::config::{SwitchDirConfig, SystemConfig};
    use dresar_workloads::{scientific, Scale};

    fn msg() -> Message {
        use dresar_types::msg::Endpoint;
        Message::new(
            1,
            MsgType::ReadRequest,
            BlockAddr(0),
            Endpoint::Proc(0),
            Endpoint::Mem(1),
            0,
            0,
        )
    }

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn time_between_hooks_goes_to_the_opening_hook() {
        let mut p = LayerProbe::new(1);
        let msg = msg();
        p.tick(0, 0); // opens a sample charged to core
        spin(200_000);
        p.msg_send(0, &msg); // core -> interconnect
        spin(400_000);
        p.home_service(0, BlockAddr(0), MsgType::ReadRequest, 0, 0, 0); // -> directory
        spin(600_000);
        p.tick(1, 0); // closes the sample (and opens the next)
        let t = p.finish();
        assert_eq!(t.events, 2);
        assert_eq!(t.sampled_events, 1, "the sample still open at finish is dropped");
        assert!(t.shares_are_whole());
        let ns = |l: Layer| t.layer_ns[l.index()];
        assert!(ns(Layer::Core) >= 200_000 && ns(Layer::Core) < 400_000);
        assert!(ns(Layer::Interconnect) >= 400_000 && ns(Layer::Interconnect) < 600_000);
        assert!(ns(Layer::Directory) >= 600_000);
        assert_eq!(ns(Layer::Switchdir) + ns(Layer::Cache), 0);
    }

    #[test]
    fn hooks_outside_a_sample_cost_nothing() {
        let mut p = LayerProbe::new(4);
        let msg = msg();
        for t in 0..8 {
            p.tick(t, 0);
            p.msg_deliver(t, &msg);
        }
        let t = p.finish();
        assert_eq!(t.events, 8);
        assert_eq!(t.sampled_events, 1, "events 4 and 8 opened samples; the last is dropped");
        // Only the two sampled events' ticks and delivers were stamped.
        assert_eq!(t.hooks[Layer::Core.index()], 2);
        assert_eq!(t.hooks[Layer::Cache.index()], 2);
    }

    #[test]
    fn tiny_runs_charge_the_layers_their_hooks_name() {
        let w = scientific::fft(16, Scale::Tiny.fft_points());
        let run = |sd: Option<u32>| {
            let mut cfg = SystemConfig::paper_table2();
            cfg.switch_dir =
                sd.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() });
            let opts = RunOptions { observers: ObserverConfig::default(), ..RunOptions::default() };
            let plain = System::new(cfg, &w).run(opts);
            let mut probe = LayerProbe::new(1);
            let traced = System::new(cfg, &w).run_probed(opts, &mut probe);
            assert_eq!(plain.metrics, traced.metrics, "the probe must not perturb the run");
            (probe.finish(), traced.metrics)
        };
        let (base, reg) = run(None);
        let scheduled = match reg.get("engine.queue.scheduled") {
            Some(dresar_obs::MetricValue::Counter(c)) => *c,
            other => panic!("engine.queue.scheduled missing: {other:?}"),
        };
        assert_eq!(base.events, scheduled, "one tick per dispatched event");
        assert_eq!(base.sampled_events + 1, base.events);
        assert!(base.shares_are_whole());
        for l in [Layer::Core, Layer::Interconnect, Layer::Directory, Layer::Cache] {
            assert!(base.hooks[l.index()] > 0, "{l:?} never charged");
            assert!(base.self_pct(l) > 0.0, "{l:?} has no time");
        }
        assert_eq!(base.hooks[Layer::Switchdir.index()], 0, "no switch directories on base");
        assert_eq!(base.layer_ns[Layer::Switchdir.index()], 0);
        let total: f64 = LAYERS.iter().map(|&l| base.self_pct(l)).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");

        let (sd, _) = run(Some(1024));
        assert!(sd.hooks[Layer::Switchdir.index()] > 0, "sd1024 sinks and snoops");
        assert!(sd.layer_ns[Layer::Switchdir.index()] > 0);
        assert!(sd.shares_are_whole());
    }
}
