//! Network delay models.
//!
//! §2.1 argues that over the Internet the expected message-transfer delay is
//! a few seconds while a phase lasts days, and that the adversary may delay
//! *its own* messages arbitrarily but "cannot control communication channels
//! for all the honest nodes". A network driver therefore draws honest-link
//! delays from a configurable [`DelayModel`], and expresses the adversary's
//! hold over the links it controls as a [`ChaosModel`]: per-link overrides
//! that stretch the delay of exactly those links, reordering, and
//! partitions that heal.

use dkg_crypto::NodeId;
use rand::Rng;

use crate::protocol::SimTime;

/// How long a message takes between two uncrashed, honest nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this many milliseconds.
    Constant(SimTime),
    /// Delays are drawn uniformly from `[min, max]` milliseconds.
    Uniform {
        /// Minimum delay.
        min: SimTime,
        /// Maximum delay (inclusive).
        max: SimTime,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        // A LAN/WAN-ish default: 10–100 ms.
        DelayModel::Uniform { min: 10, max: 100 }
    }
}

impl DelayModel {
    /// Samples a delay for a message.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
        }
    }

    /// The largest delay this model can produce (used by protocols to pick
    /// initial `delay(t)` timeout values).
    pub fn max_delay(&self) -> SimTime {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { max, .. } => max,
        }
    }
}

/// The `delay(t)` function of the weak synchrony assumption (§2.1, after
/// Castro & Liskov): the timeout a node uses before suspecting the leader.
/// Each retry doubles the timeout, so the timeout eventually exceeds the real
/// (eventually bounded) network delay and liveness is restored, while growing
/// no faster than linearly in the number of retransmissions overall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayFunction {
    /// Initial timeout in milliseconds.
    pub base: SimTime,
    /// Upper bound on the timeout (keeps the doubling finite).
    pub cap: SimTime,
}

impl Default for DelayFunction {
    fn default() -> Self {
        DelayFunction {
            base: 500,
            cap: 60_000,
        }
    }
}

impl DelayFunction {
    /// The timeout to use after `retries` unsuccessful attempts.
    pub fn timeout(&self, retries: u32) -> SimTime {
        let doubled = self
            .base
            .saturating_mul(1u64.checked_shl(retries.min(32)).unwrap_or(u64::MAX));
        doubled.min(self.cap)
    }
}

/// A directional per-link delay override: messages `from → to` sample
/// their delay from `delay` instead of the [`ChaosModel`]'s base model.
/// Because the override is directional, a link can be made *asymmetric*
/// (fast one way, slow the other) by installing two overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkDelay {
    /// Source endpoint.
    pub from: NodeId,
    /// Destination endpoint.
    pub to: NodeId,
    /// The delay model for this direction of the link.
    pub delay: DelayModel,
}

/// A timed network partition that heals: during `[start, end)` every
/// message crossing the boundary between `island` and its complement is
/// dropped (in both directions). Messages within the island, and within
/// the complement, are unaffected. After `end` the partition heals and
/// the protocols' retransmission machinery (§5.3 help, leader-change
/// timers) is what recovers the lost traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedPartition {
    /// One side of the partition (the other side is everyone else).
    pub island: Vec<NodeId>,
    /// Partition start (inclusive), in milliseconds.
    pub start: SimTime,
    /// Partition end (exclusive) — the healing instant.
    pub end: SimTime,
}

impl TimedPartition {
    /// Whether a message `from → to` sent at `now` is severed by this
    /// partition.
    pub fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        now >= self.start
            && now < self.end
            && (self.island.contains(&from) != self.island.contains(&to))
    }
}

/// What the network does with one datagram on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// Deliver after this many milliseconds.
    Deliver(SimTime),
    /// The link is severed (an active [`TimedPartition`]): the datagram is
    /// lost.
    Severed,
}

/// A chaos network model: the base [`DelayModel`] plus asymmetric per-link
/// latency overrides, a reordering window, and timed partitions that heal.
///
/// `ChaosModel::from(delay)` (what [`DelayModel`]-taking constructors use)
/// has no overrides, no reordering and no partitions and consumes exactly
/// one RNG sample per datagram — byte-identical to the pre-chaos network,
/// which the adversary crate's honest-only regression test pins.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosModel {
    /// Delay model for links without an override.
    pub base: DelayModel,
    /// Directional per-link overrides (first match wins).
    pub links: Vec<LinkDelay>,
    /// Extra per-datagram jitter drawn uniformly from `[0, reorder_window]`
    /// milliseconds. Any window larger than the minimum link delay lets
    /// later sends overtake earlier ones — a reordering network. `0`
    /// (default) adds no jitter and consumes no randomness.
    pub reorder_window: SimTime,
    /// Timed partitions; a message is dropped if *any* active partition
    /// severs its link.
    pub partitions: Vec<TimedPartition>,
    /// What a severing partition does with the message. `false` (default):
    /// the message is **dropped** ([`LinkFate::Severed`]) — the crash-like
    /// view of a partition, where recovery relies on the protocols'
    /// retransmission machinery. `true`: the message is **held** and
    /// released when the last severing partition heals (plus a sampled
    /// link delay) — the paper's asynchronous model (§2.1), where the
    /// adversary may delay traffic arbitrarily but must deliver
    /// eventually. Liveness assertions under partitions need `true`;
    /// protocols with their own retransmission can face `false`.
    pub hold_severed: bool,
}

impl From<DelayModel> for ChaosModel {
    fn from(base: DelayModel) -> Self {
        ChaosModel {
            base,
            links: Vec::new(),
            reorder_window: 0,
            partitions: Vec::new(),
            hold_severed: false,
        }
    }
}

impl Default for ChaosModel {
    fn default() -> Self {
        ChaosModel::from(DelayModel::default())
    }
}

impl ChaosModel {
    /// Adds a directional per-link delay override (builder style).
    pub fn with_link(mut self, from: NodeId, to: NodeId, delay: DelayModel) -> Self {
        self.links.push(LinkDelay { from, to, delay });
        self
    }

    /// Sets the reordering window (builder style).
    pub fn with_reorder_window(mut self, window: SimTime) -> Self {
        self.reorder_window = window;
        self
    }

    /// Adds a timed partition that heals at `end` (builder style).
    pub fn with_partition(mut self, island: Vec<NodeId>, start: SimTime, end: SimTime) -> Self {
        self.partitions.push(TimedPartition { island, start, end });
        self
    }

    /// Makes severing partitions *hold* traffic until they heal instead of
    /// dropping it (builder style; see [`ChaosModel::hold_severed`]).
    pub fn holding_severed(mut self) -> Self {
        self.hold_severed = true;
        self
    }

    /// Decides the fate of a datagram `from → to` sent at `now`: severed by
    /// an active partition, or delivered after a sampled (link-specific)
    /// delay plus reordering jitter.
    pub fn fate<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> LinkFate {
        let healed_at = self
            .partitions
            .iter()
            .filter(|p| p.severs(from, to, now))
            .map(|p| p.end)
            .max();
        let held = match healed_at {
            Some(_) if !self.hold_severed => return LinkFate::Severed,
            Some(end) => end - now,
            None => 0,
        };
        let model = self
            .links
            .iter()
            .find(|l| l.from == from && l.to == to)
            .map_or(&self.base, |l| &l.delay);
        let mut delay = held.saturating_add(model.sample(rng));
        if self.reorder_window > 0 {
            delay = delay.saturating_add(rng.gen_range(0..=self.reorder_window));
        }
        LinkFate::Deliver(delay)
    }

    /// The largest delay this model can produce on any link (partitions
    /// aside) — what protocols use to pick initial timeout values.
    pub fn max_delay(&self) -> SimTime {
        self.links
            .iter()
            .map(|l| l.delay.max_delay())
            .chain([self.base.max_delay()])
            .max()
            .unwrap_or(0)
            .saturating_add(self.reorder_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_delay() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DelayModel::Constant(42);
        assert_eq!(model.sample(&mut rng), 42);
        assert_eq!(model.max_delay(), 42);
    }

    #[test]
    fn uniform_delay_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = DelayModel::Uniform { min: 10, max: 20 };
        for _ in 0..100 {
            let d = model.sample(&mut rng);
            assert!((10..=20).contains(&d));
        }
        assert_eq!(model.max_delay(), 20);
        // Degenerate range.
        let degenerate = DelayModel::Uniform { min: 5, max: 5 };
        assert_eq!(degenerate.sample(&mut rng), 5);
    }

    #[test]
    fn delay_function_doubles_and_caps() {
        let f = DelayFunction {
            base: 100,
            cap: 1000,
        };
        assert_eq!(f.timeout(0), 100);
        assert_eq!(f.timeout(1), 200);
        assert_eq!(f.timeout(2), 400);
        assert_eq!(f.timeout(10), 1000);
        assert_eq!(f.timeout(63), 1000);
    }

    #[test]
    fn chaos_default_matches_base_model_sample_for_sample() {
        // `ChaosModel::from(delay)` must consume the RNG exactly like the
        // bare model: byte-identical runs depend on it.
        let base = DelayModel::Uniform { min: 10, max: 100 };
        let chaos = ChaosModel::from(base.clone());
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for step in 0..200u64 {
            let direct = base.sample(&mut a);
            match chaos.fate(1, 2, step, &mut b) {
                LinkFate::Deliver(d) => assert_eq!(d, direct),
                LinkFate::Severed => panic!("no partitions configured"),
            }
        }
    }

    #[test]
    fn chaos_link_overrides_are_directional() {
        let chaos =
            ChaosModel::from(DelayModel::Constant(10)).with_link(1, 2, DelayModel::Constant(500));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(chaos.fate(1, 2, 0, &mut rng), LinkFate::Deliver(500));
        // The reverse direction keeps the base delay: the link is asymmetric.
        assert_eq!(chaos.fate(2, 1, 0, &mut rng), LinkFate::Deliver(10));
        assert_eq!(chaos.fate(3, 4, 0, &mut rng), LinkFate::Deliver(10));
        assert_eq!(chaos.max_delay(), 500);
    }

    #[test]
    fn chaos_reorder_window_bounds_jitter() {
        let chaos = ChaosModel::from(DelayModel::Constant(10)).with_reorder_window(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_above_base = false;
        for _ in 0..100 {
            match chaos.fate(1, 2, 0, &mut rng) {
                LinkFate::Deliver(d) => {
                    assert!((10..=60).contains(&d));
                    seen_above_base |= d > 10;
                }
                LinkFate::Severed => panic!("no partitions configured"),
            }
        }
        assert!(seen_above_base, "jitter never fired in 100 samples");
        assert_eq!(chaos.max_delay(), 60);
    }

    #[test]
    fn partitions_sever_across_the_boundary_and_heal() {
        let chaos = ChaosModel::from(DelayModel::Constant(5)).with_partition(vec![1, 2], 100, 200);
        let mut rng = StdRng::seed_from_u64(4);
        // Before, within each side, and after healing: delivered.
        assert_eq!(chaos.fate(1, 3, 99, &mut rng), LinkFate::Deliver(5));
        assert_eq!(chaos.fate(1, 2, 150, &mut rng), LinkFate::Deliver(5));
        assert_eq!(chaos.fate(3, 4, 150, &mut rng), LinkFate::Deliver(5));
        assert_eq!(chaos.fate(1, 3, 200, &mut rng), LinkFate::Deliver(5));
        // Across the boundary while active: severed, in both directions.
        assert_eq!(chaos.fate(1, 3, 150, &mut rng), LinkFate::Severed);
        assert_eq!(chaos.fate(3, 2, 100, &mut rng), LinkFate::Severed);
    }

    #[test]
    fn holding_partitions_delay_until_heal_instead_of_dropping() {
        let chaos = ChaosModel::from(DelayModel::Constant(5))
            .with_partition(vec![1, 2], 100, 200)
            .holding_severed();
        let mut rng = StdRng::seed_from_u64(9);
        // Severed at t = 150: held for the remaining 50 ms, then delivered
        // with the usual link delay — eventual delivery, as §2.1 requires.
        assert_eq!(chaos.fate(1, 3, 150, &mut rng), LinkFate::Deliver(55));
        // Unaffected links keep the plain delay.
        assert_eq!(chaos.fate(1, 2, 150, &mut rng), LinkFate::Deliver(5));
        assert_eq!(chaos.fate(1, 3, 250, &mut rng), LinkFate::Deliver(5));
    }
}
