//! The trace pass's own sans-I/O loop over [`Endpoint`]s.
//!
//! It delivers the same events in the same order as
//! [`dkg_engine::EndpointNet`] — same `(time, sequence)` queue, same link
//! model and RNG stream, same drain-to-quiescence after every event — so a
//! traced operation sends exactly the datagrams the timed one does. The
//! difference is that the endpoints run with `defer_crypto = true` and the
//! loop itself executes every [`dkg_poly::CryptoJob`], which lets it put a
//! span around each call into each layer: `handle_datagram`, the operator
//! inputs, `poll_jobs`, each job's `run`, `complete_job`, `poll_transmit`.
//! On every delivered datagram it also repeats the decode and the encode on
//! the captured bytes in *standalone* spans, which price the codec alone.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use dkg_core::{DkgInput, DkgMessage, DkgOutput};
use dkg_crypto::NodeId;
use dkg_engine::{Endpoint, Event, Reject};
use dkg_sim::{ChaosModel, DelayModel, LinkFate};
use dkg_tss::{TssInput, TssMessage};
use dkg_wire::{decode_datagram, encode_datagram, ProtocolId, WireDecode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;

/// An operator input to schedule.
pub enum Input {
    Dkg { tau: u64, input: DkgInput },
    Tss { sid: u64, input: TssInput },
}

enum NetEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
    },
    Wake(NodeId),
    Input(NodeId, Input),
}

struct Scheduled {
    time: u64,
    seq: u64,
    event: NetEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Traffic counted where it enters the network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Traffic {
    pub datagrams: u64,
    pub bytes: u64,
    pub max_datagram: u64,
    /// `(datagrams, bytes)` per [`dkg_engine::Transmit::kind`].
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
}

pub struct TraceNet {
    endpoints: BTreeMap<NodeId, Endpoint>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    scheduled_wake: BTreeMap<NodeId, u64>,
    chaos: ChaosModel,
    rng: StdRng,
    now: u64,
    seq: u64,
    pub recorder: Recorder,
    pub traffic: Traffic,
    pub events: Vec<(NodeId, Event)>,
    /// Inputs, datagrams or verdicts an endpoint refused (expected 0).
    pub rejected: u64,
    /// Crypto jobs executed.
    pub jobs: u64,
    /// Datagrams whose standalone re-encoding differed from the bytes
    /// received (expected 0: the codec is canonical).
    pub codec_mismatches: u64,
    /// Signing requests re-issued with fresh nonces (expected 0).
    pub tss_retries: u64,
}

impl TraceNet {
    /// An empty network with [`dkg_engine::EndpointNet::new`]'s link model
    /// and RNG seeding.
    pub fn new(delay: DelayModel, seed: u64, recorder: Recorder) -> Self {
        TraceNet {
            endpoints: BTreeMap::new(),
            queue: BinaryHeap::new(),
            scheduled_wake: BTreeMap::new(),
            chaos: ChaosModel::from(delay),
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            recorder,
            traffic: Traffic::default(),
            events: Vec::new(),
            rejected: 0,
            jobs: 0,
            codec_mismatches: 0,
            tss_retries: 0,
        }
    }

    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        assert!(endpoint.config().defer_crypto, "the loop runs the jobs");
        let previous = self.endpoints.insert(endpoint.id(), endpoint);
        assert!(previous.is_none(), "duplicate endpoint");
    }

    pub fn endpoint(&self, node: NodeId) -> Option<&Endpoint> {
        self.endpoints.get(&node)
    }

    pub fn endpoint_mut(&mut self, node: NodeId) -> Option<&mut Endpoint> {
        self.endpoints.get_mut(&node)
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.endpoints.keys().copied().collect()
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn schedule(&mut self, node: NodeId, input: Input, at: u64) {
        self.push(at, NetEvent::Input(node, input));
    }

    fn push(&mut self, time: u64, event: NetEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Leader changes any node reported.
    pub fn leader_changes(&self) -> u64 {
        self.events
            .iter()
            .filter(|(_, event)| {
                matches!(
                    event,
                    Event::Dkg {
                        output: DkgOutput::LeaderChanged { .. },
                        ..
                    }
                )
            })
            .count() as u64
    }

    /// Runs until no event is left.
    pub fn run(&mut self) {
        while let Some(Reverse(scheduled)) = self.queue.pop() {
            self.now = scheduled.time;
            let now = self.now;
            let node = match &scheduled.event {
                NetEvent::Deliver { to: node, .. }
                | NetEvent::Wake(node)
                | NetEvent::Input(node, _) => *node,
            };
            let event = self.recorder.enter("driver", "event", node);
            if let NetEvent::Deliver { bytes, .. } = &scheduled.event {
                self.probe_codec(node, bytes);
            }
            if let NetEvent::Wake(_) = scheduled.event {
                self.scheduled_wake.remove(&node);
            }
            if let Some(endpoint) = self.endpoints.get_mut(&node) {
                let refused = match scheduled.event {
                    NetEvent::Deliver { from, bytes, .. } => {
                        let span = self.recorder.enter("dkg-engine", "handle_datagram", node);
                        let outcome = endpoint.handle_datagram(from, &bytes, now);
                        self.recorder.exit_with_bytes(span, bytes.len() as u64);
                        outcome.is_err()
                    }
                    NetEvent::Wake(_) => {
                        let span = self.recorder.enter("dkg-engine", "handle_timeout", node);
                        endpoint.handle_timeout(now);
                        self.recorder.exit(span);
                        false
                    }
                    NetEvent::Input(_, input) => {
                        let span = self.recorder.enter("dkg-engine", "handle_input", node);
                        let outcome = match input {
                            Input::Dkg { tau, input } => endpoint.handle_dkg_input(tau, input, now),
                            Input::Tss { sid, input } => endpoint.handle_tss_input(sid, input, now),
                        };
                        self.recorder.exit(span);
                        outcome.is_err()
                    }
                };
                self.rejected += u64::from(refused);
                self.drain(node);
            }
            self.recorder.exit(event);
        }
    }

    /// Decodes and re-encodes a captured datagram in standalone spans.
    fn probe_codec(&mut self, node: NodeId, bytes: &[u8]) {
        if !self.recorder.enabled() {
            return;
        }
        enum Message {
            Dkg(DkgMessage),
            Tss(TssMessage),
        }
        let span = self.recorder.enter_standalone("dkg-wire", "decode", node);
        let decoded = decode_datagram(bytes).and_then(|(header, payload)| {
            let message = match header.protocol {
                ProtocolId::Tss => Message::Tss(TssMessage::decode(payload)?),
                _ => Message::Dkg(DkgMessage::decode(payload)?),
            };
            Ok((header, message))
        });
        self.recorder.exit_with_bytes(span, bytes.len() as u64);
        let Ok((header, message)) = decoded else {
            self.codec_mismatches += 1;
            return;
        };
        let span = self.recorder.enter_standalone("dkg-wire", "encode", node);
        let encoded = match &message {
            Message::Dkg(message) => encode_datagram(header, message),
            Message::Tss(message) => encode_datagram(header, message),
        };
        self.recorder.exit_with_bytes(span, encoded.len() as u64);
        self.codec_mismatches += u64::from(encoded != bytes);
        if let Message::Tss(TssMessage::SignRequest {
            attempt,
            package: None,
            ..
        }) = message
        {
            self.tss_retries += u64::from(attempt > 0);
        }
    }

    /// Moves `node`'s pending transmits into the queue and collects its
    /// events.
    fn pump(&mut self, node: NodeId) {
        let now = self.now;
        let Some(endpoint) = self.endpoints.get_mut(&node) else {
            return;
        };
        let span = self.recorder.enter("dkg-engine", "poll_transmit", node);
        let transmits = endpoint.poll_transmit_batch(usize::MAX);
        self.recorder.exit(span);
        while let Some(event) = endpoint.poll_event() {
            self.events.push((node, event));
        }
        for transmit in transmits {
            let len = transmit.payload.len() as u64;
            self.traffic.datagrams += 1;
            self.traffic.bytes += len;
            self.traffic.max_datagram = self.traffic.max_datagram.max(len);
            let kind = self.traffic.by_kind.entry(transmit.kind).or_default();
            kind.0 += 1;
            kind.1 += len;
            let delay = if transmit.to == node {
                0
            } else {
                match self.chaos.fate(node, transmit.to, now, &mut self.rng) {
                    LinkFate::Deliver(delay) => delay,
                    LinkFate::Severed => continue,
                }
            };
            self.push(
                now.saturating_add(delay),
                NetEvent::Deliver {
                    from: node,
                    to: transmit.to,
                    bytes: transmit.payload,
                },
            );
        }
    }

    /// Runs `node`'s pending crypto jobs to quiescence, applying verdicts in
    /// job-id order, and keeps its timer wake-up scheduled.
    fn drain(&mut self, node: NodeId) {
        let now = self.now;
        loop {
            self.pump(node);
            let Some(endpoint) = self.endpoints.get_mut(&node) else {
                return;
            };
            let span = self.recorder.enter("dkg-engine", "poll_jobs", node);
            let tickets = endpoint.poll_jobs();
            self.recorder.exit(span);
            if tickets.is_empty() {
                break;
            }
            let mut verdicts = Vec::with_capacity(tickets.len());
            for ticket in tickets {
                let span = self.recorder.enter("dkg-poly", ticket.job.kind(), node);
                verdicts.push((ticket.id, ticket.job.run()));
                self.recorder.exit(span);
                self.jobs += 1;
            }
            for (id, verdict) in verdicts {
                loop {
                    let Some(endpoint) = self.endpoints.get_mut(&node) else {
                        return;
                    };
                    let span = self.recorder.enter("dkg-engine", "complete_job", node);
                    let outcome = endpoint.complete_job(id, verdict.clone(), now);
                    self.recorder.exit(span);
                    match outcome {
                        Err(Reject::Backpressure { .. }) => self.pump(node),
                        Err(_) => {
                            self.rejected += 1;
                            break;
                        }
                        Ok(_) => break,
                    }
                }
            }
        }
        if let Some(deadline) = self.endpoints[&node].poll_timeout() {
            let wake_at = deadline.max(now);
            if self
                .scheduled_wake
                .get(&node)
                .is_none_or(|&already| wake_at < already)
            {
                self.scheduled_wake.insert(node, wake_at);
                self.push(wake_at, NetEvent::Wake(node));
            }
        }
    }
}
