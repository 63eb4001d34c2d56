//! Sessions: what they are called, and what the endpoint needs from the
//! state machine behind one.
//!
//! Every protocol here is a [`dkg_sim::Protocol`] — one state machine fed by
//! operator inputs, network messages and timers (§7 of the paper).
//! [`Hosted`] adds what [`crate::Endpoint`] needs to put such a machine on
//! the wire: decoding a payload in the session's context and checking it
//! against the routing header, the crypto-job seam, completion, a snapshot,
//! and the session's name as [`SessionKey`], [`Event`] and [`WalRecord`]
//! spell it. The set is closed: [`Machine`] lists the hosted kinds and
//! [`dispatch!`] hands the endpoint whichever one a session holds, so a
//! fifth protocol is one variant each of [`SessionKey`], [`Event`] and
//! [`Machine`], one `impl Hosted`, and one [`SessionStateSnapshot`] tag.

use std::any::Any;
use std::sync::Arc;

use dkg_core::group::{GroupModInput, GroupModMessage, GroupModNode, GroupModOutput};
use dkg_core::{DkgInput, DkgMessage, DkgNode, DkgOutput};
use dkg_crypto::{KeyDirectory, NodeId};
use dkg_poly::{CryptoJob, CryptoVerdict};
use dkg_sim::{ActionSink, Protocol};
use dkg_store::{StoreError, WalRecord};
use dkg_tss::{SignSession, TssInput, TssMessage, TssOutput};
use dkg_vss::{SessionId, VssAction, VssInput, VssMessage, VssNode, VssOutput};
use dkg_wire::{Header, ProtocolId, WireDecode, WireEncode, WireError};

use crate::endpoint::{Reject, WallClock};
use crate::persist::{RestoreError, SessionStateSnapshot};

/// Identifies one session multiplexed on an endpoint. The set is closed:
/// these are the protocols the endpoint knows how to host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SessionKey {
    /// A standalone HybridVSS session.
    Vss {
        /// The `(dealer, τ)` session identifier.
        session: SessionId,
    },
    /// A DKG session (with its `n` embedded VSS instances).
    Dkg {
        /// The phase counter `τ`.
        tau: u64,
    },
    /// A threshold-signing session serving requests with a DKG'd key.
    Sign {
        /// The signing-session identifier.
        sid: u64,
    },
    /// A §6 group-modification agreement (membership change broadcast).
    Mod {
        /// The agreement era: which configuration epoch the proposals
        /// modify. Routing-only, like `τ` for a DKG session.
        era: u64,
    },
}

impl SessionKey {
    /// The wire protocol tag for this session's datagrams.
    pub fn protocol(&self) -> ProtocolId {
        match self {
            SessionKey::Vss { .. } => ProtocolId::Vss,
            SessionKey::Dkg { .. } => ProtocolId::Dkg,
            SessionKey::Sign { .. } => ProtocolId::Tss,
            SessionKey::Mod { .. } => ProtocolId::Mod,
        }
    }

    /// The 16-byte routing channel carried in the datagram header.
    pub fn channel(&self) -> [u8; 16] {
        match self {
            SessionKey::Vss { session } => session.to_bytes(),
            SessionKey::Dkg { tau }
            | SessionKey::Sign { sid: tau }
            | SessionKey::Mod { era: tau } => (u128::from(*tau) << 64).to_be_bytes(),
        }
    }

    /// Reconstructs the key from a datagram header. Rejects DKG, signing
    /// and group-mod channels with non-zero reserved bytes so every session
    /// has exactly one header encoding.
    pub fn from_header(header: &Header) -> Result<Self, WireError> {
        let channel = u128::from_be_bytes(header.channel);
        let (hi, lo) = ((channel >> 64) as u64, channel as u64);
        let unreserved = |context| match lo {
            0 => Ok(hi),
            _ => Err(WireError::InvalidValue { context }),
        };
        Ok(match header.protocol {
            ProtocolId::Vss => SessionKey::Vss {
                session: SessionId::new(hi, lo),
            },
            ProtocolId::Dkg => SessionKey::Dkg {
                tau: unreserved("non-zero reserved bytes in dkg channel")?,
            },
            ProtocolId::Tss => SessionKey::Sign {
                sid: unreserved("non-zero reserved bytes in tss channel")?,
            },
            ProtocolId::Mod => SessionKey::Mod {
                era: unreserved("non-zero reserved bytes in group-mod channel")?,
            },
        })
    }
}

/// A protocol-level event surfaced to the application.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A DKG session produced an operator output.
    Dkg {
        /// The session's phase counter.
        tau: u64,
        /// The output (`Completed`, `Reconstructed`, `LeaderChanged`).
        output: DkgOutput,
    },
    /// A standalone VSS session produced an operator output.
    Vss {
        /// The session id.
        session: SessionId,
        /// The output (`Shared`, `Reconstructed`).
        output: VssOutput,
    },
    /// A signing session produced an operator output.
    Tss {
        /// The signing-session id.
        sid: u64,
        /// The output (`Signed`, `Exhausted`).
        output: TssOutput,
    },
    /// A group-modification agreement produced an operator output.
    Mod {
        /// The agreement era.
        era: u64,
        /// The output (`Accepted`).
        output: GroupModOutput,
    },
}

/// The sink a hosted machine's handlers write their effects to.
pub(crate) type Sink<M> = ActionSink<<M as Protocol>::Message, <M as Protocol>::Output>;

/// A [`Protocol`] state machine the endpoint can host. The defaults suit a
/// machine that does no expensive crypto and never finishes.
pub(crate) trait Hosted:
    Protocol<Message: WireEncode, Operator: Clone> + Sized + 'static
{
    /// The session's name inside [`SessionKey`], [`Event`] and
    /// [`WalRecord`]: `τ`, `(dealer, τ)`, a signing-session id, an era.
    type Name: Copy;

    fn key(name: Self::Name) -> SessionKey;

    fn event(name: Self::Name, output: Self::Output) -> Event;

    fn wal_record(name: Self::Name, at: WallClock, input: Self::Operator) -> WalRecord;

    /// Decodes a datagram payload with whatever context the session holds:
    /// inline commitments resolve against the matrices it has already
    /// decompressed, anything else decodes context-free.
    fn decode(&self, payload: &[u8]) -> Result<Self::Message, WireError>;

    /// Whether the session a payload names in its own fields is `name`, the
    /// one its header routed it to.
    fn addressed_to(message: &Self::Message, name: Self::Name) -> bool;

    fn set_deferred_crypto(&mut self, _deferred: bool) {}

    fn poll_job(&mut self) -> Option<(u64, CryptoJob)> {
        None
    }

    fn has_queued_jobs(&self) -> bool {
        false
    }

    fn complete_job(&mut self, _id: u64, _verdict: CryptoVerdict, _sink: &mut Sink<Self>) {}

    fn is_complete(&self) -> bool {
        false
    }

    /// `None` while crypto jobs are outstanding.
    fn snapshot(&self) -> Option<SessionStateSnapshot>;
}

/// A hosted machine and the name it is hosted under. The name is routing
/// state kept beside the machine: a [`GroupModNode`] does not know its era.
pub(crate) struct Named<M: Hosted> {
    pub(crate) name: M::Name,
    pub(crate) node: Box<M>,
}

impl<M: Hosted> Named<M> {
    pub(crate) fn new(name: M::Name, node: M) -> Self {
        let node = Box::new(node);
        Named { name, node }
    }

    pub(crate) fn key(&self) -> SessionKey {
        M::key(self.name)
    }

    /// Decodes a payload routed to this session, refusing one that names a
    /// different session than its header did — a spliced or replayed
    /// datagram.
    pub(crate) fn decode(&self, payload: &[u8]) -> Result<M::Message, Reject> {
        let message = self.node.decode(payload).map_err(Reject::Malformed)?;
        if !M::addressed_to(&message, self.name) {
            return Err(Reject::SessionMismatch { header: self.key() });
        }
        Ok(message)
    }
}

/// The closed set of state machines an endpoint hosts.
pub(crate) enum Machine {
    Dkg(Named<DkgNode>),
    Vss(Named<VssNode>),
    Sign(Named<SignSession>),
    Mod(Named<GroupModNode>),
}

/// Evaluates `$body` with `$slot` bound to the [`Named`] machine inside
/// `$machine`, whichever kind it is.
macro_rules! dispatch {
    ($machine:expr, $slot:ident => $body:expr) => {
        match $machine {
            $crate::session::Machine::Dkg($slot) => $body,
            $crate::session::Machine::Vss($slot) => $body,
            $crate::session::Machine::Sign($slot) => $body,
            $crate::session::Machine::Mod($slot) => $body,
        }
    };
}
pub(crate) use dispatch;

impl Machine {
    /// The machine as a session of kind `M`, if it is one.
    pub(crate) fn hosted<M: Hosted>(&self) -> Option<&Named<M>> {
        dispatch!(self, slot => (slot as &dyn Any).downcast_ref())
    }

    pub(crate) fn hosted_mut<M: Hosted>(&mut self) -> Option<&mut Named<M>> {
        dispatch!(self, slot => (slot as &mut dyn Any).downcast_mut())
    }

    /// Re-injects the machine snapshotted under `key` by endpoint `id`,
    /// refusing one that speaks for another node or belongs under another
    /// key.
    pub(crate) fn restore(
        key: SessionKey,
        state: SessionStateSnapshot,
        id: NodeId,
    ) -> Result<Machine, RestoreError> {
        let misfiled = StoreError::Corrupt(WireError::InvalidValue {
            context: "session state filed under another session's key",
        });
        let machine = match state {
            SessionStateSnapshot::Dkg(snapshot) => {
                let node = DkgNode::restore(*snapshot)?;
                Machine::Dkg(Named::new(node.tau(), node))
            }
            SessionStateSnapshot::Vss {
                snapshot,
                directory,
            } => {
                let directory = directory
                    .map(|points| KeyDirectory::from_points(points).map(Arc::new))
                    .transpose()
                    .map_err(|node| dkg_vss::SnapshotError::InvalidDirectoryKey { node })?;
                let node = VssNode::restore(*snapshot, directory)?;
                Machine::Vss(Named::new(node.session(), node))
            }
            SessionStateSnapshot::Sign(snapshot) => {
                let session = SignSession::restore(*snapshot)?;
                Machine::Sign(Named::new(session.sid(), session))
            }
            SessionStateSnapshot::Mod(node) => {
                let SessionKey::Mod { era } = key else {
                    return Err(misfiled.into());
                };
                Machine::Mod(Named::new(era, *node))
            }
        };
        let (node, hosted_key) = dispatch!(&machine, slot => (slot.node.id(), slot.key()));
        if node != id {
            return Err(match machine {
                Machine::Sign(_) => dkg_tss::SnapshotError::ForeignNode { node }.into(),
                _ => dkg_vss::SnapshotError::ForeignNode { node }.into(),
            });
        }
        if hosted_key != key {
            return Err(misfiled.into());
        }
        Ok(machine)
    }
}

impl Hosted for DkgNode {
    type Name = u64;

    fn key(tau: u64) -> SessionKey {
        SessionKey::Dkg { tau }
    }

    fn event(tau: u64, output: Self::Output) -> Event {
        Event::Dkg { tau, output }
    }

    fn wal_record(tau: u64, at: WallClock, input: DkgInput) -> WalRecord {
        WalRecord::DkgOperator { at, tau, input }
    }

    fn decode(&self, payload: &[u8]) -> Result<DkgMessage, WireError> {
        DkgMessage::decode_known(payload, &|session, digest| {
            self.known_commitment(session, digest)
        })
    }

    fn addressed_to(message: &DkgMessage, tau: u64) -> bool {
        let message_tau = match message {
            DkgMessage::Vss(m) => m.session().tau,
            DkgMessage::Send { tau, .. }
            | DkgMessage::Echo { tau, .. }
            | DkgMessage::Ready { tau, .. }
            | DkgMessage::LeadCh { tau, .. } => *tau,
        };
        message_tau == tau
    }

    fn set_deferred_crypto(&mut self, deferred: bool) {
        DkgNode::set_deferred_crypto(self, deferred);
    }

    fn poll_job(&mut self) -> Option<(u64, CryptoJob)> {
        DkgNode::poll_job(self)
    }

    fn has_queued_jobs(&self) -> bool {
        DkgNode::has_queued_jobs(self)
    }

    fn complete_job(&mut self, id: u64, verdict: CryptoVerdict, sink: &mut Sink<Self>) {
        DkgNode::complete_job(self, id, verdict, sink);
    }

    fn is_complete(&self) -> bool {
        DkgNode::is_complete(self)
    }

    fn snapshot(&self) -> Option<SessionStateSnapshot> {
        let snapshot = DkgNode::snapshot(self)?;
        Some(SessionStateSnapshot::Dkg(Box::new(snapshot)))
    }
}

impl Hosted for VssNode {
    type Name = SessionId;

    fn key(session: SessionId) -> SessionKey {
        SessionKey::Vss { session }
    }

    fn event(session: SessionId, output: Self::Output) -> Event {
        Event::Vss { session, output }
    }

    fn wal_record(session: SessionId, at: WallClock, input: VssInput) -> WalRecord {
        WalRecord::VssOperator { at, session, input }
    }

    fn decode(&self, payload: &[u8]) -> Result<VssMessage, WireError> {
        VssMessage::decode_known(payload, &|session, digest| {
            self.known_commitment(session, digest)
        })
    }

    fn addressed_to(message: &VssMessage, session: SessionId) -> bool {
        message.session() == session
    }

    fn set_deferred_crypto(&mut self, deferred: bool) {
        VssNode::set_deferred_crypto(self, deferred);
    }

    fn poll_job(&mut self) -> Option<(u64, CryptoJob)> {
        VssNode::poll_job(self)
    }

    fn has_queued_jobs(&self) -> bool {
        VssNode::has_queued_jobs(self)
    }

    fn complete_job(&mut self, id: u64, verdict: CryptoVerdict, sink: &mut Sink<Self>) {
        for action in VssNode::complete_job(self, id, verdict) {
            match action {
                VssAction::Send { to, message } => sink.send(to, message),
                VssAction::Output(output) => sink.output(output),
            }
        }
    }

    fn is_complete(&self) -> bool {
        VssNode::is_complete(self)
    }

    fn snapshot(&self) -> Option<SessionStateSnapshot> {
        // `VssSnapshot` deliberately elides the signing directory, so it
        // travels alongside.
        Some(SessionStateSnapshot::Vss {
            snapshot: Box::new(VssNode::snapshot(self)?),
            directory: self.signing_directory().map(|directory| directory.points()),
        })
    }
}

/// A signing service never finishes: it keeps answering requests until
/// evicted.
impl Hosted for SignSession {
    type Name = u64;

    fn key(sid: u64) -> SessionKey {
        SessionKey::Sign { sid }
    }

    fn event(sid: u64, output: Self::Output) -> Event {
        Event::Tss { sid, output }
    }

    fn wal_record(sid: u64, at: WallClock, input: TssInput) -> WalRecord {
        WalRecord::TssOperator { at, sid, input }
    }

    fn decode(&self, payload: &[u8]) -> Result<TssMessage, WireError> {
        TssMessage::decode(payload)
    }

    fn addressed_to(message: &TssMessage, sid: u64) -> bool {
        message.sid() == sid
    }

    fn set_deferred_crypto(&mut self, deferred: bool) {
        SignSession::set_deferred_crypto(self, deferred);
    }

    fn poll_job(&mut self) -> Option<(u64, CryptoJob)> {
        SignSession::poll_job(self)
    }

    fn has_queued_jobs(&self) -> bool {
        SignSession::has_queued_jobs(self)
    }

    fn complete_job(&mut self, id: u64, verdict: CryptoVerdict, sink: &mut Sink<Self>) {
        SignSession::complete_job(self, id, &verdict, sink);
    }

    fn snapshot(&self) -> Option<SessionStateSnapshot> {
        let snapshot = SignSession::snapshot(self)?;
        Some(SessionStateSnapshot::Sign(Box::new(snapshot)))
    }
}

/// The §6 agreement broadcast is hash-free bookkeeping — it prepares no
/// crypto jobs — and, like signing, stays open for late deltas until the
/// phase change that applies them evicts it.
impl Hosted for GroupModNode {
    type Name = u64;

    fn key(era: u64) -> SessionKey {
        SessionKey::Mod { era }
    }

    fn event(era: u64, output: Self::Output) -> Event {
        Event::Mod { era, output }
    }

    fn wal_record(era: u64, at: WallClock, input: GroupModInput) -> WalRecord {
        WalRecord::ModOperator { at, era, input }
    }

    fn decode(&self, payload: &[u8]) -> Result<GroupModMessage, WireError> {
        GroupModMessage::decode(payload)
    }

    /// Group-mod payloads carry no era of their own (the change set is
    /// era-independent), so routing is by header alone.
    fn addressed_to(_message: &GroupModMessage, _era: u64) -> bool {
        true
    }

    fn snapshot(&self) -> Option<SessionStateSnapshot> {
        Some(SessionStateSnapshot::Mod(Box::new(self.clone())))
    }
}
