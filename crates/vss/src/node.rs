//! The HybridVSS node state machine (protocol `Sh`, `Rec` and the recovery
//! procedure of Fig. 1).
//!
//! [`VssNode`] is written as a plain state machine returning [`VssAction`]s
//! so that it can be used in two ways:
//!
//! * hosted by an endpoint as a session of its own through its
//!   [`dkg_sim::Protocol`] implementation (one VSS instance per run, as in
//!   experiments E1–E3), or
//! * embedded `n` times inside a DKG node (`dkg-core`), which multiplexes
//!   the messages of the `n` parallel sharings of §4.
//!
//! ## The crypto-job pipeline
//!
//! Every expensive check — `verify-poly` on the dealer's send, the
//! `verify-point` batches behind echo/ready points that arrive before this
//! node holds its row, the reconstruction share batch — is split into a
//! cheap **prepare** stage (bookkeeping plus an owned [`CryptoJob`]) and an
//! **apply** stage consuming the job's [`CryptoVerdict`]. By default the
//! node runs its own jobs inline at the prepare site, which reproduces the
//! fully synchronous behaviour byte-for-byte. With
//! [`VssNode::set_deferred_crypto`] the jobs are queued
//! instead: the embedding layer drains them with [`VssNode::poll_job`],
//! executes them wherever it likes (worker pool, another process) and feeds
//! results back through [`VssNode::complete_job`]. Job results are pure
//! functions of the job, so the two modes produce identical protocol
//! transcripts as long as verdicts are applied in job-id order.
//!
//! ## Echo/ready points: in the field once the row is held
//!
//! The polynomial is symmetric so that the point `f(m, i)` which `P_m`
//! echoes to `P_i` is also `a_i(m)`, a value of the row `P_i` checked with
//! `verify-poly` when the dealer's `send` arrived. A node that holds its row
//! under a symmetric matrix therefore judges a point with one Horner
//! evaluation in `Z_q` at the prepare site — no job, no group operation —
//! which on the honest path is every point of a sharing. The point job
//! against the row projection is the fallback for the cases that have no
//! row to compare with (see `VssNode::submit_points`, which also carries the
//! argument that the two tests are the same predicate). One consequence for
//! placement: the apply stage of a field-judged point, ready-witness
//! signature check included, runs inside `handle_message` rather than
//! inside `complete_job`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dkg_arith::{PrimeField, Scalar};
use dkg_crypto::{Digest, KeyDirectory, NodeId, SigningKey};
use dkg_poly::{
    interpolate_polynomial, interpolate_secret, CommitmentMatrix, CommitmentVector, CryptoJob,
    CryptoVerdict, JobQueue, ShareCollector, ShareProgress, Submission, SymmetricBivariate,
    Univariate,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{CommitmentMode, VssConfig};
use crate::messages::{
    CommitmentRef, InlineCommitment, ReadyWitness, SessionId, VssInput, VssMessage, VssOutput,
};
use crate::snapshot::{PendingPoint, SnapshotError, Tally, VssSnapshot};

/// An effect produced by the VSS state machine.
#[derive(Clone, Debug, PartialEq)]
pub enum VssAction {
    /// Send a message to a node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        message: VssMessage,
    },
    /// Produce an operator output.
    Output(VssOutput),
}

/// Keys used by the extended (signed-ready) HybridVSS variant.
#[derive(Clone, Debug)]
pub struct SigningContext {
    /// This node's signing key.
    pub key: SigningKey,
    /// The public directory used to verify other nodes' ready signatures.
    /// Shared: the `n` embedded instances of a DKG node clone this context
    /// `n` times, which must not copy the directory `n` times.
    pub directory: Arc<KeyDirectory>,
}

impl Tally {
    /// The senders whose `echo` (resp. `ready`) has been processed.
    fn seen(&self, is_ready: bool) -> &BTreeSet<NodeId> {
        if is_ready {
            &self.ready_from
        } else {
            &self.echo_from
        }
    }
}

/// Identifies a [`CryptoJob`] handed out by [`VssNode::poll_job`].
pub type VssJobId = u64;

/// The protocol context a job's verdict re-enters through: everything the
/// apply stage needs that is not part of the pure crypto work itself.
#[derive(Clone, Debug)]
enum JobCtx {
    /// `verify-poly` on the dealer's send; on success the commitment and
    /// row are adopted and echoes go out.
    Dealing {
        digest: Digest,
        commitment: Arc<CommitmentMatrix>,
        row: Univariate,
    },
    /// A batch of echo/ready points under one known commitment; entries
    /// align with the job's claims.
    Points {
        digest: Digest,
        entries: Vec<PendingPoint>,
    },
    /// A batch of reconstruction shares; entries align with the claims.
    ReconstructShares { entries: Vec<(NodeId, Scalar)> },
}

/// The HybridVSS state machine for one node and one session `(P_d, τ)`.
#[derive(Debug)]
pub struct VssNode {
    id: NodeId,
    config: VssConfig,
    session: SessionId,
    signing: Option<SigningContext>,
    rng: StdRng,

    /// Tallies per commitment digest.
    tallies: BTreeMap<Digest, Tally>,
    /// Fully known commitment matrices per digest (shared with the jobs
    /// prepared against them — cloning one is a refcount bump).
    commitments: BTreeMap<Digest, Arc<CommitmentMatrix>>,
    /// This node's row projection ([`CommitmentMatrix::project`] at
    /// `self.id`) of each matrix it had to judge points under *in the
    /// group* — before it held its row, or because the matrix is not
    /// symmetric; empty on the honest path. Derived state: computed on the
    /// first point job of a digest, never sent, logged or snapshotted, and
    /// derived again on first use after [`VssNode::restore`].
    projections: BTreeMap<Digest, Arc<CommitmentVector>>,
    /// Points buffered until their commitment is known (digest mode): at
    /// most one `echo` and one `ready` per sender.
    pending: BTreeMap<Digest, Vec<PendingPoint>>,
    /// Whether the dealer's `send` has been processed already.
    send_handled: bool,

    /// Sharing result.
    completed: Option<(Arc<CommitmentMatrix>, Scalar)>,
    completed_witnesses: Vec<ReadyWitness>,

    /// Reconstruction state: the shared pool-then-batch discipline
    /// ([`ShareCollector`]) plus the result.
    reconstruct_started: bool,
    reconstruct: ShareCollector,
    reconstructed: Option<Scalar>,

    /// `B`: all outgoing messages, by intended recipient (for recovery).
    outbox: BTreeMap<NodeId, Vec<VssMessage>>,
    /// `c`: total help responses granted.
    help_granted_total: u64,
    /// `c_ℓ`: help responses granted per requester.
    help_granted_per: BTreeMap<NodeId, u64>,

    /// Prepared jobs: run inline at the prepare site by default, queued
    /// for [`VssNode::poll_job`] in deferred mode.
    jobs: JobQueue<JobCtx>,

    /// The dealer's own dealt polynomial — kept only under the `malice`
    /// test-configuration feature so the adversary harness can extract the
    /// dealing and re-share it maliciously. Deliberately **not** part of
    /// snapshots: honest protocol state never depends on it.
    #[cfg(feature = "malice")]
    dealt: Option<SymmetricBivariate>,
}

impl VssNode {
    /// Creates the state machine for node `id` in session `session`.
    ///
    /// `rng_seed` drives only this node's local randomness (the dealer's
    /// polynomial and signature nonces). `signing` enables the extended
    /// signed-ready variant used by the DKG.
    pub fn new(
        id: NodeId,
        config: VssConfig,
        session: SessionId,
        rng_seed: u64,
        signing: Option<SigningContext>,
    ) -> Self {
        VssNode {
            id,
            config,
            session,
            signing,
            rng: StdRng::seed_from_u64(rng_seed),
            tallies: BTreeMap::new(),
            commitments: BTreeMap::new(),
            projections: BTreeMap::new(),
            pending: BTreeMap::new(),
            send_handled: false,
            completed: None,
            completed_witnesses: Vec::new(),
            reconstruct_started: false,
            reconstruct: ShareCollector::new(),
            reconstructed: None,
            outbox: BTreeMap::new(),
            help_granted_total: 0,
            help_granted_per: BTreeMap::new(),
            jobs: JobQueue::new(),
            #[cfg(feature = "malice")]
            dealt: None,
        }
    }

    /// The bivariate polynomial this node dealt in this session, if it was
    /// the dealer and `deal` has run. Only exists under the `malice`
    /// feature — the hook the active-adversary harness uses to craft
    /// sharings that are strategically related to the honest dealing
    /// (equivocating twins, perturbed rows). A node restored from a
    /// snapshot returns `None`: the dealing is not stable state.
    #[cfg(feature = "malice")]
    pub fn dealt_polynomial(&self) -> Option<&SymmetricBivariate> {
        self.dealt.as_ref()
    }

    // ------------------------------------------------------------------
    // Snapshot extraction / re-injection (crash-recovery, §5.3)
    // ------------------------------------------------------------------

    /// Extracts the node's complete stable state as a [`VssSnapshot`].
    ///
    /// Returns `None` while crypto jobs are queued or in flight: a pending
    /// job's context is transient, so persistence layers snapshot only at
    /// job-quiescent points and re-create in-flight work by replaying the
    /// logged inputs.
    pub fn snapshot(&self) -> Option<VssSnapshot> {
        if !self.jobs.is_idle() {
            return None;
        }
        let (reconstruct_pending, reconstruct_verified) = self.reconstruct.to_parts();
        Some(VssSnapshot {
            id: self.id,
            session: self.session,
            config: self.config.clone(),
            rng: self.rng.state(),
            signing_key: self.signing.as_ref().map(|s| s.key.secret()),
            send_handled: self.send_handled,
            tallies: self.tallies.clone(),
            commitments: self.commitments.clone(),
            pending: self.pending.clone(),
            completed: self.completed.clone(),
            completed_witnesses: self.completed_witnesses.clone(),
            reconstruct_started: self.reconstruct_started,
            reconstruct_pending,
            reconstruct_verified,
            reconstructed: self.reconstructed,
            outbox: self.outbox.clone(),
            help_granted_total: self.help_granted_total,
            help_granted_per: self.help_granted_per.clone(),
        })
    }

    /// Rebuilds a node from a [`VssSnapshot`], re-injecting the shared key
    /// `directory` (required exactly when the snapshot carries a signing
    /// key — the directory is persisted once by the embedding layer, not
    /// per instance). The restored machine is state-identical to the one
    /// the snapshot was taken from.
    pub fn restore(
        snapshot: VssSnapshot,
        directory: Option<Arc<KeyDirectory>>,
    ) -> Result<Self, SnapshotError> {
        if !snapshot.config.nodes.contains(&snapshot.id) {
            return Err(SnapshotError::ForeignNode { node: snapshot.id });
        }
        let signing = match snapshot.signing_key {
            None => None,
            Some(secret) => {
                let key =
                    SigningKey::from_scalar(secret).ok_or(SnapshotError::InvalidSigningKey)?;
                let directory = directory.ok_or(SnapshotError::MissingDirectory)?;
                Some(SigningContext { key, directory })
            }
        };
        Ok(VssNode {
            id: snapshot.id,
            config: snapshot.config,
            session: snapshot.session,
            signing,
            rng: StdRng::from_state(snapshot.rng),
            tallies: snapshot.tallies,
            commitments: snapshot.commitments,
            projections: BTreeMap::new(),
            pending: snapshot.pending,
            send_handled: snapshot.send_handled,
            completed: snapshot.completed,
            completed_witnesses: snapshot.completed_witnesses,
            reconstruct_started: snapshot.reconstruct_started,
            reconstruct: ShareCollector::from_parts(
                snapshot.reconstruct_pending,
                snapshot.reconstruct_verified,
            ),
            reconstructed: snapshot.reconstructed,
            outbox: snapshot.outbox,
            help_granted_total: snapshot.help_granted_total,
            help_granted_per: snapshot.help_granted_per,
            jobs: JobQueue::new(),
            #[cfg(feature = "malice")]
            dealt: None,
        })
    }

    /// The shared key directory of the extended (signed-ready) variant, if
    /// any — what an embedding layer persists *once* alongside snapshots
    /// whose [`VssSnapshot::signing_key`] is set.
    pub fn signing_directory(&self) -> Option<&Arc<KeyDirectory>> {
        self.signing.as_ref().map(|s| &s.directory)
    }

    /// The fully decoded commitment matrix this session holds under
    /// `digest`, if `session` is this node's session — the lookup
    /// [`VssMessage::decode_known`] resolves inline commitments against.
    /// Every matrix in the store was decompressed and validated when it was
    /// first decoded, and is keyed by the SHA-256 of its point bytes.
    pub fn known_commitment(
        &self,
        session: SessionId,
        digest: &Digest,
    ) -> Option<Arc<CommitmentMatrix>> {
        if session != self.session {
            return None;
        }
        self.commitments.get(digest).cloned()
    }

    /// How many row projections this node holds: one per digest it has
    /// prepared a point job under — none when every point found the node's
    /// row already in place (the honest path), none right after
    /// [`VssNode::restore`].
    pub fn projection_count(&self) -> usize {
        self.projections.len()
    }

    // ------------------------------------------------------------------
    // Crypto-job pipeline
    // ------------------------------------------------------------------

    /// Switches between inline crypto (default; every prepared job runs
    /// immediately at its prepare site) and deferred crypto (jobs queue for
    /// [`VssNode::poll_job`] / [`VssNode::complete_job`]).
    pub fn set_deferred_crypto(&mut self, deferred: bool) {
        self.jobs.set_deferred(deferred);
    }

    /// Takes the next prepared [`CryptoJob`], if any (deferred mode only;
    /// inline mode never queues).
    pub fn poll_job(&mut self) -> Option<(VssJobId, CryptoJob)> {
        self.jobs.poll()
    }

    /// Jobs prepared but not yet completed (queued plus polled).
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.in_flight()
    }

    /// Whether any prepared job is waiting to be polled.
    pub fn has_queued_jobs(&self) -> bool {
        self.jobs.queued() > 0
    }

    /// Feeds back the verdict of a previously polled job, returning the
    /// protocol actions its apply stage produced. Unknown ids (e.g. a job
    /// completed twice) and wrong-length verdicts are ignored.
    pub fn complete_job(&mut self, id: VssJobId, verdict: CryptoVerdict) -> Vec<VssAction> {
        let mut actions = Vec::new();
        if let Some(ctx) = self.jobs.complete(id, &verdict) {
            self.apply_verdict(ctx, verdict, &mut actions);
        }
        actions
    }

    /// Runs `job` inline or queues it, depending on the configured mode.
    fn submit(&mut self, job: CryptoJob, ctx: JobCtx, actions: &mut Vec<VssAction>) {
        if let Submission::Ready(ctx, verdict) = self.jobs.submit(job, ctx) {
            self.apply_verdict(ctx, verdict, actions);
        }
    }

    /// The apply stage: consumes a verdict under the context captured at
    /// prepare time.
    fn apply_verdict(&mut self, ctx: JobCtx, verdict: CryptoVerdict, actions: &mut Vec<VssAction>) {
        match ctx {
            JobCtx::Dealing {
                digest,
                commitment,
                row,
            } => self.apply_dealing(digest, commitment, row, verdict.all_valid(), actions),
            JobCtx::Points { digest, entries } => {
                for (entry, valid) in entries.into_iter().zip(verdict.valid) {
                    self.process_point(digest, entry, valid, actions);
                }
            }
            JobCtx::ReconstructShares { entries } => {
                self.apply_reconstruct_shares(entries, &verdict.valid, actions)
            }
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The session this instance belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The configuration.
    pub fn config(&self) -> &VssConfig {
        &self.config
    }

    /// Whether the sharing protocol has completed at this node.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// This node's share, once the sharing completed.
    pub fn share(&self) -> Option<Scalar> {
        self.completed.as_ref().map(|(_, s)| *s)
    }

    /// The agreed commitment, once the sharing completed.
    pub fn commitment(&self) -> Option<&CommitmentMatrix> {
        self.completed.as_ref().map(|(c, _)| c.as_ref())
    }

    /// The signed ready witnesses collected by the extended variant.
    pub fn ready_witnesses(&self) -> &[ReadyWitness] {
        &self.completed_witnesses
    }

    /// The reconstructed secret, once `Rec` completed.
    pub fn reconstructed(&self) -> Option<Scalar> {
        self.reconstructed
    }

    /// Handles an operator `in` message.
    pub fn handle_input(&mut self, input: VssInput) -> Vec<VssAction> {
        let mut actions = Vec::new();
        match input {
            VssInput::Share { secret } => self.deal(secret, &mut actions),
            VssInput::Reconstruct => self.start_reconstruction(&mut actions),
            VssInput::Recover => self.recover(&mut actions),
        }
        actions
    }

    /// Handles a network message.
    pub fn handle_message(&mut self, from: NodeId, message: VssMessage) -> Vec<VssAction> {
        let mut actions = Vec::new();
        if message.session() != self.session {
            return actions;
        }
        match message {
            VssMessage::Send {
                commitment, row, ..
            } => self.on_send(from, commitment, row, &mut actions),
            VssMessage::Echo {
                commitment, point, ..
            } => self.on_point(from, commitment, point, false, None, &mut actions),
            VssMessage::Ready {
                commitment,
                point,
                signature,
                ..
            } => self.on_point(from, commitment, point, true, signature, &mut actions),
            VssMessage::ReconstructShare { share, .. } => {
                self.on_reconstruct_share(from, share, &mut actions)
            }
            VssMessage::Help { .. } => self.on_help(from, &mut actions),
        }
        actions
    }

    /// The crash-recovery procedure: ask every node for help and retransmit
    /// this node's own outgoing messages (`B`).
    pub fn recover(&mut self, actions: &mut Vec<VssAction>) {
        for &node in &self.config.nodes {
            actions.push(VssAction::Send {
                to: node,
                message: VssMessage::Help {
                    session: self.session,
                },
            });
        }
        for (&to, messages) in &self.outbox {
            for message in messages {
                actions.push(VssAction::Send {
                    to,
                    message: message.clone(),
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharing (Sh)
    // ------------------------------------------------------------------

    /// Dealer: share `secret` (the `(P_d, τ, in, share, s)` handler).
    fn deal(&mut self, secret: Scalar, actions: &mut Vec<VssAction>) {
        if self.id != self.session.dealer {
            return;
        }
        let poly = SymmetricBivariate::random_with_secret(&mut self.rng, self.config.t, secret);
        let commitment = CommitmentMatrix::commit(&poly);
        for &node in &self.config.nodes.clone() {
            let message = VssMessage::Send {
                session: self.session,
                commitment: commitment.clone(),
                row: poly.row(node),
            };
            self.send_recorded(node, message, actions);
        }
        #[cfg(feature = "malice")]
        {
            self.dealt = Some(poly);
        }
    }

    /// Handler for the dealer's `send` message: the prepare stage. Cheap
    /// admission checks happen here; the `verify-poly` work becomes a
    /// [`CryptoJob`] whose verdict re-enters through [`Self::apply_dealing`].
    fn on_send(
        &mut self,
        from: NodeId,
        commitment: CommitmentMatrix,
        row: Univariate,
        actions: &mut Vec<VssAction>,
    ) {
        if from != self.session.dealer || self.send_handled {
            return;
        }
        self.send_handled = true;
        if commitment.threshold() != self.config.t {
            return;
        }
        let digest = dkg_crypto::sha256(&commitment.to_bytes());
        let commitment = Arc::new(commitment);
        let job = CryptoJob::VerifyPoly {
            matrix: Arc::clone(&commitment),
            index: self.id,
            row: row.clone(),
        };
        self.submit(
            job,
            JobCtx::Dealing {
                digest,
                commitment,
                row,
            },
            actions,
        );
    }

    /// Apply stage of the dealer's `send`: adopt the verified commitment,
    /// echo its points to everyone and release any buffered points.
    fn apply_dealing(
        &mut self,
        digest: Digest,
        commitment: Arc<CommitmentMatrix>,
        row: Univariate,
        valid: bool,
        actions: &mut Vec<VssAction>,
    ) {
        if !valid {
            return;
        }
        // An echo or ready may have taught us this matrix first; keep that
        // handle so the session holds each matrix exactly once.
        let commitment = Arc::clone(self.commitments.entry(digest).or_insert(commitment));
        {
            let tally = self.tallies.entry(digest).or_default();
            if tally.row.is_none() {
                tally.row = Some(row.clone());
            }
            if tally.echo_sent {
                return;
            }
            tally.echo_sent = true;
        }
        // Send echo messages (C or its digest, plus a(j)) to every node.
        for &node in &self.config.nodes.clone() {
            let commitment_ref = self.commitment_ref(&commitment, digest);
            let message = VssMessage::Echo {
                session: self.session,
                commitment: commitment_ref,
                point: row.evaluate_at_index(node),
            };
            self.send_recorded(node, message, actions);
        }
        // Points that arrived before we knew this commitment can now be
        // verified (digest mode).
        self.flush_pending(digest, actions);
    }

    /// Common handler for `echo` and `ready` points.
    fn on_point(
        &mut self,
        from: NodeId,
        commitment: CommitmentRef,
        point: Scalar,
        is_ready: bool,
        signature: Option<dkg_crypto::Signature>,
        actions: &mut Vec<VssAction>,
    ) {
        let digest = commitment.digest();
        // Fig. 1's "first time" is per sender and message type, and an
        // honest node sends its one echo and its one ready under a single
        // commitment. A sender that already spent this kind under another
        // digest is dropped here, before its inline matrix (or anything
        // derived from it) is stored — otherwise every fresh `C` it invents
        // would cost this node a matrix, a tally and a projection.
        if self.spent_under_other_digest(from, is_ready, &digest) {
            return;
        }
        // Learn the commitment if it was carried inline.
        if let Some(matrix) = commitment.matrix() {
            if matrix.threshold() == self.config.t {
                self.commitments
                    .entry(digest)
                    .or_insert_with(|| Arc::clone(matrix));
            }
        }
        if !self.commitments.contains_key(&digest) {
            // Digest mode: buffer until the dealer's send arrives. An
            // honest node sends one echo and one ready per session and
            // links are authenticated, so each sender gets one pending slot
            // of each kind; whatever else it sends for unknown digests is
            // dropped (the guard above covers other digests), which bounds
            // the buffer by 2n points.
            let slot = self.pending.entry(digest).or_default();
            if !slot
                .iter()
                .any(|p| p.from == from && p.is_ready == is_ready)
            {
                slot.push(PendingPoint {
                    from,
                    point,
                    is_ready,
                    signature,
                });
            }
            return;
        }
        // Cheap, non-mutating pre-filters so already-settled traffic does
        // not generate crypto work; the authoritative (mutating) guards run
        // again in the apply stage.
        if self.completed.is_some() {
            return;
        }
        if let Some(tally) = self.tallies.get(&digest) {
            if tally.seen(is_ready).contains(&from) {
                return;
            }
        }
        self.submit_points(
            digest,
            vec![PendingPoint {
                from,
                point,
                is_ready,
                signature,
            }],
            actions,
        );
    }

    /// Whether `from` already has an `echo` (resp. `ready`) processed or
    /// buffered under a digest other than `digest`. Read off the tallies
    /// and the pending buffer, i.e. state a snapshot carries, so a restored
    /// node keeps refusing what the live one refused. (A point whose job is
    /// still in flight is in neither yet; the drivers settle a datagram's
    /// jobs before they deliver the next one.)
    fn spent_under_other_digest(&self, from: NodeId, is_ready: bool, digest: &Digest) -> bool {
        let processed = self
            .tallies
            .iter()
            .any(|(other, tally)| other != digest && tally.seen(is_ready).contains(&from));
        processed
            || self.pending.iter().any(|(other, points)| {
                other != digest
                    && points
                        .iter()
                        .any(|p| p.from == from && p.is_ready == is_ready)
            })
    }

    fn flush_pending(&mut self, digest: Digest, actions: &mut Vec<VssAction>) {
        let Some(pending) = self.pending.remove(&digest) else {
            return;
        };
        self.submit_points(digest, pending, actions);
    }

    /// Prepare stage for echo/ready points, and the one place that decides
    /// *where* `verify-point` is evaluated.
    ///
    /// **Row held, matrix symmetric ⇒ in the field.** Once this node holds
    /// its row `a` under the digest (`tally.row`: the dealer's row accepted
    /// by `verify-poly`, or the row interpolated from `t + 1` verified
    /// points), the point `α` claimed by `P_m` is judged by
    /// `a(m) == α` — one Horner evaluation in `Z_q`, no group operation, no
    /// job — and applied right here through [`Self::process_point`]. This is
    /// the *same predicate* as the group check, not an approximation of it.
    /// Let `R_j = Π_ℓ (C_{jℓ})^{i^ℓ}` be this node's row projection, so
    /// that `verify-point(C, i, m, α) ⇔ g^α = Π_j R_j^{m^j}`. For a
    /// symmetric `C`, `verify-poly(C, i, a)` gives
    /// `g^{a_ℓ} = Π_j (C_{jℓ})^{i^j} = Π_j (C_{ℓj})^{i^j} = R_ℓ`; an
    /// interpolated row comes from `t + 1` points that each satisfied
    /// `g^α = Π_j R_j^{m^j}` at distinct `m`, and the Vandermonde system
    /// they form is invertible, so again `g^{a_j} = R_j`. Either way
    /// `Π_j R_j^{m^j} = g^{a(m)}`, and in a group of prime order `q`
    /// `g^α = g^{a(m)} ⇔ α = a(m)`.
    ///
    /// **Otherwise ⇒ in the group**, as one [`CryptoJob`] against this
    /// node's projection of the commitment (derived here the first time the
    /// digest needs one): no row yet (an inline matrix that outran the
    /// `send`, a node that never gets a valid `send`), or an asymmetric
    /// matrix from a Byzantine dealer — there `verify-poly` bound the row to
    /// the *column* products, the field test would answer a different
    /// question, and symmetry is what gates it. The job folds the batch
    /// into a single multiexp and attributes blame per point when the fold
    /// rejects, so only bad tuples are discarded (RLC accepts ⇒ every tuple
    /// verifies; the fast path never admits a point the slow path would
    /// reject).
    fn submit_points(
        &mut self,
        digest: Digest,
        entries: Vec<PendingPoint>,
        actions: &mut Vec<VssAction>,
    ) {
        if entries.is_empty() {
            return;
        }
        let commitment = &self.commitments[&digest];
        let row = self.tallies.get(&digest).and_then(|t| t.row.as_ref());
        if let Some(row) = row.filter(|_| commitment.is_symmetric()) {
            let verdicts: Vec<bool> = entries
                .iter()
                .map(|p| row.evaluate_at_index(p.from) == p.point)
                .collect();
            for (entry, valid) in entries.into_iter().zip(verdicts) {
                self.process_point(digest, entry, valid, actions);
            }
            return;
        }
        let projection = self
            .projections
            .entry(digest)
            .or_insert_with(|| Arc::new(commitment.project(self.id)));
        let claims = entries.iter().map(|p| (p.from, p.point)).collect();
        let job = CryptoJob::point_batch(Arc::clone(projection), claims);
        self.submit(job, JobCtx::Points { digest, entries }, actions);
    }

    /// Apply stage for one echo/ready point: Fig. 1's first-time guard,
    /// tally update and threshold reactions, with the `verify-point` result
    /// already decided — in the field at the prepare site or by the point's
    /// job (see [`Self::submit_points`]).
    fn process_point(
        &mut self,
        digest: Digest,
        entry: PendingPoint,
        verified: bool,
        actions: &mut Vec<VssAction>,
    ) {
        let PendingPoint {
            from,
            point,
            is_ready,
            signature,
        } = entry;
        if self.completed.is_some() {
            return;
        }
        let commitment = self.commitments[&digest].clone();
        // "First time" guard per sender and message type, then the tally
        // update for verified points.
        {
            let tally = self.tallies.entry(digest).or_default();
            let seen = if is_ready {
                &mut tally.ready_from
            } else {
                &mut tally.echo_from
            };
            if !seen.insert(from) {
                return;
            }
        }
        if !verified {
            return;
        }
        // Extended variant: a `ready` counts only with its witness (§2.3,
        // unauthenticated messages are discarded). Tallying one whose
        // signature is missing or bad would let this node complete with
        // fewer than n − t − f witnesses, and a leader's `ReadyProofs` built
        // from them is rejected by everyone.
        let witness = match &self.signing {
            Some(signing) if is_ready => {
                let payload = ReadyWitness::payload(&self.session, &digest);
                let verifies =
                    |s: &dkg_crypto::Signature| signing.directory.verify(from, &payload, s).is_ok();
                let Some(signature) = signature.filter(verifies) else {
                    return;
                };
                Some(ReadyWitness {
                    node: from,
                    signature,
                })
            }
            _ => None,
        };
        {
            let tally = self.tallies.get_mut(&digest).expect("tally exists");
            tally.points.insert(from, point);
            if is_ready {
                tally.ready_verified.insert(from);
                tally.witnesses.extend(witness);
            } else {
                tally.echo_verified.insert(from);
            }
        }

        let echo_threshold = self.config.echo_threshold();
        let ready_amplify = self.config.ready_amplify_threshold();
        let completion = self.config.completion_threshold();
        let (echo_count, ready_count) = {
            let tally = &self.tallies[&digest];
            (tally.echo_verified.len(), tally.ready_verified.len())
        };

        // e_C = ⌈(n+t+1)/2⌉ with r_C < t+1, or r_C = t+1 with
        // e_C < ⌈(n+t+1)/2⌉: interpolate our row and send ready messages.
        let should_send_ready = if !is_ready {
            echo_count == echo_threshold && ready_count < ready_amplify
        } else {
            ready_count == ready_amplify && echo_count < echo_threshold
        };
        if should_send_ready {
            let row = {
                let tally = self.tallies.get_mut(&digest).expect("tally exists");
                if tally.ready_sent {
                    None
                } else {
                    tally.ready_sent = true;
                    let row = Self::interpolate_row(tally, self.config.t);
                    tally.row = Some(row.clone());
                    Some(row)
                }
            };
            if let Some(row) = row {
                let session = self.session;
                let mode_ref = self.commitment_ref(&commitment, digest);
                let signature = self.signing.clone().map(|signing| {
                    let payload = ReadyWitness::payload(&session, &digest);
                    signing.key.sign(&mut self.rng, &payload)
                });
                for node in self.config.nodes.clone() {
                    let message = VssMessage::Ready {
                        session,
                        commitment: mode_ref.clone(),
                        point: row.evaluate_at_index(node),
                        signature,
                    };
                    self.send_recorded(node, message, actions);
                }
            }
        }

        // Completion: r_C = n − t − f.
        if is_ready && ready_count == completion {
            let (row, witnesses) = {
                let tally = self.tallies.get_mut(&digest).expect("tally exists");
                let row = match &tally.row {
                    Some(r) => r.clone(),
                    None => {
                        let r = Self::interpolate_row(tally, self.config.t);
                        tally.row = Some(r.clone());
                        r
                    }
                };
                (row, tally.witnesses.clone())
            };
            let share = row.constant_term();
            self.completed = Some((Arc::clone(&commitment), share));
            self.completed_witnesses = witnesses.clone();
            actions.push(VssAction::Output(VssOutput::Shared {
                session: self.session,
                // The one place the matrix leaves the shared handle: the
                // operator output owns a plain copy.
                commitment: (*commitment).clone(),
                share,
                ready_proof: witnesses,
            }));
        }
    }

    fn interpolate_row(tally: &Tally, t: usize) -> Univariate {
        let points: Vec<(Scalar, Scalar)> = tally
            .points
            .iter()
            .take(t + 1)
            .map(|(&m, &alpha)| (Scalar::from_u64(m), alpha))
            .collect();
        interpolate_polynomial(&points).expect("distinct node indices")
    }

    fn commitment_ref(&self, commitment: &Arc<CommitmentMatrix>, digest: Digest) -> CommitmentRef {
        match self.config.mode {
            CommitmentMode::Full => {
                CommitmentRef::Full(InlineCommitment::from_parts(Arc::clone(commitment), digest))
            }
            CommitmentMode::Digest => CommitmentRef::Digest(digest),
        }
    }

    // ------------------------------------------------------------------
    // Reconstruction (Rec)
    // ------------------------------------------------------------------

    fn start_reconstruction(&mut self, actions: &mut Vec<VssAction>) {
        let Some((_, share)) = &self.completed else {
            return;
        };
        if self.reconstruct_started {
            return;
        }
        self.reconstruct_started = true;
        let share = *share;
        for &node in &self.config.nodes.clone() {
            let message = VssMessage::ReconstructShare {
                session: self.session,
                share,
            };
            self.send_recorded(node, message, actions);
        }
    }

    fn on_reconstruct_share(&mut self, from: NodeId, share: Scalar, actions: &mut Vec<VssAction>) {
        if self.reconstructed.is_some() {
            return;
        }
        if self.completed.is_none() || self.reconstruct.seen(from) {
            return;
        }
        // Pool the share unverified; each share must satisfy
        // g^{s_m} = Π_j (C_{j0})^{m^j}, but validating lazily lets a whole
        // quorum be checked with one folded multiexp instead of t + 1
        // separate ones.
        if let Some(entries) = self.reconstruct.pool(from, share, self.config.t + 1) {
            self.submit_share_batch(entries, actions);
        }
    }

    fn submit_share_batch(&mut self, entries: Vec<(u64, Scalar)>, actions: &mut Vec<VssAction>) {
        let (commitment, _) = self.completed.as_ref().expect("caller checked completion");
        let job = CryptoJob::ShareBatch {
            matrix: Arc::clone(commitment),
            shares: entries.clone(),
        };
        self.submit(job, JobCtx::ReconstructShares { entries }, actions);
    }

    /// Apply stage for a reconstruction share batch: keep exactly the
    /// shares the job validated, interpolate once a quorum is in, and
    /// re-batch any shares that pooled while this batch was in flight.
    fn apply_reconstruct_shares(
        &mut self,
        entries: Vec<(NodeId, Scalar)>,
        valid: &[bool],
        actions: &mut Vec<VssAction>,
    ) {
        if self.reconstructed.is_some() || self.completed.is_none() {
            return;
        }
        match self.reconstruct.absorb(entries, valid, self.config.t + 1) {
            ShareProgress::Quorum(shares) => {
                let value = interpolate_secret(&shares).expect("distinct indices");
                self.reconstructed = Some(value);
                actions.push(VssAction::Output(VssOutput::Reconstructed {
                    session: self.session,
                    value,
                }));
            }
            ShareProgress::Submit(entries) => self.submit_share_batch(entries, actions),
            ShareProgress::Pending => {}
        }
    }

    // ------------------------------------------------------------------
    // Recovery (help)
    // ------------------------------------------------------------------

    fn on_help(&mut self, from: NodeId, actions: &mut Vec<VssAction>) {
        let per = self.help_granted_per.entry(from).or_insert(0);
        if *per > self.config.per_node_help_limit()
            || self.help_granted_total > self.config.total_help_limit()
        {
            return;
        }
        *per += 1;
        self.help_granted_total += 1;
        if let Some(messages) = self.outbox.get(&from).cloned() {
            for message in messages {
                actions.push(VssAction::Send { to: from, message });
            }
        }
    }

    /// Sends a message and records it in `B` for later retransmission.
    fn send_recorded(&mut self, to: NodeId, message: VssMessage, actions: &mut Vec<VssAction>) {
        let stored = match &message {
            // Share renewal (§5.2) requires that retransmitted send messages
            // carry only the commitment, not the univariate polynomials; the
            // row is what could leak the previous share. We keep the row out
            // of B for every stored send message, which is strictly safer and
            // matches the renewal protocol's requirement.
            VssMessage::Send {
                session,
                commitment,
                ..
            } => VssMessage::Send {
                session: *session,
                commitment: commitment.clone(),
                row: Univariate::zero(self.config.t),
            },
            other => other.clone(),
        };
        self.outbox.entry(to).or_default().push(stored);
        actions.push(VssAction::Send { to, message });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitmentMode;

    fn config(n: usize, f: usize, mode: CommitmentMode) -> VssConfig {
        let t = (n - 2 * f - 1) / 3;
        VssConfig::new((1..=n as u64).collect(), t, f, 8, mode).unwrap()
    }

    /// Drives a set of VssNodes to completion by synchronously delivering all
    /// produced messages (no network, no faults) — a pure state-machine test.
    fn run_synchronously(
        nodes: &mut BTreeMap<NodeId, VssNode>,
        initial: Vec<(NodeId, Vec<VssAction>)>,
    ) -> Vec<(NodeId, VssOutput)> {
        let mut outputs = Vec::new();
        let mut queue: Vec<(NodeId, NodeId, VssMessage)> = Vec::new();
        for (from, actions) in initial {
            for action in actions {
                match action {
                    VssAction::Send { to, message } => queue.push((from, to, message)),
                    VssAction::Output(o) => outputs.push((from, o)),
                }
            }
        }
        while let Some((from, to, message)) = queue.pop() {
            let Some(node) = nodes.get_mut(&to) else {
                continue;
            };
            let mut actions = node.handle_message(from, message);
            // Deferred nodes queue crypto jobs instead of acting; run them
            // here and feed the verdicts back (inline nodes queue nothing).
            while let Some((id, job)) = node.poll_job() {
                actions.extend(node.complete_job(id, job.run()));
            }
            for action in actions {
                match action {
                    VssAction::Send {
                        to: next_to,
                        message,
                    } => {
                        queue.push((to, next_to, message));
                    }
                    VssAction::Output(o) => outputs.push((to, o)),
                }
            }
        }
        outputs
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let key = SigningKey::generate(&mut rng);
        let mut directory = KeyDirectory::new();
        directory.register(1, key.public_key());
        let signing = SigningContext {
            key,
            directory: Arc::new(directory),
        };
        let node = VssNode::new(1, cfg, session, 7, Some(signing));
        let snapshot = node.snapshot().expect("idle node snapshots");

        // A snapshot claiming a node outside its own membership.
        let mut foreign = snapshot.clone();
        foreign.id = 99;
        assert_eq!(
            VssNode::restore(foreign, None).err(),
            Some(SnapshotError::ForeignNode { node: 99 })
        );

        // The zero scalar is not a Schnorr secret.
        let mut bad_key = snapshot.clone();
        bad_key.signing_key = Some(Scalar::zero());
        assert_eq!(
            VssNode::restore(bad_key, None).err(),
            Some(SnapshotError::InvalidSigningKey)
        );

        // A signing snapshot restored without the shared key directory.
        assert_eq!(
            VssNode::restore(snapshot, None).err(),
            Some(SnapshotError::MissingDirectory)
        );
    }

    #[test]
    fn sharing_completes_without_faults() {
        let n = 4;
        let cfg = config(n, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 100 + i, None)))
            .collect();
        let secret = Scalar::from_u64(123456);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        let outputs = run_synchronously(&mut nodes, initial);
        let shared: Vec<_> = outputs
            .iter()
            .filter(|(_, o)| matches!(o, VssOutput::Shared { .. }))
            .collect();
        assert_eq!(shared.len(), n);
        // All nodes agree on the commitment and the shares interpolate to the
        // dealer's secret.
        let commitments: BTreeSet<_> = nodes
            .values()
            .map(|node| node.commitment().unwrap().to_bytes())
            .collect();
        assert_eq!(commitments.len(), 1);
        let shares: Vec<(u64, Scalar)> = nodes
            .iter()
            .take(cfg.t + 1)
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        assert_eq!(interpolate_secret(&shares), Some(secret));
    }

    #[test]
    fn digest_mode_also_completes() {
        let n = 7;
        let cfg = config(n, 0, CommitmentMode::Digest);
        let session = SessionId::new(3, 1);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 200 + i, None)))
            .collect();
        let secret = Scalar::from_u64(777);
        let initial = vec![(
            3u64,
            nodes
                .get_mut(&3)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        assert!(nodes.values().all(|n| n.is_complete()));
        let shares: Vec<(u64, Scalar)> = nodes
            .iter()
            .take(cfg.t + 1)
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        assert_eq!(interpolate_secret(&shares), Some(secret));
    }

    #[test]
    fn non_dealer_ignores_share_input() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut node = VssNode::new(2, cfg, session, 1, None);
        let actions = node.handle_input(VssInput::Share {
            secret: Scalar::from_u64(5),
        });
        assert!(actions.is_empty());
    }

    #[test]
    fn messages_from_other_sessions_are_ignored() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let mut node = VssNode::new(2, cfg, SessionId::new(1, 0), 1, None);
        let other_session = SessionId::new(1, 9);
        let actions = node.handle_message(
            1,
            VssMessage::Help {
                session: other_session,
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn send_from_non_dealer_is_ignored() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, cfg.t, Scalar::from_u64(9));
        let commitment = CommitmentMatrix::commit(&poly);
        let mut node = VssNode::new(2, cfg, session, 1, None);
        let actions = node.handle_message(
            3, // not the dealer
            VssMessage::Send {
                session,
                commitment,
                row: poly.row(2),
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn invalid_row_from_dealer_produces_no_echo() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(10);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, cfg.t, Scalar::from_u64(9));
        let commitment = CommitmentMatrix::commit(&poly);
        let mut node = VssNode::new(2, cfg, session, 1, None);
        // Row for node 3 sent to node 2: verify-poly must fail.
        let actions = node.handle_message(
            1,
            VssMessage::Send {
                session,
                commitment,
                row: poly.row(3),
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn help_responses_are_bounded() {
        let n = 4;
        let cfg = VssConfig::new((1..=n as u64).collect(), 1, 0, 2, CommitmentMode::Full).unwrap();
        let session = SessionId::new(1, 0);
        let mut dealer = VssNode::new(1, cfg.clone(), session, 55, None);
        let _ = dealer.handle_input(VssInput::Share {
            secret: Scalar::from_u64(1),
        });
        // Node 2 asks for help repeatedly; responses stop after the per-node
        // limit d(κ) is exceeded.
        let mut grants = 0;
        for _ in 0..10 {
            let actions = dealer.handle_message(2, VssMessage::Help { session });
            if !actions.is_empty() {
                grants += 1;
            }
        }
        assert!(grants as u64 <= cfg.per_node_help_limit() + 1);
        assert!(grants > 0);
    }

    #[test]
    fn reconstruction_recovers_the_secret() {
        let n = 4;
        let cfg = config(n, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 300 + i, None)))
            .collect();
        let secret = Scalar::from_u64(31337);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        assert!(nodes.values().all(|n| n.is_complete()));
        // Start reconstruction at every node.
        let initial: Vec<(NodeId, Vec<VssAction>)> = (1..=n as u64)
            .map(|i| {
                (
                    i,
                    nodes
                        .get_mut(&i)
                        .unwrap()
                        .handle_input(VssInput::Reconstruct),
                )
            })
            .collect();
        let outputs = run_synchronously(&mut nodes, initial);
        let reconstructed: Vec<_> = outputs
            .iter()
            .filter_map(|(_, o)| match o {
                VssOutput::Reconstructed { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(reconstructed.len(), n);
        assert!(reconstructed.iter().all(|&v| v == secret));
    }

    /// A Byzantine node sends a corrupted reconstruction share: the batch
    /// fold rejects, the per-share fallback discards exactly the bad share,
    /// and reconstruction still recovers the dealer's secret from the
    /// remaining honest quorum.
    #[test]
    fn reconstruction_survives_corrupted_share() {
        let n = 4;
        let cfg = config(n, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 400 + i, None)))
            .collect();
        let secret = Scalar::from_u64(0xC0FFEE);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        assert!(nodes.values().all(|n| n.is_complete()));
        let good: BTreeMap<NodeId, Scalar> = nodes
            .iter()
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        // Node 1 receives a corrupted share from node 2 first, then honest
        // shares from nodes 3 and 4 (t + 1 = 2 honest shares suffice).
        let observer = nodes.get_mut(&1).unwrap();
        let mut outputs = Vec::new();
        for (from, share) in [
            (2u64, good[&2] + Scalar::one()),
            (3u64, good[&3]),
            (4u64, good[&4]),
        ] {
            for action in
                observer.handle_message(from, VssMessage::ReconstructShare { session, share })
            {
                if let VssAction::Output(VssOutput::Reconstructed { value, .. }) = action {
                    outputs.push(value);
                }
            }
        }
        assert_eq!(outputs, vec![secret]);
        assert_eq!(observer.reconstructed(), Some(secret));
    }

    /// The same sharing run in deferred-crypto mode (jobs polled and
    /// completed explicitly) produces the same commitments and shares as
    /// the inline default.
    #[test]
    fn deferred_crypto_matches_inline() {
        let n = 7;
        let run = |deferred: bool| {
            let cfg = config(n, 0, CommitmentMode::Digest);
            let session = SessionId::new(2, 4);
            let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
                .map(|i| {
                    let mut node = VssNode::new(i, cfg.clone(), session, 500 + i, None);
                    node.set_deferred_crypto(deferred);
                    (i, node)
                })
                .collect();
            let secret = Scalar::from_u64(0xDEAD);
            let mut initial_actions = nodes
                .get_mut(&2)
                .unwrap()
                .handle_input(VssInput::Share { secret });
            let dealer = nodes.get_mut(&2).unwrap();
            while let Some((id, job)) = dealer.poll_job() {
                initial_actions.extend(dealer.complete_job(id, job.run()));
            }
            run_synchronously(&mut nodes, vec![(2u64, initial_actions)]);
            assert!(nodes.values().all(|n| n.is_complete()));
            nodes
                .iter()
                .map(|(&i, node)| {
                    (
                        i,
                        node.share().unwrap(),
                        node.commitment().unwrap().to_bytes(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    fn echo(session: SessionId, commitment: &CommitmentMatrix, point: Scalar) -> VssMessage {
        VssMessage::Echo {
            session,
            commitment: CommitmentRef::full(commitment.clone()),
            point,
        }
    }

    /// A corrupted point is rejected on either path, with the same tally
    /// outcome. Re-staged when points became field-judged once the row is
    /// held: after the `send` there is no job to poll any more, so the
    /// verdict-driven variant is the echo that outruns the `send`.
    #[test]
    fn deferred_mode_rejects_corrupted_points() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(77);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, cfg.t, Scalar::from_u64(5));
        let commitment = CommitmentMatrix::commit(&poly);
        let digest = dkg_crypto::sha256(&commitment.to_bytes());
        let send = VssMessage::Send {
            session,
            commitment: commitment.clone(),
            row: poly.row(2),
        };
        let bad = poly.evaluate(Scalar::from_u64(3), Scalar::from_u64(2)) + Scalar::one();
        let rejected = |node: &VssNode| {
            let tally = &node.tallies[&digest];
            tally.echo_from.contains(&3) && !tally.echo_verified.contains(&3)
        };

        // Row held: the corrupted echo from node 3 is judged in the field,
        // at the prepare site — rejected with no job queued.
        let mut node = VssNode::new(2, cfg.clone(), session, 1, None);
        node.set_deferred_crypto(true);
        let mut actions = node.handle_message(1, send.clone());
        while let Some((id, job)) = node.poll_job() {
            actions.extend(node.complete_job(id, job.run()));
        }
        assert!(actions.iter().any(|a| matches!(a, VssAction::Send { .. })));
        assert!(node
            .handle_message(3, echo(session, &commitment, bad))
            .is_empty());
        assert!(node.poll_job().is_none());
        assert_eq!(node.projection_count(), 0);
        assert!(rejected(&node));

        // No row yet: the same echo outruns the `send`, so a point job
        // runs against the projection and its verdict rejects.
        let mut node = VssNode::new(2, cfg, session, 1, None);
        node.set_deferred_crypto(true);
        let _ = node.handle_message(3, echo(session, &commitment, bad));
        let (id, job) = node.poll_job().expect("point job prepared");
        assert_eq!(job.kind(), "point-batch");
        let verdict = job.run();
        assert!(!verdict.all_valid());
        assert!(node.complete_job(id, verdict).is_empty());
        assert_eq!(node.projection_count(), 1);
        assert!(rejected(&node));
        // A duplicate from the same sender is dropped at the prepare stage:
        // no new crypto job is created for it.
        let _ = node.handle_message(
            3,
            VssMessage::Echo {
                session,
                commitment: CommitmentRef::Digest(digest),
                point: bad,
            },
        );
        assert!(node.poll_job().is_none());
    }

    /// A Byzantine dealer commits to a *non-symmetric* `g(x, y)` and sends
    /// node 2 the row `g(2, ·)`, which passes `verify-poly`. The held row
    /// must not judge points: under this matrix `verify-point` accepts
    /// `g(m, 2)`, the row evaluates to `g(2, m)`. Symmetry gates the field
    /// check, so every point goes through a `PointBatch` job and the node
    /// accepts exactly what `verify_point` accepts.
    #[test]
    fn asymmetric_matrix_keeps_points_on_the_group_path() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(78);
        // t = 1: g(x, y) = c00 + c01·y + c10·x + c11·xy with c01 ≠ c10.
        assert_eq!(cfg.t, 1);
        let [c00, c01, c10, c11] = [(); 4].map(|_| Scalar::random(&mut rng));
        let g = |x: u64, y: u64| {
            let (x, y) = (Scalar::from_u64(x), Scalar::from_u64(y));
            c00 + c01 * y + c10 * x + c11 * x * y
        };
        let commit = dkg_arith::GroupElement::commit;
        let commitment = CommitmentMatrix::from_entries(vec![
            vec![commit(&c00), commit(&c01)],
            vec![commit(&c10), commit(&c11)],
        ])
        .expect("square");
        assert!(!commitment.is_symmetric());
        let digest = dkg_crypto::sha256(&commitment.to_bytes());
        // g(2, ·), the row verify-poly accepts for node 2.
        let two = Scalar::from_u64(2);
        let row = Univariate::from_coefficients(vec![c00 + c10 * two, c01 + c11 * two]);
        assert!(commitment.verify_poly(2, &row));

        let mut node = VssNode::new(2, cfg, session, 1, None);
        node.set_deferred_crypto(true);
        let send = VssMessage::Send {
            session,
            commitment: commitment.clone(),
            row: row.clone(),
        };
        let mut actions = node.handle_message(1, send);
        while let Some((id, job)) = node.poll_job() {
            actions.extend(node.complete_job(id, job.run()));
        }
        assert!(actions.iter().any(|a| matches!(a, VssAction::Send { .. })));
        assert!(node.tallies[&digest].row.is_some());

        // Node 3 sends what verify-point accepts, node 4 what the row says.
        assert_ne!(g(4, 2), g(2, 4));
        assert_eq!(row.evaluate_at_index(4), g(2, 4));
        for (from, point) in [(3u64, g(3, 2)), (4, g(2, 4))] {
            let _ = node.handle_message(from, echo(session, &commitment, point));
            let (id, job) = node.poll_job().expect("group path: a point job exists");
            assert_eq!(job.kind(), "point-batch");
            let verdict = job.run();
            assert_eq!(verdict.valid, vec![commitment.verify_point(2, from, point)]);
            let _ = node.complete_job(id, verdict);
        }
        assert_eq!(node.projection_count(), 1);
        let tally = &node.tallies[&digest];
        assert_eq!(tally.echo_from, BTreeSet::from([3, 4]));
        assert_eq!(tally.echo_verified, BTreeSet::from([3]));
    }

    /// The §3 node whose `send` never arrives: points go through the group
    /// until the echo threshold lets it interpolate its row, through the
    /// field from then on, and it finishes with the share the dealer meant
    /// for it.
    #[test]
    fn node_without_a_send_switches_to_the_field_once_it_interpolates_its_row() {
        let n = 7u64;
        let cfg = config(n as usize, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(79);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, cfg.t, Scalar::from_u64(6));
        let commitment = CommitmentMatrix::commit(&poly);
        let digest = dkg_crypto::sha256(&commitment.to_bytes());
        let point = |m: u64| poly.evaluate(Scalar::from_u64(m), Scalar::from_u64(2));
        let ready = |point: Scalar| VssMessage::Ready {
            session,
            commitment: CommitmentRef::full(commitment.clone()),
            point,
            signature: None,
        };
        let mut node = VssNode::new(2, cfg.clone(), session, 1, None);
        node.set_deferred_crypto(true);

        let echoers = [1u64, 3, 4, 5, 6];
        assert_eq!(echoers.len(), cfg.echo_threshold());
        let mut actions = Vec::new();
        for m in echoers {
            assert!(node.tallies.get(&digest).is_none_or(|t| t.row.is_none()));
            actions = node.handle_message(m, echo(session, &commitment, point(m)));
            let (id, job) = node.poll_job().expect("no row yet: group path");
            actions.extend(node.complete_job(id, job.run()));
        }
        // The fifth echo crossed the threshold: row interpolated, readies out.
        assert_eq!(node.tallies[&digest].row, Some(poly.row(2)));
        assert!(actions.iter().any(|a| matches!(
            a,
            VssAction::Send {
                message: VssMessage::Ready { .. },
                ..
            }
        )));
        assert_eq!(node.projection_count(), 1);

        // From here on no point prepares a job, good or bad.
        let _ = node.handle_message(7, echo(session, &commitment, point(7)));
        let _ = node.handle_message(1, ready(point(1) + Scalar::one()));
        assert!(node.poll_job().is_none());
        let tally = &node.tallies[&digest];
        assert!(tally.echo_verified.contains(&7));
        assert!(tally.ready_from.contains(&1) && !tally.ready_verified.contains(&1));
        let mut outputs = Vec::new();
        for m in [3u64, 4, 5, 6, 7] {
            outputs.extend(node.handle_message(m, ready(point(m))));
            assert!(node.poll_job().is_none());
        }
        assert_eq!(node.jobs_in_flight(), 0);
        assert!(matches!(
            outputs.last(),
            Some(VssAction::Output(VssOutput::Shared { .. }))
        ));
        assert_eq!(node.share(), Some(poly.row(2).constant_term()));
    }

    /// One peer repeating `echo`/`ready` for digests the node does not know
    /// fills its own two pending slots and nothing else, and the sharing
    /// still completes once the dealer's `send` arrives.
    #[test]
    fn pending_points_are_bounded_per_sender() {
        let n = 4;
        let cfg = config(n, 0, CommitmentMode::Digest);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 700 + i, None)))
            .collect();
        let victim = nodes.get_mut(&2).unwrap();
        for k in 0..10_000u64 {
            // Alternate one repeated digest with ever-new ones.
            let digest = dkg_crypto::sha256(&(k % 2 * k).to_be_bytes());
            let commitment = CommitmentRef::Digest(digest);
            let point = Scalar::from_u64(k);
            let echo = VssMessage::Echo {
                session,
                commitment: commitment.clone(),
                point,
            };
            let ready = VssMessage::Ready {
                session,
                commitment,
                point,
                signature: None,
            };
            assert!(victim.handle_message(3, echo).is_empty());
            assert!(victim.handle_message(3, ready).is_empty());
        }
        let held: Vec<&PendingPoint> = victim.pending.values().flatten().collect();
        assert_eq!(held.len(), 2);
        assert!(held
            .iter()
            .all(|p| p.from == 3 && p.point == Scalar::zero()));
        assert!(held[0].is_ready != held[1].is_ready);
        assert_eq!(victim.snapshot().expect("idle").pending.len(), 1);

        let secret = Scalar::from_u64(4242);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        assert!(nodes.values().all(|node| node.is_complete()));
        let shares: Vec<(u64, Scalar)> = nodes
            .iter()
            .take(cfg.t + 1)
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        assert_eq!(interpolate_secret(&shares), Some(secret));
    }

    /// Full-commitment mode, same attack: one peer sending `echo`/`ready`
    /// under ever-new inline matrices gets its first of each kind looked at
    /// and nothing else stored, and the sharing still completes.
    #[test]
    fn inline_matrices_are_bounded_per_sender() {
        let n = 13;
        let cfg = config(n, 0, CommitmentMode::Full);
        assert_eq!(cfg.t, 4);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 900 + i, None)))
            .collect();
        let victim = nodes.get_mut(&2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, cfg.t, Scalar::from_u64(1));
        let mut entries = CommitmentMatrix::commit(&poly).entries().to_vec();
        for k in 0..20_000u64 {
            // A random 5 × 5 matrix, made distinct 20 000 times over.
            entries[0][0] += dkg_arith::GroupElement::generator();
            let matrix = CommitmentMatrix::from_entries(entries.clone()).expect("square");
            let commitment = CommitmentRef::full(matrix);
            let point = Scalar::from_u64(k);
            let message = if k % 2 == 0 {
                VssMessage::Echo {
                    session,
                    commitment,
                    point,
                }
            } else {
                VssMessage::Ready {
                    session,
                    commitment,
                    point,
                    signature: None,
                }
            };
            assert!(victim.handle_message(3, message).is_empty());
        }
        assert_eq!(victim.commitments.len(), 2);
        assert_eq!(victim.tallies.len(), 2);
        assert_eq!(victim.projection_count(), 2);
        let image = victim.snapshot().expect("idle");
        assert_eq!(image.commitments.len(), 2);
        assert!(image.pending.is_empty());

        let secret = Scalar::from_u64(4242);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        assert!(nodes.values().all(|node| node.is_complete()));
        assert_eq!(nodes[&2].commitments.len(), 3);
        let shares: Vec<(u64, Scalar)> = nodes
            .iter()
            .take(cfg.t + 1)
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        assert_eq!(interpolate_secret(&shares), Some(secret));
    }

    /// Extended variant: `t` senders whose `ready` carries a correct point
    /// but no usable signature are not tallied, so every honest node still
    /// completes on n − t − f *witnessed* readies.
    #[test]
    fn unsigned_readies_are_dropped_not_tallied() {
        let n = 7;
        let cfg = config(n, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut rng = StdRng::seed_from_u64(16);
        let (keys, directory) = dkg_crypto::generate_keyring(&mut rng, n);
        let directory = Arc::new(directory);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| {
                let signing = SigningContext {
                    key: keys[&i],
                    directory: Arc::clone(&directory),
                };
                let node = VssNode::new(i, cfg.clone(), session, 800 + i, Some(signing));
                (i, node)
            })
            .collect();
        let byzantine = [6u64, 7];
        assert_eq!(byzantine.len(), cfg.t);
        let is_bad_ready = |from: &NodeId, message: &VssMessage| {
            byzantine.contains(from) && matches!(message, VssMessage::Ready { .. })
        };

        let mut queue: Vec<(NodeId, NodeId, VssMessage)> = Vec::new();
        let mut proofs: BTreeMap<NodeId, Vec<ReadyWitness>> = BTreeMap::new();
        let secret = Scalar::from_u64(99);
        let mut from = 1u64;
        let mut actions = nodes
            .get_mut(&from)
            .unwrap()
            .handle_input(VssInput::Share { secret });
        loop {
            for action in actions {
                match action {
                    VssAction::Send { to, mut message } => {
                        if let VssMessage::Ready { signature, .. } = &mut message {
                            if from == 6 {
                                *signature = None;
                            } else if from == 7 {
                                *signature = Some(keys[&7].sign(&mut rng, b"not the payload"));
                            }
                        }
                        queue.push((from, to, message));
                    }
                    VssAction::Output(VssOutput::Shared { ready_proof, .. }) => {
                        proofs.insert(from, ready_proof);
                    }
                    VssAction::Output(_) => {}
                }
            }
            // The bad readies overtake everything else in flight.
            let next = queue
                .iter()
                .position(|(from, _, message)| is_bad_ready(from, message))
                .or(queue.len().checked_sub(1));
            let Some(next) = next else {
                break;
            };
            let (sender, to, message) = queue.remove(next);
            from = to;
            actions = nodes.get_mut(&to).unwrap().handle_message(sender, message);
        }

        let commitment = CommitmentRef::full(nodes[&1].commitment().unwrap().clone());
        let payload = ReadyWitness::payload(&session, &commitment.digest());
        for honest in 1..=5u64 {
            let proof = &proofs[&honest];
            assert_eq!(proof.len(), cfg.completion_threshold(), "node {honest}");
            for witness in proof {
                assert!(!byzantine.contains(&witness.node));
                assert!(directory
                    .verify(witness.node, &payload, &witness.signature)
                    .is_ok());
            }
        }
        let shares: Vec<(u64, Scalar)> = (1..=3u64)
            .map(|i| (i, nodes[&i].share().unwrap()))
            .collect();
        assert_eq!(interpolate_secret(&shares), Some(secret));
    }

    /// Deferred mode: a share arriving while a reconstruction batch is in
    /// flight is not lost — after a batch with an invalid share resolves,
    /// the pooled share is submitted as the next batch and reconstruction
    /// still completes.
    #[test]
    fn deferred_reconstruction_recovers_shares_pooled_during_flight() {
        let n = 4;
        let cfg = config(n, 0, CommitmentMode::Full);
        let session = SessionId::new(1, 0);
        let mut nodes: BTreeMap<NodeId, VssNode> = (1..=n as u64)
            .map(|i| (i, VssNode::new(i, cfg.clone(), session, 600 + i, None)))
            .collect();
        let secret = Scalar::from_u64(0xBEEF);
        let initial = vec![(
            1u64,
            nodes
                .get_mut(&1)
                .unwrap()
                .handle_input(VssInput::Share { secret }),
        )];
        run_synchronously(&mut nodes, initial);
        let good: BTreeMap<NodeId, Scalar> = nodes
            .iter()
            .map(|(&i, node)| (i, node.share().unwrap()))
            .collect();
        // Observer 1 goes deferred after completing the sharing.
        let observer = nodes.get_mut(&1).unwrap();
        observer.set_deferred_crypto(true);
        // t + 1 = 2: a corrupt share from 2 plus an honest share from 3
        // trigger a batch job…
        let _ = observer.handle_message(
            2,
            VssMessage::ReconstructShare {
                session,
                share: good[&2] + Scalar::one(),
            },
        );
        let _ = observer.handle_message(
            3,
            VssMessage::ReconstructShare {
                session,
                share: good[&3],
            },
        );
        let (first_id, first_job) = observer.poll_job().expect("quorum-sized batch");
        // …and an honest share from 4 arrives while that job is in flight.
        let _ = observer.handle_message(
            4,
            VssMessage::ReconstructShare {
                session,
                share: good[&4],
            },
        );
        assert!(
            observer.poll_job().is_none(),
            "below quorum while in flight"
        );
        // The verdict keeps only node 3, below quorum — the share pooled
        // during the flight must immediately form the next batch.
        let actions = observer.complete_job(first_id, first_job.run());
        assert!(actions.is_empty());
        let (second_id, second_job) = observer.poll_job().expect("pooled share resubmitted");
        let actions = observer.complete_job(second_id, second_job.run());
        assert!(matches!(
            actions.as_slice(),
            [VssAction::Output(VssOutput::Reconstructed { value, .. })] if *value == secret
        ));
        assert_eq!(observer.reconstructed(), Some(secret));
    }

    #[test]
    fn reconstruct_before_completion_is_ignored() {
        let cfg = config(4, 0, CommitmentMode::Full);
        let mut node = VssNode::new(2, cfg, SessionId::new(1, 0), 1, None);
        assert!(node.handle_input(VssInput::Reconstruct).is_empty());
        assert!(node
            .handle_message(
                3,
                VssMessage::ReconstructShare {
                    session: SessionId::new(1, 0),
                    share: Scalar::from_u64(1),
                },
            )
            .is_empty());
    }
}
