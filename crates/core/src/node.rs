//! The DKG node state machine: optimistic phase (Fig. 2) and pessimistic
//! leader-change phase (Fig. 3), running `n` embedded HybridVSS instances.
//!
//! Like [`VssNode`], the DKG state machine runs on the crypto-job pipeline:
//! every expensive check — the embedded VSS verifications, the
//! lead-ch-certificate and justification signature sets of `send`, the vote
//! signatures of `echo`/`ready`/`lead-ch`, the group reconstruction share
//! batch — is prepared as a [`CryptoJob`] and its [`CryptoVerdict`] applied
//! separately. Inline by default (identical to the historical synchronous
//! behaviour); with [`DkgNode::set_deferred_crypto`] the jobs queue for
//! [`DkgNode::poll_job`] / [`DkgNode::complete_job`] so an executor can run
//! them on worker threads, and the jobs of the `n` embedded VSS instances
//! are surfaced through the same queue.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_crypto::{Digest, NodeId, Signature, SigningKey};
use dkg_poly::{
    interpolate_secret, CommitmentMatrix, CryptoJob, CryptoVerdict, JobQueue, ShareCollector,
    ShareProgress, SignatureCheck, Submission,
};
use dkg_sim::{ActionSink, Protocol, TimerId};
use dkg_vss::{
    ReadyWitness, SessionId, SigningContext, VssAction, VssInput, VssJobId, VssMessage, VssNode,
    VssOutput,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{DkgConfig, NodeKeys};
use crate::messages::{
    payload, CombineRule, DealerProof, DkgInput, DkgMessage, DkgOutput, Justification, Proposal,
    SignedVote,
};
use crate::snapshot::{CompletedSharing, DkgSnapshot};

/// Timer id used for the leader timeout.
const LEADER_TIMER: TimerId = 1;

/// Sentinel "dealer" used for group-secret reconstruction traffic.
const GROUP_SESSION_DEALER: NodeId = 0;

/// Identifies a [`CryptoJob`] handed out by [`DkgNode::poll_job`].
pub type DkgJobId = u64;

/// Context carried from a job's prepare stage to its apply stage.
#[derive(Clone, Debug)]
enum JobCtx {
    /// A job prepared by an embedded VSS instance.
    Vss { dealer: NodeId, inner: VssJobId },
    /// The signature sets of a leader `send`: `cert_count` lead-ch
    /// certificate checks followed by `just_count` justification checks
    /// (zero when the prepare stage could already rule the echo out).
    Send {
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        justification: Justification,
        lead_ch_certificate: Vec<SignedVote>,
        cert_count: usize,
        just_count: usize,
    },
    /// One `echo` vote signature.
    EchoVote {
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
    },
    /// One `ready` vote signature.
    ReadyVote {
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
    },
    /// A `lead-ch` request: the sender's signature followed by
    /// `just_count` checks of the forwarded justification (zero when no
    /// proposal was forwarded or a lock already made it moot).
    LeadCh {
        from: NodeId,
        new_rank: u64,
        proposal: Option<(Proposal, Justification)>,
        signature: Signature,
        just_count: usize,
    },
    /// A batch of group-secret reconstruction shares.
    GroupShares { entries: Vec<(NodeId, Scalar)> },
}

/// The final result of the DKG at this node.
#[derive(Clone, Debug, PartialEq)]
pub struct DkgResult {
    /// The agreed dealer set `Q`.
    pub dealers: Vec<NodeId>,
    /// The combined commitment matrix.
    pub commitment: CommitmentMatrix,
    /// The distributed public key `g^s`.
    pub public_key: GroupElement,
    /// This node's share of the secret.
    pub share: Scalar,
    /// The leader rank under which agreement completed.
    pub leader_rank: u64,
}

/// The DKG protocol state machine for one node (§4 of the paper), usable
/// directly as a [`dkg_sim::Protocol`].
pub struct DkgNode {
    id: NodeId,
    config: DkgConfig,
    keys: NodeKeys,
    /// Shared handle to the public directory for signature jobs.
    directory: Arc<dkg_crypto::KeyDirectory>,
    tau: u64,
    combine: CombineRule,
    rng: StdRng,

    /// One embedded HybridVSS instance per dealer.
    vss: BTreeMap<NodeId, VssNode>,
    /// Completed sharings, by dealer.
    completed_vss: BTreeMap<NodeId, CompletedSharing>,
    /// `Q̂`: dealers whose sharing finished here, in completion order.
    finished_set: Vec<NodeId>,
    /// Renewal safety check: expected `g^{s_d}` per dealer (see
    /// [`DkgNode::set_expected_dealer_commitments`]).
    expected_dealer_keys: BTreeMap<NodeId, GroupElement>,
    started: bool,

    /// Current leader rank (`L`); the node at `config.leader_at_rank(rank)`.
    leader_rank: u64,
    /// `Q` / `M`: the locked proposal and its certificate, if any.
    locked: Option<(Proposal, Justification)>,
    /// Proposals already echoed, keyed by `(rank, proposal bytes)`.
    echoed: BTreeSet<(u64, Vec<u8>)>,
    /// Whether this node has sent its `ready` votes.
    ready_sent: bool,
    /// `e_Q`: echo votes per proposal.
    echo_votes: BTreeMap<Vec<u8>, BTreeMap<NodeId, Signature>>,
    /// `r_Q`: ready votes per proposal.
    ready_votes: BTreeMap<Vec<u8>, BTreeMap<NodeId, Signature>>,
    /// Proposals seen (needed to rebuild a `Proposal` from its key).
    proposals: BTreeMap<Vec<u8>, Proposal>,

    /// `lc_L`: lead-ch votes per requested rank.
    lead_ch_votes: BTreeMap<u64, BTreeMap<NodeId, Signature>>,
    /// `lcflag`: whether we already sent a lead-ch for the current view.
    lc_flag: bool,
    /// Certificate that legitimised our current leadership (when we are a
    /// non-initial leader).
    lead_ch_certificate: Vec<SignedVote>,
    /// Number of leader changes observed (drives the growing `delay(t)`).
    retries: u32,

    /// The agreed set `Q` (after `n − t − f` ready votes), waiting for the
    /// corresponding sharings to finish locally.
    agreed: Option<Proposal>,
    completed: Option<DkgResult>,

    /// Group-secret reconstruction state: the shared pool-then-batch
    /// discipline ([`ShareCollector`]) plus the result.
    reconstruct_started: bool,
    reconstruct: ShareCollector,
    reconstructed: Option<Scalar>,

    /// Outgoing agreement messages, for recovery retransmission.
    outbox: BTreeMap<NodeId, Vec<DkgMessage>>,
    /// `c`: DKG-level help responses granted in total (§5.3 bounds).
    help_granted_total: u64,
    /// `c_ℓ`: DKG-level help responses granted per requester.
    help_granted_per: BTreeMap<NodeId, u64>,

    /// Prepared jobs (own and embedded-VSS): run inline by default, queued
    /// for [`DkgNode::poll_job`] in deferred mode.
    jobs: JobQueue<JobCtx>,
}

impl DkgNode {
    /// Creates the DKG state machine for node `id` in session `tau`.
    ///
    /// `rng_seed` drives this node's local randomness (its dealt secret,
    /// polynomial coefficients and signature nonces).
    pub fn new(id: NodeId, config: DkgConfig, keys: NodeKeys, tau: u64, rng_seed: u64) -> Self {
        let directory = Arc::clone(&keys.directory);
        let signing = SigningContext {
            key: keys.signing_key,
            directory: Arc::clone(&directory),
        };
        let vss = config
            .vss
            .nodes
            .iter()
            .map(|&dealer| {
                let session = SessionId::new(dealer, tau);
                let seed = rng_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(dealer);
                (
                    dealer,
                    VssNode::new(id, config.vss.clone(), session, seed, Some(signing.clone())),
                )
            })
            .collect();
        DkgNode {
            id,
            config,
            keys,
            directory,
            tau,
            combine: CombineRule::Sum,
            rng: StdRng::seed_from_u64(rng_seed),
            vss,
            completed_vss: BTreeMap::new(),
            finished_set: Vec::new(),
            expected_dealer_keys: BTreeMap::new(),
            started: false,
            leader_rank: 0,
            locked: None,
            echoed: BTreeSet::new(),
            ready_sent: false,
            echo_votes: BTreeMap::new(),
            ready_votes: BTreeMap::new(),
            proposals: BTreeMap::new(),
            lead_ch_votes: BTreeMap::new(),
            lc_flag: false,
            lead_ch_certificate: Vec::new(),
            retries: 0,
            agreed: None,
            completed: None,
            reconstruct_started: false,
            reconstruct: ShareCollector::new(),
            reconstructed: None,
            outbox: BTreeMap::new(),
            help_granted_total: 0,
            help_granted_per: BTreeMap::new(),
            jobs: JobQueue::new(),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot extraction / re-injection (crash-recovery, §5.3)
    // ------------------------------------------------------------------

    /// Extracts the node's complete stable state as a [`DkgSnapshot`],
    /// including the `n` embedded VSS instances and the node's key
    /// material (the crash-recovery model persists keys on stable
    /// storage; the directory is stored once for all instances).
    ///
    /// Returns `None` while crypto jobs are queued or in flight anywhere
    /// (own queue or any embedded instance): persistence layers snapshot
    /// only at job-quiescent points and re-create in-flight work by
    /// replaying the logged inputs.
    pub fn snapshot(&self) -> Option<DkgSnapshot> {
        if !self.jobs.is_idle() {
            return None;
        }
        let vss = self
            .vss
            .iter()
            .map(|(&dealer, instance)| Some((dealer, instance.snapshot()?)))
            .collect::<Option<_>>()?;
        let (reconstruct_pending, reconstruct_verified) = self.reconstruct.to_parts();
        Some(DkgSnapshot {
            id: self.id,
            tau: self.tau,
            config: self.config.clone(),
            signing_key: self.keys.signing_key.secret(),
            directory: self.directory.points(),
            combine: self.combine,
            rng: self.rng.state(),
            vss,
            completed_vss: self.completed_vss.clone(),
            finished_set: self.finished_set.clone(),
            expected_dealer_keys: self.expected_dealer_keys.clone(),
            started: self.started,
            leader_rank: self.leader_rank,
            locked: self.locked.clone(),
            echoed: self.echoed.clone(),
            ready_sent: self.ready_sent,
            echo_votes: self.echo_votes.clone(),
            ready_votes: self.ready_votes.clone(),
            proposals: self.proposals.clone(),
            lead_ch_votes: self.lead_ch_votes.clone(),
            lc_flag: self.lc_flag,
            lead_ch_certificate: self.lead_ch_certificate.clone(),
            retries: self.retries,
            agreed: self.agreed.clone(),
            completed: self.completed.clone(),
            reconstruct_started: self.reconstruct_started,
            reconstruct_pending,
            reconstruct_verified,
            reconstructed: self.reconstructed,
            outbox: self.outbox.clone(),
            help_granted_total: self.help_granted_total,
            help_granted_per: self.help_granted_per.clone(),
        })
    }

    /// Rebuilds a node from a [`DkgSnapshot`]. The restored machine is
    /// state-identical to the one the snapshot was taken from: same RNG
    /// stream, same tallies and votes, same recovery outbox — so it
    /// continues the protocol exactly where the persisted state left off.
    pub fn restore(snapshot: DkgSnapshot) -> Result<Self, dkg_vss::SnapshotError> {
        let signing_key = SigningKey::from_scalar(snapshot.signing_key)
            .ok_or(dkg_vss::SnapshotError::InvalidSigningKey)?;
        let directory = dkg_crypto::KeyDirectory::from_points(snapshot.directory)
            .map_err(|node| dkg_vss::SnapshotError::InvalidDirectoryKey { node })?;
        let directory = Arc::new(directory);
        let vss = snapshot
            .vss
            .into_iter()
            .map(|(dealer, instance)| {
                let instance = VssNode::restore(instance, Some(Arc::clone(&directory)))?;
                Ok((dealer, instance))
            })
            .collect::<Result<_, _>>()?;
        Ok(DkgNode {
            id: snapshot.id,
            config: snapshot.config,
            keys: NodeKeys {
                signing_key,
                directory: Arc::clone(&directory),
            },
            directory,
            tau: snapshot.tau,
            combine: snapshot.combine,
            rng: StdRng::from_state(snapshot.rng),
            vss,
            completed_vss: snapshot.completed_vss,
            finished_set: snapshot.finished_set,
            expected_dealer_keys: snapshot.expected_dealer_keys,
            started: snapshot.started,
            leader_rank: snapshot.leader_rank,
            locked: snapshot.locked,
            echoed: snapshot.echoed,
            ready_sent: snapshot.ready_sent,
            echo_votes: snapshot.echo_votes,
            ready_votes: snapshot.ready_votes,
            proposals: snapshot.proposals,
            lead_ch_votes: snapshot.lead_ch_votes,
            lc_flag: snapshot.lc_flag,
            lead_ch_certificate: snapshot.lead_ch_certificate,
            retries: snapshot.retries,
            agreed: snapshot.agreed,
            completed: snapshot.completed,
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
        })
    }

    // ------------------------------------------------------------------
    // Crypto-job pipeline
    // ------------------------------------------------------------------

    /// Switches between inline crypto (default) and deferred crypto for
    /// this node *and* its `n` embedded VSS instances.
    pub fn set_deferred_crypto(&mut self, deferred: bool) {
        self.jobs.set_deferred(deferred);
        for vss in self.vss.values_mut() {
            vss.set_deferred_crypto(deferred);
        }
    }

    /// Takes the next prepared [`CryptoJob`], if any (deferred mode only).
    pub fn poll_job(&mut self) -> Option<(DkgJobId, CryptoJob)> {
        self.jobs.poll()
    }

    /// Jobs prepared but not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.in_flight()
    }

    /// Whether any prepared job is waiting to be polled.
    pub fn has_queued_jobs(&self) -> bool {
        self.jobs.queued() > 0
    }

    /// Feeds back the verdict of a previously polled job; the apply stage's
    /// protocol effects land in `sink`. Unknown ids and wrong-length
    /// verdicts are ignored.
    pub fn complete_job(
        &mut self,
        id: DkgJobId,
        verdict: CryptoVerdict,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if let Some(ctx) = self.jobs.complete(id, &verdict) {
            self.apply_verdict(ctx, verdict, sink);
        }
    }

    /// Runs `job` inline or queues it, depending on the configured mode.
    fn submit(
        &mut self,
        job: CryptoJob,
        ctx: JobCtx,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if let Submission::Ready(ctx, verdict) = self.jobs.submit(job, ctx) {
            self.apply_verdict(ctx, verdict, sink);
        }
    }

    /// Builds a signature job over the node directory (a refcount bump,
    /// not a directory clone).
    fn signature_job(&self, checks: Vec<SignatureCheck>) -> CryptoJob {
        CryptoJob::Signatures {
            directory: Arc::clone(&self.directory),
            checks,
        }
    }

    /// Moves the jobs an embedded VSS instance queued into this node's
    /// queue, wrapped with their dealer for routing. (The instances only
    /// queue in deferred mode, where this node's queue defers too.)
    fn collect_vss_jobs(&mut self, dealer: NodeId) {
        let Some(vss) = self.vss.get_mut(&dealer) else {
            return;
        };
        while let Some((inner, job)) = vss.poll_job() {
            self.jobs.enqueue(job, JobCtx::Vss { dealer, inner });
        }
    }

    fn apply_verdict(
        &mut self,
        ctx: JobCtx,
        verdict: CryptoVerdict,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        match ctx {
            JobCtx::Vss { dealer, inner } => {
                let Some(vss) = self.vss.get_mut(&dealer) else {
                    return;
                };
                let actions = vss.complete_job(inner, verdict);
                self.forward_vss(dealer, actions, sink);
            }
            JobCtx::Send {
                from,
                rank,
                proposal,
                justification,
                lead_ch_certificate,
                cert_count,
                just_count,
            } => self.apply_send(
                from,
                rank,
                proposal,
                justification,
                lead_ch_certificate,
                cert_count,
                just_count,
                &verdict.valid,
                sink,
            ),
            JobCtx::EchoVote {
                from,
                rank,
                proposal,
                signature,
            } => {
                if verdict.all_valid() {
                    self.apply_echo(from, rank, proposal, signature, sink);
                }
            }
            JobCtx::ReadyVote {
                from,
                rank,
                proposal,
                signature,
            } => {
                if verdict.all_valid() {
                    self.apply_ready(from, rank, proposal, signature, sink);
                }
            }
            JobCtx::LeadCh {
                from,
                new_rank,
                proposal,
                signature,
                just_count,
            } => self.apply_lead_ch(
                from,
                new_rank,
                proposal,
                signature,
                just_count,
                &verdict.valid,
                sink,
            ),
            JobCtx::GroupShares { entries } => {
                self.apply_group_shares(entries, &verdict.valid, sink)
            }
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The session counter `τ`.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// The configuration.
    pub fn config(&self) -> &DkgConfig {
        &self.config
    }

    /// The final result, once the protocol completed at this node.
    pub fn result(&self) -> Option<&DkgResult> {
        self.completed.as_ref()
    }

    /// The commitment matrix the embedded HybridVSS instance of `session`
    /// holds under `digest`, if any — the lookup
    /// [`DkgMessage::decode_known`] resolves inline commitments against
    /// (see [`VssNode::known_commitment`]).
    pub fn known_commitment(
        &self,
        session: SessionId,
        digest: &Digest,
    ) -> Option<Arc<CommitmentMatrix>> {
        self.vss
            .get(&session.dealer)?
            .known_commitment(session, digest)
    }

    /// Row projections held across the embedded HybridVSS instances (see
    /// [`VssNode::projection_count`]): derived state, held only for
    /// matrices whose points had to be judged in the group — zero on the
    /// honest path, and zero on a freshly restored node.
    pub fn projection_count(&self) -> usize {
        self.vss.values().map(VssNode::projection_count).sum()
    }

    /// Whether the DKG has completed at this node.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// The reconstructed group secret, if reconstruction ran.
    pub fn reconstructed(&self) -> Option<Scalar> {
        self.reconstructed
    }

    /// The current leader rank at this node.
    pub fn leader_rank(&self) -> u64 {
        self.leader_rank
    }

    /// The per-dealer sharings of the agreed set `Q`, once the protocol
    /// completed: `(dealer, commitment matrix, this node's sub-share)`.
    ///
    /// The node-addition protocol (§6.2, [`crate::group`]) consumes these to
    /// derive a sub-share for a joining node.
    pub fn agreed_sharings(&self) -> Option<Vec<(NodeId, &CommitmentMatrix, Scalar)>> {
        let result = self.completed.as_ref()?;
        Some(
            result
                .dealers
                .iter()
                .map(|d| {
                    let sharing = &self.completed_vss[d];
                    (*d, &sharing.commitment, sharing.share)
                })
                .collect(),
        )
    }

    /// The bivariate polynomial this node dealt in its own embedded VSS
    /// session, once it has started. Only exists under the `malice`
    /// test-configuration feature (forwarded from `dkg-vss`): the
    /// active-adversary harness extracts the honest dealing so corrupted
    /// dealers can re-share it strategically — equivocating to a subset
    /// while staying consistent for the rest.
    #[cfg(feature = "malice")]
    pub fn dealt_polynomial(&self) -> Option<&dkg_poly::SymmetricBivariate> {
        self.vss.get(&self.id)?.dealt_polynomial()
    }

    /// Switches the share-combination rule (the share-renewal protocol of
    /// §5.2 uses Lagrange interpolation at index 0 rather than a sum).
    pub fn set_combine_rule(&mut self, rule: CombineRule) {
        self.combine = rule;
    }

    /// Registers the expected resharing commitments `g^{s_d}` per dealer.
    ///
    /// During share renewal and node addition, dealer `P_d` must reshare its
    /// *current* share `s_d`; a Byzantine dealer that reshares a different
    /// value would corrupt the renewed key. When expectations are set, a
    /// completed sharing whose `C_{00}` does not match is discarded.
    pub fn set_expected_dealer_commitments(&mut self, expected: BTreeMap<NodeId, GroupElement>) {
        self.expected_dealer_keys = expected;
    }

    fn is_leader(&self) -> bool {
        self.config.leader_at_rank(self.leader_rank) == self.id
    }

    fn proposal_key(proposal: &Proposal) -> Vec<u8> {
        proposal.to_bytes()
    }

    // ------------------------------------------------------------------
    // Embedded VSS plumbing
    // ------------------------------------------------------------------

    fn forward_vss(
        &mut self,
        dealer: NodeId,
        actions: Vec<VssAction>,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        // Surface any crypto jobs the instance prepared while handling.
        self.collect_vss_jobs(dealer);
        for action in actions {
            match action {
                VssAction::Send { to, message } => sink.send(to, DkgMessage::Vss(message)),
                VssAction::Output(VssOutput::Shared {
                    commitment,
                    share,
                    ready_proof,
                    ..
                }) => {
                    let digest = dkg_crypto::sha256(&commitment.to_bytes());
                    self.on_sharing_completed(
                        dealer,
                        CompletedSharing {
                            commitment,
                            share,
                            digest,
                            witnesses: ready_proof,
                        },
                        sink,
                    );
                }
                VssAction::Output(VssOutput::Reconstructed { .. }) => {
                    // Per-dealer reconstruction is not used by the DKG.
                }
            }
        }
    }

    fn on_sharing_completed(
        &mut self,
        dealer: NodeId,
        sharing: CompletedSharing,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed_vss.contains_key(&dealer) {
            return;
        }
        // Renewal safety: discard dealers that reshared the wrong value.
        if let Some(expected) = self.expected_dealer_keys.get(&dealer) {
            if sharing.commitment.public_key() != *expected {
                return;
            }
        }
        self.completed_vss.insert(dealer, sharing);
        self.finished_set.push(dealer);

        // Fig. 2: once t+1 sharings finished and no proposal is locked,
        // the leader broadcasts its proposal; other nodes arm their timer.
        if self.finished_set.len() == self.config.ready_amplify_threshold()
            && self.locked.is_none()
            && self.agreed.is_none()
        {
            if self.is_leader() {
                self.broadcast_proposal(sink);
            } else {
                sink.set_timer(
                    LEADER_TIMER,
                    self.config.leader_timeout.timeout(self.retries),
                );
            }
        }
        self.try_complete(sink);
    }

    fn current_q_hat(&self) -> (Proposal, Justification) {
        let dealers: Vec<NodeId> = self
            .finished_set
            .iter()
            .take(self.config.ready_amplify_threshold())
            .copied()
            .collect();
        let proofs = dealers
            .iter()
            .map(|d| {
                let sharing = &self.completed_vss[d];
                DealerProof {
                    dealer: *d,
                    commitment_digest: sharing.digest,
                    witnesses: sharing.witnesses.clone(),
                }
            })
            .collect();
        (Proposal::new(dealers), Justification::ReadyProofs(proofs))
    }

    fn broadcast_proposal(&mut self, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        let (proposal, justification) = match &self.locked {
            Some((p, j)) => (p.clone(), j.clone()),
            None => self.current_q_hat(),
        };
        let message = DkgMessage::Send {
            tau: self.tau,
            rank: self.leader_rank,
            proposal,
            justification,
            lead_ch_certificate: self.lead_ch_certificate.clone(),
        };
        self.broadcast(message, sink);
    }

    fn broadcast(&mut self, message: DkgMessage, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        for &node in &self.config.vss.nodes.clone() {
            self.outbox.entry(node).or_default().push(message.clone());
            sink.send(node, message.clone());
        }
    }

    // ------------------------------------------------------------------
    // Justification verification (prepare: the signature checks; apply:
    // the threshold counting over the job's per-signature bits)
    // ------------------------------------------------------------------

    /// Prepare half: the signature checks a justification's validity rests
    /// on, in a deterministic order the apply half can index into.
    fn justification_checks(
        &self,
        proposal: &Proposal,
        justification: &Justification,
    ) -> Vec<SignatureCheck> {
        match justification {
            Justification::ReadyProofs(proofs) => proofs
                .iter()
                .flat_map(|proof| {
                    let session = SessionId::new(proof.dealer, self.tau);
                    let payload: Arc<[u8]> =
                        ReadyWitness::payload(&session, &proof.commitment_digest).into();
                    proof.witnesses.iter().map(move |witness| SignatureCheck {
                        signer: witness.node,
                        payload: Arc::clone(&payload),
                        signature: witness.signature,
                    })
                })
                .collect(),
            Justification::EchoCertificate(votes) => {
                Self::vote_checks(votes, payload::echo(self.tau, proposal))
            }
            Justification::ReadyCertificate(votes) => {
                Self::vote_checks(votes, payload::ready(self.tau, proposal))
            }
        }
    }

    fn vote_checks(votes: &[SignedVote], payload: Vec<u8>) -> Vec<SignatureCheck> {
        let payload: Arc<[u8]> = payload.into();
        votes
            .iter()
            .map(|vote| SignatureCheck {
                signer: vote.node,
                payload: Arc::clone(&payload),
                signature: vote.signature,
            })
            .collect()
    }

    /// The free structural admission checks of a justification; everything
    /// failing here is rejected without buying a single signature
    /// verification. Also the first gate of [`Self::justification_valid`].
    fn justification_structure_ok(&self, proposal: &Proposal) -> bool {
        !proposal.is_empty()
            && proposal.len() >= self.config.ready_amplify_threshold()
            && proposal
                .dealers()
                .iter()
                .all(|d| self.config.vss.nodes.contains(d))
    }

    /// Apply half: decides a justification's validity from the per-check
    /// bits of its signature job (bit order = [`Self::justification_checks`]
    /// order).
    fn justification_valid(
        &self,
        proposal: &Proposal,
        justification: &Justification,
        bits: &[bool],
    ) -> bool {
        let expected: usize = match justification {
            Justification::ReadyProofs(proofs) => proofs.iter().map(|p| p.witnesses.len()).sum(),
            Justification::EchoCertificate(votes) | Justification::ReadyCertificate(votes) => {
                votes.len()
            }
        };
        if bits.len() != expected {
            return false;
        }
        if !self.justification_structure_ok(proposal) {
            return false;
        }
        match justification {
            Justification::ReadyProofs(proofs) => {
                // Every proposed dealer needs n − t − f valid ready
                // witnesses in some proof carried for it.
                let mut offset = 0;
                let mut proof_valid: Vec<(NodeId, bool)> = Vec::with_capacity(proofs.len());
                for proof in proofs {
                    let signers: BTreeSet<NodeId> = proof
                        .witnesses
                        .iter()
                        .zip(&bits[offset..offset + proof.witnesses.len()])
                        .filter(|(_, &ok)| ok)
                        .map(|(w, _)| w.node)
                        .collect();
                    proof_valid.push((
                        proof.dealer,
                        signers.len() >= self.config.completion_threshold(),
                    ));
                    offset += proof.witnesses.len();
                }
                proposal
                    .dealers()
                    .iter()
                    .all(|dealer| proof_valid.iter().any(|&(d, ok)| d == *dealer && ok))
            }
            Justification::EchoCertificate(votes) => {
                Self::distinct_valid_signers(votes, bits) >= self.config.echo_threshold()
            }
            Justification::ReadyCertificate(votes) => {
                Self::distinct_valid_signers(votes, bits) >= self.config.ready_amplify_threshold()
            }
        }
    }

    fn distinct_valid_signers(votes: &[SignedVote], bits: &[bool]) -> usize {
        votes
            .iter()
            .zip(bits)
            .filter(|(_, &ok)| ok)
            .map(|(v, _)| v.node)
            .collect::<BTreeSet<_>>()
            .len()
    }

    // ------------------------------------------------------------------
    // Optimistic phase handlers (Fig. 2)
    // ------------------------------------------------------------------

    /// Prepare stage of the leader's `send`: the cheap admission checks the
    /// pre-pipeline handler applied first still run here — spam that a
    /// comparison can reject (wrong sender for the rank, already-echoed
    /// proposal, lock mismatch) must not buy any signature verification.
    /// What remains becomes one job covering the lead-ch certificate
    /// (leader catch-up) and, when an echo is still possible, the
    /// proposal's justification.
    fn on_send(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        justification: Justification,
        lead_ch_certificate: Vec<SignedVote>,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() || rank < self.leader_rank {
            return;
        }
        // `leader_at_rank` is pure, so this holds at apply time too: a
        // sender that is not the leader of the rank it claims can at most
        // prove a leader change (certificate), never earn an echo.
        let sender_leads = self.config.leader_at_rank(rank) == from;
        if rank == self.leader_rank && !sender_leads {
            return;
        }
        let mut checks = if rank > self.leader_rank {
            Self::vote_checks(&lead_ch_certificate, payload::lead_ch(self.tau, rank))
        } else {
            Vec::new()
        };
        let cert_count = checks.len();
        // For a future rank, an echo is only reachable if the certificate
        // could at least structurally prove the leader change (distinct
        // signers counted for free; the signatures are judged by the job).
        let adoption_plausible = rank == self.leader_rank
            || lead_ch_certificate
                .iter()
                .map(|v| v.node)
                .collect::<BTreeSet<_>>()
                .len()
                >= self.config.completion_threshold();
        // Non-mutating previews of the apply-stage guards (`echoed` and
        // `locked` only grow, so a rejection here is final): only pay for
        // justification checks while an echo is still reachable.
        let echo_possible = sender_leads
            && adoption_plausible
            && self.justification_structure_ok(&proposal)
            && !self.echoed.contains(&(rank, Self::proposal_key(&proposal)))
            && self
                .locked
                .as_ref()
                .is_none_or(|(locked, _)| *locked == proposal);
        let just_count = if echo_possible {
            let just_checks = self.justification_checks(&proposal, &justification);
            let count = just_checks.len();
            checks.extend(just_checks);
            count
        } else {
            0
        };
        if checks.is_empty() {
            return;
        }
        let job = self.signature_job(checks);
        self.submit(
            job,
            JobCtx::Send {
                from,
                rank,
                proposal,
                justification,
                lead_ch_certificate,
                cert_count,
                just_count,
            },
            sink,
        );
    }

    /// Apply stage of the leader's `send` (Fig. 2's handler, with every
    /// signature already judged by the job). `bits` is split as
    /// `[cert_count certificate bits][just_count justification bits]`;
    /// the queue validated the total length against the job.
    #[allow(clippy::too_many_arguments)] // Fig. 2's send-handler state plus the job-verdict plumbing
    fn apply_send(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        justification: Justification,
        lead_ch_certificate: Vec<SignedVote>,
        cert_count: usize,
        just_count: usize,
        bits: &[bool],
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() || bits.len() != cert_count + just_count {
            return;
        }
        let (cert_bits, just_bits) = bits.split_at(cert_count);
        // Catch up to a later legitimate leader if the sender proves it.
        if rank > self.leader_rank
            && cert_count > 0
            && Self::distinct_valid_signers(&lead_ch_certificate, cert_bits)
                >= self.config.completion_threshold()
        {
            self.adopt_leader(rank, sink);
        }
        if rank != self.leader_rank || self.config.leader_at_rank(rank) != from {
            return;
        }
        let key = (rank, Self::proposal_key(&proposal));
        if self.echoed.contains(&key) {
            return;
        }
        // "if Q = ∅ or Q = Q": only echo a proposal compatible with any
        // proposal we already locked. (Checked before the justification —
        // when the prepare stage already saw the mismatch it carried no
        // justification bits at all.)
        if let Some((locked, _)) = &self.locked {
            if *locked != proposal {
                return;
            }
        }
        if just_count == 0 || !self.justification_valid(&proposal, &justification, just_bits) {
            return;
        }
        self.echoed.insert(key);
        let signature = self
            .keys
            .signing_key
            .sign(&mut self.rng, &payload::echo(self.tau, &proposal));
        let message = DkgMessage::Echo {
            tau: self.tau,
            rank,
            proposal,
            signature,
        };
        self.broadcast(message, sink);
    }

    /// Prepare stage of an `echo` vote: its signature becomes a job. A
    /// replayed vote from a sender already counted buys no signature
    /// verification (non-mutating preview of the apply-stage map insert).
    fn on_echo(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() {
            return;
        }
        if self
            .echo_votes
            .get(&Self::proposal_key(&proposal))
            .is_some_and(|votes| votes.contains_key(&from))
        {
            return;
        }
        let checks = vec![SignatureCheck {
            signer: from,
            payload: payload::echo(self.tau, &proposal).into(),
            signature,
        }];
        let job = self.signature_job(checks);
        self.submit(
            job,
            JobCtx::EchoVote {
                from,
                rank,
                proposal,
                signature,
            },
            sink,
        );
    }

    fn apply_echo(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() {
            return;
        }
        let key = Self::proposal_key(&proposal);
        self.proposals
            .entry(key.clone())
            .or_insert_with(|| proposal.clone());
        self.echo_votes
            .entry(key.clone())
            .or_default()
            .insert(from, signature);
        let echo_count = self.echo_votes[&key].len();
        let ready_count = self.ready_votes.get(&key).map_or(0, BTreeMap::len);
        if echo_count == self.config.echo_threshold()
            && ready_count < self.config.ready_amplify_threshold()
        {
            let certificate = Justification::EchoCertificate(
                self.echo_votes[&key]
                    .iter()
                    .map(|(&node, &signature)| SignedVote { node, signature })
                    .collect(),
            );
            self.locked = Some((proposal.clone(), certificate));
            self.send_ready(rank, proposal, sink);
        }
    }

    /// Prepare stage of a `ready` vote: its signature becomes a job. Like
    /// `echo`, replayed votes are rejected before any crypto.
    fn on_ready(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() {
            return;
        }
        if self
            .ready_votes
            .get(&Self::proposal_key(&proposal))
            .is_some_and(|votes| votes.contains_key(&from))
        {
            return;
        }
        let checks = vec![SignatureCheck {
            signer: from,
            payload: payload::ready(self.tau, &proposal).into(),
            signature,
        }];
        let job = self.signature_job(checks);
        self.submit(
            job,
            JobCtx::ReadyVote {
                from,
                rank,
                proposal,
                signature,
            },
            sink,
        );
    }

    fn apply_ready(
        &mut self,
        from: NodeId,
        rank: u64,
        proposal: Proposal,
        signature: Signature,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() {
            return;
        }
        let key = Self::proposal_key(&proposal);
        self.proposals
            .entry(key.clone())
            .or_insert_with(|| proposal.clone());
        self.ready_votes
            .entry(key.clone())
            .or_default()
            .insert(from, signature);
        let ready_count = self.ready_votes[&key].len();
        let echo_count = self.echo_votes.get(&key).map_or(0, BTreeMap::len);

        if ready_count == self.config.ready_amplify_threshold()
            && echo_count < self.config.echo_threshold()
        {
            let certificate = Justification::ReadyCertificate(
                self.ready_votes[&key]
                    .iter()
                    .map(|(&node, &signature)| SignedVote { node, signature })
                    .collect(),
            );
            self.locked = Some((proposal.clone(), certificate));
            self.send_ready(rank, proposal.clone(), sink);
        }

        if ready_count == self.config.completion_threshold() && self.agreed.is_none() {
            sink.cancel_timer(LEADER_TIMER);
            self.agreed = Some(proposal);
            self.try_complete(sink);
        }
    }

    fn send_ready(
        &mut self,
        rank: u64,
        proposal: Proposal,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.ready_sent {
            return;
        }
        self.ready_sent = true;
        let signature = self
            .keys
            .signing_key
            .sign(&mut self.rng, &payload::ready(self.tau, &proposal));
        let message = DkgMessage::Ready {
            tau: self.tau,
            rank,
            proposal,
            signature,
        };
        self.broadcast(message, sink);
    }

    fn try_complete(&mut self, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        if self.completed.is_some() {
            return;
        }
        let Some(proposal) = &self.agreed else {
            return;
        };
        if !proposal
            .dealers()
            .iter()
            .all(|d| self.completed_vss.contains_key(d))
        {
            return;
        }
        let dealers: Vec<NodeId> = proposal.dealers().to_vec();
        let matrices: Vec<&CommitmentMatrix> = dealers
            .iter()
            .map(|d| &self.completed_vss[d].commitment)
            .collect();
        let (share, commitment) = match self.combine {
            CombineRule::Sum => {
                let share = dealers
                    .iter()
                    .map(|d| self.completed_vss[d].share)
                    .sum::<Scalar>();
                let commitment = CommitmentMatrix::combine(&matrices).expect("uniform dimensions");
                (share, commitment)
            }
            CombineRule::InterpolateAtZero => {
                let weights: Vec<Scalar> = dealers
                    .iter()
                    .map(|&d| {
                        Scalar::lagrange_coefficient(&dealers, d, Scalar::zero())
                            .expect("distinct dealer indices")
                    })
                    .collect();
                let share = dealers
                    .iter()
                    .zip(&weights)
                    .map(|(d, w)| self.completed_vss[d].share * *w)
                    .sum::<Scalar>();
                let commitment = CommitmentMatrix::combine_weighted(&matrices, &weights)
                    .expect("uniform dimensions, one weight per dealer");
                (share, commitment)
            }
        };
        let result = DkgResult {
            dealers: dealers.clone(),
            public_key: commitment.public_key(),
            commitment: commitment.clone(),
            share,
            leader_rank: self.leader_rank,
        };
        self.completed = Some(result);
        sink.output(DkgOutput::Completed {
            tau: self.tau,
            leader_rank: self.leader_rank,
            dealers,
            commitment,
            share,
        });
    }

    // ------------------------------------------------------------------
    // Pessimistic phase handlers (Fig. 3)
    // ------------------------------------------------------------------

    fn on_timeout(&mut self, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        if self.lc_flag || self.completed.is_some() || self.agreed.is_some() {
            return;
        }
        self.send_lead_ch(self.leader_rank + 1, sink);
        self.lc_flag = true;
    }

    fn send_lead_ch(&mut self, new_rank: u64, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        let proposal = match &self.locked {
            Some((p, j)) => Some((p.clone(), j.clone())),
            None if !self.finished_set.is_empty()
                && self.finished_set.len() >= self.config.ready_amplify_threshold() =>
            {
                Some(self.current_q_hat())
            }
            None => None,
        };
        let signature = self
            .keys
            .signing_key
            .sign(&mut self.rng, &payload::lead_ch(self.tau, new_rank));
        let message = DkgMessage::LeadCh {
            tau: self.tau,
            new_rank,
            proposal,
            signature,
        };
        self.broadcast(message, sink);
    }

    /// Prepare stage of a `lead-ch` request: one job carrying the sender's
    /// signature plus the forwarded justification's checks — the latter
    /// only while this node could still adopt it (`locked` is empty; like
    /// the pre-pipeline handler, a lock makes the justification moot and
    /// must not cost signature verifications).
    fn on_lead_ch(
        &mut self,
        from: NodeId,
        new_rank: u64,
        proposal: Option<(Proposal, Justification)>,
        signature: Signature,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() || new_rank <= self.leader_rank {
            return;
        }
        let mut checks = vec![SignatureCheck {
            signer: from,
            payload: payload::lead_ch(self.tau, new_rank).into(),
            signature,
        }];
        let mut just_count = 0;
        if let Some((p, j)) = &proposal {
            // `locked` only ever gains a value, so skipping here can never
            // starve the apply stage of bits it would have used; garbage
            // proposals fail the free structural checks before any
            // signature is queued.
            if self.locked.is_none() && self.justification_structure_ok(p) {
                let just_checks = self.justification_checks(p, j);
                just_count = just_checks.len();
                checks.extend(just_checks);
            }
        }
        let job = self.signature_job(checks);
        self.submit(
            job,
            JobCtx::LeadCh {
                from,
                new_rank,
                proposal,
                signature,
                just_count,
            },
            sink,
        );
    }

    #[allow(clippy::too_many_arguments)] // Fig. 3's lead-ch state plus the job-verdict plumbing
    fn apply_lead_ch(
        &mut self,
        from: NodeId,
        new_rank: u64,
        proposal: Option<(Proposal, Justification)>,
        signature: Signature,
        just_count: usize,
        bits: &[bool],
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.completed.is_some() || new_rank <= self.leader_rank || bits.len() != 1 + just_count
        {
            return;
        }
        if !bits[0] {
            return;
        }
        self.lead_ch_votes
            .entry(new_rank)
            .or_default()
            .insert(from, signature);

        // Adopt a forwarded proposal if it verifies — this is how a node that
        // missed the optimistic phase catches up ("if R/M = R then Q̂ ← Q ...
        // else Q ← Q, M ← M").
        if let Some((p, j)) = proposal {
            if just_count > 0
                && self.locked.is_none()
                && self.justification_valid(&p, &j, &bits[1..])
            {
                match &j {
                    Justification::ReadyProofs(_) => {
                        // Q̂/R̂ from another node: remember it as a candidate
                        // proposal we could propose if we become leader.
                        self.locked = None;
                        self.proposals
                            .entry(Self::proposal_key(&p))
                            .or_insert_with(|| p.clone());
                        // Keep it as a lockable fallback by storing it with
                        // its proof; we only use it when we become leader.
                        if self.finished_set.len() < self.config.ready_amplify_threshold() {
                            self.locked = Some((p, j));
                        }
                    }
                    _ => {
                        self.locked = Some((p, j));
                    }
                }
            }
        }

        // t + 1 lead-ch votes for ranks above ours: at least one honest node
        // is unsatisfied, so join the leader change for the smallest
        // requested rank.
        let total_votes: usize = self
            .lead_ch_votes
            .iter()
            .filter(|(&rank, _)| rank > self.leader_rank)
            .map(|(_, votes)| votes.len())
            .sum();
        if total_votes >= self.config.ready_amplify_threshold() && !self.lc_flag {
            let smallest = self
                .lead_ch_votes
                .iter()
                .filter(|(&rank, votes)| rank > self.leader_rank && !votes.is_empty())
                .map(|(&rank, _)| rank)
                .min()
                .unwrap_or(self.leader_rank + 1);
            self.send_lead_ch(smallest, sink);
            self.lc_flag = true;
        }

        // n − t − f lead-ch votes for one rank: accept the new leader.
        let accepted = self.lead_ch_votes.get(&new_rank).map_or(0, BTreeMap::len);
        if accepted >= self.config.completion_threshold() {
            let certificate: Vec<SignedVote> = self.lead_ch_votes[&new_rank]
                .iter()
                .map(|(&node, &signature)| SignedVote { node, signature })
                .collect();
            self.lead_ch_certificate = certificate;
            self.adopt_leader(new_rank, sink);
            if self.is_leader() {
                self.broadcast_proposal(sink);
            } else {
                sink.set_timer(
                    LEADER_TIMER,
                    self.config.leader_timeout.timeout(self.retries),
                );
            }
        }
    }

    /// Responds to a DKG-level help request: retransmit every agreement
    /// message previously sent to the requester, within the §5.3 bounds
    /// (`d(κ)` per requester, `(t+1)·d(κ)` total).
    fn on_dkg_help(&mut self, from: NodeId, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        let per = self.help_granted_per.entry(from).or_insert(0);
        if *per > self.config.vss.per_node_help_limit()
            || self.help_granted_total > self.config.vss.total_help_limit()
        {
            return;
        }
        *per += 1;
        self.help_granted_total += 1;
        if let Some(messages) = self.outbox.get(&from).cloned() {
            for message in messages {
                sink.send(from, message);
            }
        }
    }

    fn adopt_leader(&mut self, new_rank: u64, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        self.leader_rank = new_rank;
        self.retries = self.retries.saturating_add(1);
        self.lc_flag = false;
        self.lead_ch_votes.retain(|&rank, _| rank > new_rank);
        sink.output(DkgOutput::LeaderChanged {
            tau: self.tau,
            new_rank,
        });
    }

    // ------------------------------------------------------------------
    // Group-secret reconstruction
    // ------------------------------------------------------------------

    fn start_reconstruction(&mut self, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        let Some(result) = &self.completed else {
            return;
        };
        if self.reconstruct_started {
            return;
        }
        self.reconstruct_started = true;
        let message = DkgMessage::Vss(VssMessage::ReconstructShare {
            session: SessionId::new(GROUP_SESSION_DEALER, self.tau),
            share: result.share,
        });
        self.broadcast(message, sink);
    }

    fn on_group_share(
        &mut self,
        from: NodeId,
        share: Scalar,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.reconstructed.is_some() {
            return;
        }
        if self.completed.is_none() || self.reconstruct.seen(from) {
            return;
        }
        // Pool the share unverified; each must satisfy the `share_commitment`
        // check, but a whole quorum is validated with one folded multiexp
        // instead of t + 1 separate ones.
        if let Some(entries) = self.reconstruct.pool(from, share, self.config.t() + 1) {
            self.submit_group_share_batch(entries, sink);
        }
    }

    fn submit_group_share_batch(
        &mut self,
        entries: Vec<(u64, Scalar)>,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        let commitment = &self
            .completed
            .as_ref()
            .expect("caller checked completion")
            .commitment;
        let job = CryptoJob::ShareBatch {
            // Group reconstruction happens at most once per session, so a
            // one-off copy into the shared handle is fine here.
            matrix: Arc::new(commitment.clone()),
            shares: entries.clone(),
        };
        self.submit(job, JobCtx::GroupShares { entries }, sink);
    }

    /// Apply stage for a group reconstruction share batch: promote valid
    /// shares, interpolate on quorum, re-batch shares pooled in flight.
    fn apply_group_shares(
        &mut self,
        entries: Vec<(NodeId, Scalar)>,
        valid: &[bool],
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        if self.reconstructed.is_some() || self.completed.is_none() {
            return;
        }
        match self.reconstruct.absorb(entries, valid, self.config.t() + 1) {
            ShareProgress::Quorum(shares) => {
                let value = interpolate_secret(&shares).expect("distinct indices");
                self.reconstructed = Some(value);
                sink.output(DkgOutput::Reconstructed {
                    tau: self.tau,
                    value,
                });
            }
            ShareProgress::Submit(entries) => self.submit_group_share_batch(entries, sink),
            ShareProgress::Pending => {}
        }
    }
}

impl Protocol for DkgNode {
    type Message = DkgMessage;
    type Operator = DkgInput;
    type Output = DkgOutput;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_operator(&mut self, input: DkgInput, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        match input {
            DkgInput::Start => {
                if self.started {
                    return;
                }
                self.started = true;
                self.combine = CombineRule::Sum;
                let secret = Scalar::random(&mut self.rng);
                let actions = self
                    .vss
                    .get_mut(&self.id)
                    .expect("own VSS instance exists")
                    .handle_input(VssInput::Share { secret });
                self.forward_vss(self.id, actions, sink);
            }
            DkgInput::StartReshare { value } => {
                if self.started {
                    return;
                }
                self.started = true;
                self.combine = CombineRule::InterpolateAtZero;
                let actions = self
                    .vss
                    .get_mut(&self.id)
                    .expect("own VSS instance exists")
                    .handle_input(VssInput::Share { secret: value });
                self.forward_vss(self.id, actions, sink);
            }
            DkgInput::Reconstruct => self.start_reconstruction(sink),
            DkgInput::Recover => {
                // §5.3: a rebooted node asks for help in every embedded VSS
                // session and retransmits its own outgoing messages.
                let dealers: Vec<NodeId> = self.vss.keys().copied().collect();
                for dealer in dealers {
                    let mut actions = Vec::new();
                    if let Some(vss) = self.vss.get_mut(&dealer) {
                        vss.recover(&mut actions);
                    }
                    self.forward_vss(dealer, actions, sink);
                }
                for (&to, messages) in &self.outbox {
                    for message in messages {
                        sink.send(to, message.clone());
                    }
                }
            }
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: DkgMessage,
        sink: &mut ActionSink<DkgMessage, DkgOutput>,
    ) {
        match message {
            DkgMessage::Vss(vss_message) => {
                let session = vss_message.session();
                if session.tau != self.tau {
                    return;
                }
                if session.dealer == GROUP_SESSION_DEALER {
                    if let VssMessage::ReconstructShare { share, .. } = vss_message {
                        self.on_group_share(from, share, sink);
                    }
                    return;
                }
                // §5.3: a recovering node asks for help in every embedded
                // session; the help carried in the requester's *own* dealer
                // session doubles as the DKG-level retransmission request
                // (one per recovery wave), so peers also resend the
                // agreement messages — send/echo/ready/lead-ch — the node
                // missed while down. Bounded by the same `d(κ)` counters
                // as the VSS help protocol.
                if matches!(vss_message, VssMessage::Help { .. }) && session.dealer == from {
                    self.on_dkg_help(from, sink);
                }
                let dealer = session.dealer;
                let Some(vss) = self.vss.get_mut(&dealer) else {
                    return;
                };
                let actions = vss.handle_message(from, vss_message);
                self.forward_vss(dealer, actions, sink);
            }
            DkgMessage::Send {
                tau,
                rank,
                proposal,
                justification,
                lead_ch_certificate,
            } => {
                if tau == self.tau {
                    self.on_send(
                        from,
                        rank,
                        proposal,
                        justification,
                        lead_ch_certificate,
                        sink,
                    );
                }
            }
            DkgMessage::Echo {
                tau,
                rank,
                proposal,
                signature,
            } => {
                if tau == self.tau {
                    self.on_echo(from, rank, proposal, signature, sink);
                }
            }
            DkgMessage::Ready {
                tau,
                rank,
                proposal,
                signature,
            } => {
                if tau == self.tau {
                    self.on_ready(from, rank, proposal, signature, sink);
                }
            }
            DkgMessage::LeadCh {
                tau,
                new_rank,
                proposal,
                signature,
            } => {
                if tau == self.tau {
                    self.on_lead_ch(from, new_rank, proposal, signature, sink);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        if timer == LEADER_TIMER {
            self.on_timeout(sink);
        }
    }

    fn on_recover(&mut self, sink: &mut ActionSink<DkgMessage, DkgOutput>) {
        self.on_operator(DkgInput::Recover, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_crypto::generate_keyring;

    #[test]
    fn restore_rejects_identity_directory_key() {
        // A persisted directory entry that decodes to the identity is not a
        // valid verification key; the restore must attribute the failure.
        let mut rng = StdRng::seed_from_u64(21);
        let (secrets, directory) = generate_keyring(&mut rng, 4);
        let config = DkgConfig::standard(4, 0).unwrap();
        let keys = NodeKeys {
            signing_key: secrets[&1],
            directory: Arc::new(directory),
        };
        let node = DkgNode::new(1, config, keys, 0, 77);
        let mut snapshot = node.snapshot().expect("idle node snapshots");
        snapshot.directory.insert(3, GroupElement::identity());
        assert_eq!(
            DkgNode::restore(snapshot).err(),
            Some(dkg_vss::SnapshotError::InvalidDirectoryKey { node: 3 })
        );
    }

    /// Drives `n` DkgNodes to completion by synchronously delivering all
    /// produced messages, pumping each node's crypto jobs after every
    /// handler call (inline nodes queue none). Timer actions are ignored:
    /// with an honest initial leader the optimistic phase completes without
    /// timeouts.
    fn run_synchronously(nodes: &mut BTreeMap<NodeId, DkgNode>) -> Vec<(NodeId, DkgOutput)> {
        let mut outputs = Vec::new();
        let mut queue: Vec<(NodeId, NodeId, DkgMessage)> = Vec::new();
        let mut dispatch =
            |node: &mut DkgNode, sink: ActionSink<DkgMessage, DkgOutput>, from: NodeId| {
                let mut sink = sink;
                while let Some((id, job)) = node.poll_job() {
                    node.complete_job(id, job.run(), &mut sink);
                }
                sink.into_actions()
                    .into_iter()
                    .filter_map(|action| match action {
                        dkg_sim::Action::Send { to, message } => Some((from, to, message)),
                        dkg_sim::Action::Output(o) => {
                            outputs.push((from, o));
                            None
                        }
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            };
        for (&id, node) in nodes.iter_mut() {
            let mut sink = ActionSink::new();
            node.on_operator(DkgInput::Start, &mut sink);
            queue.extend(dispatch(node, sink, id));
        }
        while let Some((from, to, message)) = queue.pop() {
            let Some(node) = nodes.get_mut(&to) else {
                continue;
            };
            let mut sink = ActionSink::new();
            node.on_message(from, message, &mut sink);
            queue.extend(dispatch(node, sink, to));
        }
        outputs
    }

    /// A full 4-node DKG driven synchronously in deferred-crypto mode
    /// produces the same public key and shares as the inline default.
    #[test]
    fn deferred_crypto_matches_inline() {
        let run = |deferred: bool| {
            let n = 4;
            let mut rng = StdRng::seed_from_u64(99);
            let (secrets, directory) = generate_keyring(&mut rng, n);
            let config = DkgConfig::standard(n, 0).unwrap();
            let mut nodes: BTreeMap<NodeId, DkgNode> = (1..=n as u64)
                .map(|i| {
                    let keys = NodeKeys {
                        signing_key: secrets[&i],
                        directory: Arc::new(directory.clone()),
                    };
                    let mut node = DkgNode::new(i, config.clone(), keys, 0, 4200 + i);
                    node.set_deferred_crypto(deferred);
                    (i, node)
                })
                .collect();
            let outputs = run_synchronously(&mut nodes);
            let mut done: Vec<(NodeId, Vec<u8>, Vec<u8>)> = outputs
                .into_iter()
                .filter_map(|(node, o)| match o {
                    DkgOutput::Completed {
                        commitment, share, ..
                    } => Some((
                        node,
                        commitment.public_key().to_bytes().to_vec(),
                        share.to_be_bytes().to_vec(),
                    )),
                    _ => None,
                })
                .collect();
            done.sort();
            assert_eq!(done.len(), n);
            assert!(nodes.values().all(|node| node.jobs_in_flight() == 0));
            done
        };
        assert_eq!(run(false), run(true));
    }
}
