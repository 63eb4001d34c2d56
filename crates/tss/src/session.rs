//! The threshold-Schnorr signing state machine ([`SignSession`]).
//!
//! One session serves many signing requests against one DKG'd key. Each
//! request runs coordinator-led two-round FROST-style signing:
//!
//! * **round 1** — the coordinator broadcasts a nonce solicitation; every
//!   non-excluded share-holder answers with a hiding/binding commitment
//!   pair `(D_i, E_i) = (g^{d_i}, g^{e_i})`;
//! * **round 2** — once the deterministic quorum (the first `t + 1`
//!   non-excluded signers by id) has committed, the coordinator fixes the
//!   signing *package* and re-broadcasts the request with it; each quorum
//!   member derives its binding factor `ρ_i`, the group nonce
//!   `R = Σ (D_j + E_j·ρ_j)`, the Schnorr challenge `c = H(R, pk, m)` and
//!   its Lagrange weight `λ_i`, and answers with the partial response
//!   `s_i = d_i + e_i·ρ_i + c·λ_i·x_i`.
//!
//! When the last partial arrives the coordinator aggregates `s = Σ s_i`
//! and verifies `(R, s)` — an ordinary Schnorr signature — under the group
//! key. If it verifies, the request is finished on the spot: the signature
//! is broadcast to everyone as a [`TssMessage::SignResult`] and no
//! per-signer check ever runs. Only if it does not verify does the
//! coordinator compute the per-signer nonces `R_k = D_k + E_k·ρ_k` and
//! submit the partials as one [`CryptoJob::PartialSigBatch`] through the
//! same job pipeline the DKG uses, to find out whom to blame: an invalid
//! aggregate means `Σ_k (g^{s_k} − R_k − A_k^{cλ_k}) ≠ 0`, so at least one
//! claim fails and blame always names someone.
//!
//! Per-share verification exists to *identify* the culprits of a failed
//! signature, not to veto a valid one (RFC 9591 §5.3): two colluding quorum
//! members whose errors cancel (`s_1 + δ`, `s_2 − δ`) are answered with the
//! signature — the very bytes an honest run produces — and are not blamed.
//!
//! Silent or misbehaving quorum members are excluded and the request is
//! retried with a fresh attempt counter, fresh nonces and the next
//! eligible quorum; when fewer than `t + 1` eligible signers remain the
//! request reports [`TssOutput::Exhausted`].
//!
//! Nonces are single-use by construction: each `(req, attempt)` pair has
//! exactly one nonce pair, and once a package digest has been signed for
//! it, any *different* package for the same pair is refused — the
//! classic two-nonce-reuse share-leak cannot be provoked by an
//! equivocating coordinator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dkg_arith::{generator_table, multiexp, GroupElement, PrimeField, Scalar};
use dkg_core::DkgResult;
use dkg_crypto::{schnorr_challenge, sha256_parts, NodeId, PublicKey, Signature, TabledKey};
use dkg_poly::{
    lagrange_weights_at_zero, CommitmentMatrix, CryptoJob, CryptoVerdict, JobQueue,
    PartialSigClaim, Submission,
};
use dkg_sim::{ActionSink, Protocol, SimTime, TimerId};
use dkg_wire::WireEncode;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::messages::{NonceCommitEntry, TssInput, TssMessage, TssOutput};

/// Parameters of a signing session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TssConfig {
    signers: Vec<NodeId>,
    threshold: usize,
    retry_delay: SimTime,
}

impl TssConfig {
    /// Validates and builds a config: `signers` must be non-empty, strictly
    /// ascending, free of the id `0` (which has no Lagrange weight at
    /// zero), and large enough to seat a `t + 1` quorum; `retry_delay`
    /// must be non-zero.
    pub fn new(signers: Vec<NodeId>, threshold: usize, retry_delay: SimTime) -> Option<Self> {
        if retry_delay == 0 || signers.len() < threshold + 1 {
            return None;
        }
        let ascending_nonzero = signers
            .iter()
            .zip(signers.iter().skip(1))
            .all(|(a, b)| a < b)
            && signers.first().is_some_and(|&first| first != 0);
        if !ascending_nonzero {
            return None;
        }
        Some(TssConfig {
            signers,
            threshold,
            retry_delay,
        })
    }

    /// The share-holders, in ascending id order.
    pub fn signers(&self) -> &[NodeId] {
        &self.signers
    }

    /// The reconstruction threshold `t`; any `t + 1` signers can sign.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Per-request round timer: how long the coordinator waits before
    /// blaming non-responders and retrying.
    pub fn retry_delay(&self) -> SimTime {
        self.retry_delay
    }

    /// Quorum size, `t + 1`.
    pub fn quorum_size(&self) -> usize {
        self.threshold + 1
    }
}

/// Coordinator-side state of one in-flight request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestState {
    /// The current retry round.
    pub attempt: u32,
    /// Signers excluded for misbehaviour or silence.
    pub excluded: BTreeSet<NodeId>,
    /// The current quorum, ascending.
    pub quorum: Vec<NodeId>,
    /// Nonce commitments `(D_i, E_i)` collected this round, by signer.
    pub commits: BTreeMap<NodeId, (GroupElement, GroupElement)>,
    /// Partial responses collected this round, by signer.
    pub partials: BTreeMap<NodeId, Scalar>,
}

impl RequestState {
    fn new(config: &TssConfig) -> Self {
        RequestState {
            attempt: 0,
            excluded: BTreeSet::new(),
            quorum: config.signers[..config.quorum_size()].to_vec(),
            commits: BTreeMap::new(),
            partials: BTreeMap::new(),
        }
    }

    /// The fixed signing package, once the full quorum has committed
    /// (`BTreeMap` iteration gives the canonical ascending order).
    fn package(&self) -> Option<Vec<NonceCommitEntry>> {
        if self.commits.len() != self.quorum.len() {
            return None;
        }
        Some(
            self.commits
                .iter()
                .map(|(&signer, &(hiding, binding))| NonceCommitEntry {
                    signer,
                    hiding,
                    binding,
                })
                .collect(),
        )
    }
}

/// How many completed requests a session remembers: the `RESULT_WINDOW`
/// highest request ids, 73 bytes each (id + signature) in memory and in
/// every snapshot — 9 KiB a session. `results` only ever *shortcuts* work: a
/// replayed `Sign` or a retransmitted solicitation of a remembered request
/// is answered with its signature. Forgetting one is therefore safe — a
/// forgotten request that is solicited again is signed again, with fresh
/// nonces under the untouched `(req, attempt)` guard, which yields another
/// valid signature and never a reused nonce — and costs one more signing
/// round, where an unbounded map costs a session that serves its key's
/// whole life 73 bytes per signature, forever, at every node.
const RESULT_WINDOW: usize = 128;

/// Context carried from partial-sig job submission to verdict application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SignCtx {
    req: u64,
    attempt: u32,
}

/// The per-package values every party to a round derives identically.
struct Round {
    rho: Vec<Scalar>,
    group_nonce: GroupElement,
    challenge: Scalar,
    lambdas: Vec<Scalar>,
}

/// Derives the binding factors, the group nonce `R = Σ_j (D_j + E_j·ρ_j)`
/// — one multi-exponentiation over `[E.., D..]` with scalars `[ρ.., 1..]`,
/// never the per-signer `R_j` — the challenge and the Lagrange weights for
/// a signing package (`package_bytes` is its encoding). `None` if the
/// package's signer ids admit no Lagrange weights (duplicate or zero ids —
/// rejected earlier, kept as a guard).
fn derive_round(
    sid: u64,
    req: u64,
    attempt: u32,
    message: &[u8],
    package: &[NonceCommitEntry],
    package_bytes: &[u8],
    group_key: &PublicKey,
) -> Option<Round> {
    let ids: Vec<u64> = package.iter().map(|entry| entry.signer).collect();
    let lambdas = lagrange_weights_at_zero(&ids)?;
    let rho: Vec<Scalar> = ids
        .iter()
        .map(|&j| {
            let digest = sha256_parts(&[
                b"dkg-tss-binding-v1",
                &sid.to_be_bytes(),
                &req.to_be_bytes(),
                &attempt.to_be_bytes(),
                message,
                package_bytes,
                &j.to_be_bytes(),
            ]);
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(&digest);
            wide[32..].copy_from_slice(&sha256_parts(&[b"dkg-tss-binding-v1-ext", &digest]));
            Scalar::from_uniform_bytes(&wide)
        })
        .collect();
    let points: Vec<GroupElement> = package
        .iter()
        .map(|entry| entry.binding)
        .chain(package.iter().map(|entry| entry.hiding))
        .collect();
    let mut scalars = rho.clone();
    scalars.resize(points.len(), Scalar::one());
    let group_nonce = multiexp(&points, &scalars);
    let challenge = schnorr_challenge(&group_nonce, group_key, message);
    Some(Round {
        rho,
        group_nonce,
        challenge,
        lambdas,
    })
}

/// Digest binding a partial signature to exactly one `(package, message)`
/// per `(req, attempt)` — the nonce-reuse guard.
fn package_digest(
    sid: u64,
    req: u64,
    attempt: u32,
    message: &[u8],
    package_bytes: &[u8],
) -> [u8; 32] {
    sha256_parts(&[
        b"dkg-tss-package-v1",
        &sid.to_be_bytes(),
        &req.to_be_bytes(),
        &attempt.to_be_bytes(),
        message,
        package_bytes,
    ])
}

/// A node's threshold-signing state machine for one DKG'd key.
///
/// Every node is a *participant* (answers solicitations and packages with
/// its share); the node whose operator submits a [`TssInput::Sign`]
/// additionally *coordinates* that request. Both roles live in this one
/// machine and the coordinator talks to itself over ordinary self-sends,
/// so the message flow is uniform.
pub struct SignSession {
    pub(crate) id: NodeId,
    pub(crate) sid: u64,
    pub(crate) config: TssConfig,
    pub(crate) share: Scalar,
    pub(crate) commitment: Arc<CommitmentMatrix>,
    /// The group key `C_00` with its table: fixed for the session's life,
    /// and every aggregate and every broadcast result is checked under it.
    pub(crate) group_key: TabledKey,
    pub(crate) rng: StdRng,
    /// `req → message`, for every request this node has seen (verifies
    /// broadcast results); dropped once the request completes.
    pub(crate) requests: BTreeMap<u64, Vec<u8>>,
    /// Participant nonce secrets per `(req, attempt)`.
    pub(crate) nonces: BTreeMap<(u64, u32), (Scalar, Scalar)>,
    /// Digest of the one `(package, message)` signed per `(req, attempt)`.
    pub(crate) signed: BTreeMap<(u64, u32), [u8; 32]>,
    /// The [`RESULT_WINDOW`] highest completed requests and their
    /// signatures.
    pub(crate) results: BTreeMap<u64, Signature>,
    /// Requests that failed permanently (quorum exhausted).
    pub(crate) exhausted: BTreeSet<u64>,
    /// Requests this node coordinates, while in flight.
    pub(crate) coordinating: BTreeMap<u64, RequestState>,
    pub(crate) jobs: JobQueue<SignCtx>,
}

// The share scalar, the nonce secrets and the RNG state are all
// signing-key material: a derived Debug would print them into any log or
// panic message that formats a session (dkg-lint rule R2).
impl std::fmt::Debug for SignSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignSession")
            .field("id", &self.id)
            .field("sid", &self.sid)
            .field("config", &self.config)
            .field("share", &"<redacted>")
            .field("requests", &self.requests.len())
            .field("results", &self.results.len())
            .field("coordinating", &self.coordinating.len())
            .finish_non_exhaustive()
    }
}

impl SignSession {
    /// Builds a session from explicit key material. Returns `None` if `id`
    /// is not in the signer set, the group key is the identity or is not
    /// the commitment matrix's `C_00` (partials are judged against the
    /// matrix, the aggregate against the key: they must be one sharing), or
    /// the config's threshold disagrees with the commitment matrix's degree
    /// (Lagrange interpolation needs exactly `t + 1` points of the
    /// degree-`t` sharing).
    pub fn new(
        id: NodeId,
        sid: u64,
        config: TssConfig,
        share: Scalar,
        commitment: impl Into<Arc<CommitmentMatrix>>,
        group_key: GroupElement,
        seed: u64,
    ) -> Option<Self> {
        let commitment = commitment.into();
        if !config.signers.contains(&id)
            || config.threshold != commitment.threshold()
            || group_key != commitment.public_key()
        {
            return None;
        }
        let group_key = PublicKey::from_point(group_key)?;
        Some(SignSession {
            id,
            sid,
            config,
            share,
            commitment,
            group_key: TabledKey::new(group_key),
            rng: StdRng::seed_from_u64(seed),
            requests: BTreeMap::new(),
            nonces: BTreeMap::new(),
            signed: BTreeMap::new(),
            results: BTreeMap::new(),
            exhausted: BTreeSet::new(),
            coordinating: BTreeMap::new(),
            jobs: JobQueue::new(),
        })
    }

    /// Builds a session directly from a completed DKG's result — the
    /// intended hand-off: the `DkgResult`'s combined commitment matrix
    /// judges partial signatures, its public key verifies results, and its
    /// share signs.
    pub fn from_dkg_result(
        id: NodeId,
        sid: u64,
        config: TssConfig,
        result: &DkgResult,
        seed: u64,
    ) -> Option<Self> {
        SignSession::new(
            id,
            sid,
            config,
            result.share,
            result.commitment.clone(),
            result.public_key,
            seed,
        )
    }

    /// This session's identifier.
    pub fn sid(&self) -> u64 {
        self.sid
    }

    /// The session parameters.
    pub fn config(&self) -> &TssConfig {
        &self.config
    }

    /// The group verification key signatures verify under.
    pub fn group_key(&self) -> PublicKey {
        self.group_key.key()
    }

    /// The signature for a completed request, if any.
    pub fn result(&self, req: u64) -> Option<Signature> {
        self.results.get(&req).copied()
    }

    // -----------------------------------------------------------------
    // Job pipeline (same seam as `DkgNode`)
    // -----------------------------------------------------------------

    /// Switches between inline crypto (default) and deferred jobs polled
    /// via [`SignSession::poll_job`].
    pub fn set_deferred_crypto(&mut self, deferred: bool) {
        self.jobs.set_deferred(deferred);
    }

    /// Takes the next queued crypto job, if any.
    pub fn poll_job(&mut self) -> Option<(u64, CryptoJob)> {
        self.jobs.poll()
    }

    /// Whether jobs are queued and not yet polled.
    pub fn has_queued_jobs(&self) -> bool {
        self.jobs.queued() > 0
    }

    /// Jobs polled but not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.in_flight()
    }

    /// Applies the verdict of a previously polled job.
    pub fn complete_job(
        &mut self,
        id: u64,
        verdict: &CryptoVerdict,
        sink: &mut ActionSink<TssMessage, TssOutput>,
    ) {
        if let Some(ctx) = self.jobs.complete(id, verdict) {
            self.apply_verdict(ctx, verdict, sink);
        }
    }

    /// Whether the job queue holds no work (snapshots require this).
    pub fn jobs_idle(&self) -> bool {
        self.jobs.is_idle()
    }

    // -----------------------------------------------------------------
    // Coordinator internals
    // -----------------------------------------------------------------

    fn start_request(&mut self, req: u64, message: Vec<u8>, sink: &mut Sink) {
        if let Some(signature) = self.results.get(&req) {
            sink.output(TssOutput::Signed {
                req,
                signature: *signature,
            });
            return;
        }
        if self.exhausted.contains(&req) {
            sink.output(TssOutput::Exhausted { req });
            return;
        }
        if self.coordinating.contains_key(&req) {
            // Idempotent replay (e.g. a WAL-recovered duplicate).
            return;
        }
        if self.requests.get(&req).is_some_and(|seen| seen != &message) {
            // `req` already names a different message in this session
            // (another coordinator claimed it); refuse the collision.
            return;
        }
        self.requests.insert(req, message.clone());
        let state = RequestState::new(&self.config);
        let solicitation = TssMessage::SignRequest {
            sid: self.sid,
            req,
            attempt: 0,
            message,
            package: None,
        };
        sink.send_to_all(self.config.signers.iter().copied(), solicitation);
        sink.set_timer(req, self.config.retry_delay);
        self.coordinating.insert(req, state);
    }

    fn resend_current_round(&mut self, sink: &mut Sink) {
        type Round = (u64, u32, Option<Vec<NonceCommitEntry>>, Vec<NodeId>);
        let rounds: Vec<Round> = self
            .coordinating
            .iter()
            .map(|(&req, state)| {
                let package = state.package();
                let recipients = match package {
                    Some(_) => state.quorum.clone(),
                    None => self
                        .config
                        .signers
                        .iter()
                        .copied()
                        .filter(|signer| !state.excluded.contains(signer))
                        .collect(),
                };
                (req, state.attempt, package, recipients)
            })
            .collect();
        for (req, attempt, package, recipients) in rounds {
            let Some(message) = self.requests.get(&req).cloned() else {
                continue;
            };
            sink.send_to_all(
                recipients,
                TssMessage::SignRequest {
                    sid: self.sid,
                    req,
                    attempt,
                    message,
                    package,
                },
            );
            sink.set_timer(req, self.config.retry_delay);
        }
    }

    fn on_nonce_commit(
        &mut self,
        from: NodeId,
        req: u64,
        attempt: u32,
        signer: NodeId,
        commit: (GroupElement, GroupElement),
        sink: &mut Sink,
    ) {
        if from != signer {
            return;
        }
        let Some(state) = self.coordinating.get_mut(&req) else {
            return;
        };
        if attempt != state.attempt
            || !state.quorum.contains(&signer)
            || state.commits.contains_key(&signer)
        {
            return;
        }
        state.commits.insert(signer, commit);
        let Some(package) = state.package() else {
            return;
        };
        // Quorum complete: fix the package, ask for partials, restart the
        // round clock for round 2.
        let quorum = state.quorum.clone();
        let attempt = state.attempt;
        let Some(message) = self.requests.get(&req).cloned() else {
            return;
        };
        sink.send_to_all(
            quorum,
            TssMessage::SignRequest {
                sid: self.sid,
                req,
                attempt,
                message,
                package: Some(package),
            },
        );
        sink.set_timer(req, self.config.retry_delay);
    }

    fn on_partial_sig(
        &mut self,
        from: NodeId,
        req: u64,
        attempt: u32,
        signer: NodeId,
        response: Scalar,
        sink: &mut Sink,
    ) {
        if from != signer {
            return;
        }
        let Some(state) = self.coordinating.get_mut(&req) else {
            return;
        };
        if attempt != state.attempt
            || state.package().is_none()
            || !state.quorum.contains(&signer)
            || state.partials.contains_key(&signer)
        {
            return;
        }
        state.partials.insert(signer, response);
        if state.partials.len() == state.quorum.len() {
            self.conclude(req, sink);
        }
    }

    /// The full partial set is in: aggregate, and verify the aggregate as
    /// the plain Schnorr signature it must be. Valid → finished, no job.
    /// Invalid → somebody lied; submit the per-signer claims to find out
    /// who.
    fn conclude(&mut self, req: u64, sink: &mut Sink) {
        let Some(state) = self.coordinating.get(&req) else {
            return;
        };
        let Some(package) = state.package() else {
            return;
        };
        let Some(message) = self.requests.get(&req) else {
            return;
        };
        let attempt = state.attempt;
        let Some(round) = derive_round(
            self.sid,
            req,
            attempt,
            message,
            &package,
            &package.encode(),
            &self.group_key.key(),
        ) else {
            return;
        };
        let response: Scalar = state.partials.values().copied().sum();
        let signature = Signature::from_parts(round.group_nonce, response);
        if self.group_key.verify(message, &signature).is_ok() {
            self.finish(req, signature, sink);
            return;
        }
        let claims: Vec<PartialSigClaim> = package
            .iter()
            .enumerate()
            .map(|(k, entry)| {
                PartialSigClaim::new(
                    entry.signer,
                    round.challenge * round.lambdas[k],
                    entry.hiding + entry.binding * round.rho[k],
                    state.partials[&entry.signer],
                )
            })
            .collect();
        let job = CryptoJob::partial_sig_batch(self.commitment.clone(), claims);
        if let Submission::Ready(ctx, verdict) = self.jobs.submit(job, SignCtx { req, attempt }) {
            self.apply_verdict(ctx, &verdict, sink);
        }
    }

    /// Applies the verdict on the partials of a round whose aggregate did
    /// not verify: the signers of the failed claims are excluded and the
    /// request retried. (A verdict that fails no claim contradicts the
    /// aggregate check; the round is retried with nobody excluded.)
    fn apply_verdict(&mut self, ctx: SignCtx, verdict: &CryptoVerdict, sink: &mut Sink) {
        let SignCtx { req, attempt } = ctx;
        let Some(state) = self.coordinating.get(&req) else {
            return;
        };
        if state.attempt != attempt {
            return; // stale: the round was retried while the job ran
        }
        let Some(package) = state.package() else {
            return;
        };
        if verdict.len() != package.len() {
            return;
        }
        let blamed: Vec<NodeId> = package
            .iter()
            .zip(&verdict.valid)
            .filter(|(_, &valid)| !valid)
            .map(|(entry, _)| entry.signer)
            .collect();
        self.retry(req, blamed, sink);
    }

    /// Remembers a completed request, forgetting the smallest ids beyond
    /// [`RESULT_WINDOW`].
    fn record_result(&mut self, req: u64, signature: Signature) {
        self.results.insert(req, signature);
        while self.results.len() > RESULT_WINDOW {
            self.results.pop_first();
        }
    }

    fn finish(&mut self, req: u64, signature: Signature, sink: &mut Sink) {
        self.record_result(req, signature);
        self.coordinating.remove(&req);
        sink.cancel_timer(req);
        let others = self
            .config
            .signers
            .iter()
            .copied()
            .filter(|&signer| signer != self.id);
        sink.send_to_all(
            others,
            TssMessage::SignResult {
                sid: self.sid,
                req,
                signature,
            },
        );
        sink.output(TssOutput::Signed { req, signature });
        self.cleanup(req);
    }

    /// Excludes `blamed`, bumps the attempt and reruns round 1 with the
    /// next eligible quorum — or reports exhaustion when none remains.
    fn retry(&mut self, req: u64, blamed: Vec<NodeId>, sink: &mut Sink) {
        let Some(state) = self.coordinating.get_mut(&req) else {
            return;
        };
        state.excluded.extend(blamed);
        let eligible: Vec<NodeId> = self
            .config
            .signers
            .iter()
            .copied()
            .filter(|signer| !state.excluded.contains(signer))
            .collect();
        if eligible.len() < self.config.quorum_size() {
            self.exhausted.insert(req);
            self.coordinating.remove(&req);
            sink.cancel_timer(req);
            sink.output(TssOutput::Exhausted { req });
            self.cleanup(req);
            return;
        }
        state.attempt += 1;
        state.quorum = eligible[..self.config.quorum_size()].to_vec();
        state.commits.clear();
        state.partials.clear();
        let attempt = state.attempt;
        let Some(message) = self.requests.get(&req).cloned() else {
            return;
        };
        sink.send_to_all(
            eligible,
            TssMessage::SignRequest {
                sid: self.sid,
                req,
                attempt,
                message,
                package: None,
            },
        );
        sink.set_timer(req, self.config.retry_delay);
    }

    /// Drops per-request participant state once `req` has an outcome.
    fn cleanup(&mut self, req: u64) {
        self.nonces.retain(|&(r, _), _| r != req);
        self.signed.retain(|&(r, _), _| r != req);
        self.requests.remove(&req);
    }

    // -----------------------------------------------------------------
    // Participant internals
    // -----------------------------------------------------------------

    fn on_sign_request(
        &mut self,
        from: NodeId,
        req: u64,
        attempt: u32,
        message: Vec<u8>,
        package: Option<Vec<NonceCommitEntry>>,
        sink: &mut Sink,
    ) {
        if let Some(&signature) = self.results.get(&req) {
            // Already completed (e.g. the coordinator crashed after
            // broadcasting the result and is now replaying): answer with
            // the result instead of new signing material.
            sink.send(
                from,
                TssMessage::SignResult {
                    sid: self.sid,
                    req,
                    signature,
                },
            );
            return;
        }
        match self.requests.get(&req) {
            Some(seen) if seen != &message => return, // equivocation on `req`
            Some(_) => {}
            None => {
                self.requests.insert(req, message.clone());
            }
        }
        match package {
            None => self.answer_solicitation(from, req, attempt, sink),
            Some(package) => self.answer_package(from, req, attempt, &message, package, sink),
        }
    }

    fn answer_solicitation(&mut self, from: NodeId, req: u64, attempt: u32, sink: &mut Sink) {
        if !self.nonces.contains_key(&(req, attempt)) {
            let mut sample = || loop {
                let s = Scalar::random(&mut self.rng);
                if !s.is_zero() {
                    return s;
                }
            };
            let pair = (sample(), sample());
            self.nonces.insert((req, attempt), pair);
        }
        // Retransmits re-send the identical commitments: the nonce pair is
        // keyed by (req, attempt), never resampled.
        let (d, e) = self.nonces[&(req, attempt)];
        let [hiding, binding] = nonce_commitments(&d, &e);
        sink.send(
            from,
            TssMessage::NonceCommit {
                sid: self.sid,
                req,
                attempt,
                signer: self.id,
                hiding,
                binding,
            },
        );
    }

    fn answer_package(
        &mut self,
        from: NodeId,
        req: u64,
        attempt: u32,
        message: &[u8],
        package: Vec<NonceCommitEntry>,
        sink: &mut Sink,
    ) {
        // Structural validation: quorum-sized, strictly ascending signers
        // drawn from the signer set (the wire decoder already enforces
        // ascending order; in-process callers are re-checked).
        if package.len() != self.config.quorum_size()
            || !package
                .iter()
                .zip(package.iter().skip(1))
                .all(|(a, b)| a.signer < b.signer)
            || !package
                .iter()
                .all(|entry| self.config.signers.contains(&entry.signer))
        {
            return;
        }
        // We can only sign with nonces we actually committed, and only if
        // the package advertises exactly those commitments for us.
        let Some(&(d, e)) = self.nonces.get(&(req, attempt)) else {
            return;
        };
        let Some(position) = package.iter().position(|entry| entry.signer == self.id) else {
            return;
        };
        let me = &package[position];
        if [me.hiding, me.binding] != nonce_commitments(&d, &e) {
            return;
        }
        // Nonce-reuse guard: one (package, message) digest per (req,
        // attempt). A second, different package is refused outright; the
        // same digest is answered idempotently (the recomputed response is
        // identical).
        let package_bytes = package.encode();
        let digest = package_digest(self.sid, req, attempt, message, &package_bytes);
        if self
            .signed
            .get(&(req, attempt))
            .is_some_and(|seen| *seen != digest)
        {
            return;
        }
        let Some(round) = derive_round(
            self.sid,
            req,
            attempt,
            message,
            &package,
            &package_bytes,
            &self.group_key.key(),
        ) else {
            return;
        };
        let response =
            d + e * round.rho[position] + round.challenge * round.lambdas[position] * self.share;
        self.signed.insert((req, attempt), digest);
        sink.send(
            from,
            TssMessage::PartialSig {
                sid: self.sid,
                req,
                attempt,
                signer: self.id,
                response,
            },
        );
    }

    fn on_sign_result(&mut self, req: u64, signature: Signature, sink: &mut Sink) {
        if self.results.contains_key(&req) {
            return;
        }
        let Some(message) = self.requests.get(&req) else {
            return; // never saw the request; nothing to attest
        };
        if self.group_key.verify(message, &signature).is_err() {
            return; // forged or garbled result
        }
        self.record_result(req, signature);
        self.coordinating.remove(&req);
        sink.cancel_timer(req);
        sink.output(TssOutput::Signed { req, signature });
        self.cleanup(req);
    }
}

/// `(g^d, g^e)` through the generator's table, one inversion for the pair.
fn nonce_commitments(d: &Scalar, e: &Scalar) -> [GroupElement; 2] {
    let pair = generator_table().mul_batch(&[*d, *e]);
    [pair[0], pair[1]]
}

type Sink = ActionSink<TssMessage, TssOutput>;

impl Protocol for SignSession {
    type Message = TssMessage;
    type Operator = TssInput;
    type Output = TssOutput;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_operator(&mut self, input: TssInput, sink: &mut Sink) {
        match input {
            TssInput::Sign { req, message } => self.start_request(req, message, sink),
            TssInput::Recover => self.resend_current_round(sink),
        }
    }

    fn on_message(&mut self, from: NodeId, message: TssMessage, sink: &mut Sink) {
        if message.sid() != self.sid {
            return;
        }
        match message {
            TssMessage::SignRequest {
                req,
                attempt,
                message,
                package,
                ..
            } => self.on_sign_request(from, req, attempt, message, package, sink),
            TssMessage::NonceCommit {
                req,
                attempt,
                signer,
                hiding,
                binding,
                ..
            } => self.on_nonce_commit(from, req, attempt, signer, (hiding, binding), sink),
            TssMessage::PartialSig {
                req,
                attempt,
                signer,
                response,
                ..
            } => self.on_partial_sig(from, req, attempt, signer, response, sink),
            TssMessage::SignResult { req, signature, .. } => {
                self.on_sign_result(req, signature, sink)
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, sink: &mut Sink) {
        let req = timer;
        let Some(state) = self.coordinating.get(&req) else {
            return;
        };
        let responded: BTreeSet<NodeId> = if state.package().is_some() {
            state.partials.keys().copied().collect()
        } else {
            state.commits.keys().copied().collect()
        };
        let missing: Vec<NodeId> = state
            .quorum
            .iter()
            .copied()
            .filter(|signer| !responded.contains(signer))
            .collect();
        if missing.is_empty() {
            // Everyone answered and the aggregate did not verify (a valid
            // one finishes the request on the spot): the blame job is
            // still in flight. Keep the clock running and wait for it.
            sink.set_timer(req, self.config.retry_delay);
            return;
        }
        self.retry(req, missing, sink);
    }

    fn on_recover(&mut self, sink: &mut Sink) {
        self.resend_current_round(sink);
    }
}
