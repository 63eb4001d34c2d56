//! Schedulable crypto work: [`CryptoJob`] and [`CryptoVerdict`].
//!
//! Every expensive check the protocol state machines perform — dealing
//! (`verify-poly`) verification, `verify-point` batches, reconstruction
//! share batches, sub-share vector checks and signature-set checks — can be
//! captured as a self-contained [`CryptoJob`]: an owned, `Send` description
//! of pure computation with **no access to protocol state**. Running a job
//! ([`CryptoJob::run`]) is deterministic, so the same job always yields the
//! same [`CryptoVerdict`] whether it executes inline on the protocol thread,
//! on a worker pool, or on another machine entirely.
//!
//! This is the seam that lets the state machines in `dkg-vss` / `dkg-core`
//! stay cheap and non-blocking: message handlers *prepare* jobs (cheap
//! bookkeeping plus an owned snapshot of the inputs), an executor *runs*
//! them wherever it likes, and the handlers later *apply* the verdict. The
//! per-claim attribution loop that used to be duplicated at every call site
//! (batch-verify first, fall back to per-claim checks only when the fold
//! rejects) lives here once, inside [`CryptoJob::run`].
//!
//! An echo/ready point batch ([`CryptoJob::point_batch`]) is the
//! **fallback** for points a node cannot judge in the field: `dkg-vss`
//! compares a point with its own verified row (`a(m) == α`, no job at all)
//! whenever it holds that row under a symmetric matrix, and prepares a
//! point batch only before the row exists or under an asymmetric matrix. It
//! carries the `(sender, α)` claims of one session against the verifier's
//! **row projection** of that session's commitment matrix
//! ([`CommitmentMatrix::project`]) — `t + 1` points per check instead of
//! the `(t+1)²` of Fig. 1's `verify-point`, the projection itself being
//! derived once per matrix by the state machine and shared by every job
//! prepared against it. Point batches of different sessions are *not*
//! merged: a cross-session fold would replace every small exponent by a
//! full-width RLC weight and cost more than running the jobs one by one.
//!
//! A partial-signature batch ([`CryptoJob::partial_sig_batch`]) is not
//! folded at all: `dkg-tss` checks the aggregate signature first and
//! prepares this job only when that check failed, so a fold over the same
//! claims is known to reject before it starts — the job exists to name the
//! culprits and judges each claim on its own.

use std::sync::Arc;

use dkg_arith::Scalar;
use dkg_crypto::{KeyDirectory, NodeId, Signature};

use crate::batch::PartialSigClaim;
use crate::commitment::{CommitmentMatrix, CommitmentVector};
use crate::univariate::Univariate;

/// One signature check: did `signer` sign `payload` with the key the
/// directory holds for it? The payload is shared so a certificate of `n`
/// votes over one payload costs one allocation, not `n` copies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureCheck {
    /// The claimed signer.
    pub signer: NodeId,
    /// The signed byte string.
    pub payload: Arc<[u8]>,
    /// The signature to verify.
    pub signature: Signature,
}

/// A self-contained unit of expensive verification work. Owns every input
/// it needs (commitments, claims, keys), so it can be executed on any
/// thread. Claims are ordered; [`CryptoVerdict::valid`] reports one bit per
/// claim in the same order.
#[derive(Clone, Debug)]
pub enum CryptoJob {
    /// `verify-poly(C, i, a)` — one claim: the dealing's row polynomial is
    /// consistent with the commitment matrix. Matrices are shared
    /// (`Arc`), so preparing a job costs a refcount bump, not an O(t²)
    /// group-element copy per message.
    VerifyPoly {
        /// The dealer's commitment matrix.
        matrix: Arc<CommitmentMatrix>,
        /// The receiving node's index `i`.
        index: u64,
        /// The claimed row polynomial `a_i(y)`.
        row: Univariate,
    },
    /// A batch of `verify-point` claims received by one verifier `P_i`
    /// under one commitment matrix while it had no verified row of its own
    /// to compare them with, judged against the matrix's row
    /// projection for `i`: each `(m, α)` must satisfy
    /// `g^α = Π_j R_j^{m^j}`, which is `verify-point(C, i, m, α)` regrouped.
    /// Verified with one RLC-folded multi-exponentiation; per-claim
    /// attribution only on failure.
    PointBatch {
        /// `C.project(i)`, shared by every job prepared against `C`.
        projection: Arc<CommitmentVector>,
        /// The `(sender index m, claimed f(m, i))` claims.
        claims: Vec<(u64, Scalar)>,
    },
    /// A batch of reconstruction shares: each `(m, s_m)` must satisfy
    /// `g^{s_m} = Π_j (C_{j0})^{m^j}`.
    ShareBatch {
        /// The commitment matrix whose first column judges the shares.
        matrix: Arc<CommitmentMatrix>,
        /// The `(node index, share)` claims.
        shares: Vec<(u64, Scalar)>,
    },
    /// A batch of univariate-commitment share checks (node-addition
    /// sub-shares): each `(i, s_i)` must satisfy `g^{s_i} = Π_ℓ V_ℓ^{i^ℓ}`.
    VectorShareBatch {
        /// The commitment vector.
        vector: CommitmentVector,
        /// The `(node index, share)` claims.
        shares: Vec<(u64, Scalar)>,
    },
    /// The partial signatures of one threshold-Schnorr request whose
    /// aggregate did not verify, to find out whose fault that is. Each
    /// claim must satisfy `g^{s_i} = R_i · A_i^{cλ_i}` with `A_i` read off
    /// the matrix's first column, and is judged on its own
    /// ([`PartialSigClaim::verify`]): at least one of them fails.
    PartialSigBatch {
        /// The DKG's combined commitment matrix.
        matrix: Arc<CommitmentMatrix>,
        /// One claim per quorum member.
        claims: Vec<PartialSigClaim>,
    },
    /// A batch of Schnorr signature checks against a key directory
    /// (justification certificates, vote signatures, ready witnesses).
    /// The directory is shared — preparing a job costs a refcount bump,
    /// not an O(n) map clone per message.
    Signatures {
        /// The public-key directory to verify against.
        directory: Arc<KeyDirectory>,
        /// The checks, one claim each.
        checks: Vec<SignatureCheck>,
    },
}

/// The result of running a [`CryptoJob`]: one validity bit per claim, in
/// the job's claim order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CryptoVerdict {
    /// Per-claim validity, in claim order.
    pub valid: Vec<bool>,
}

impl CryptoVerdict {
    /// A verdict accepting `n` claims.
    pub fn accept_all(n: usize) -> Self {
        CryptoVerdict {
            valid: vec![true; n],
        }
    }

    /// Whether every claim verified.
    pub fn all_valid(&self) -> bool {
        self.valid.iter().all(|&v| v)
    }

    /// Number of claims judged.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// Whether the verdict covers no claims.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }
}

impl CryptoJob {
    /// A point batch against the verifier's projection of one commitment
    /// matrix ([`CommitmentMatrix::project`]).
    pub fn point_batch(
        projection: impl Into<Arc<CommitmentVector>>,
        claims: Vec<(u64, Scalar)>,
    ) -> Self {
        CryptoJob::PointBatch {
            projection: projection.into(),
            claims,
        }
    }

    /// A partial-signature batch against a DKG's commitment matrix.
    pub fn partial_sig_batch(
        matrix: impl Into<Arc<CommitmentMatrix>>,
        claims: Vec<PartialSigClaim>,
    ) -> Self {
        CryptoJob::PartialSigBatch {
            matrix: matrix.into(),
            claims,
        }
    }

    /// Number of claims this job will judge (the length of the verdict's
    /// `valid` vector).
    pub fn claim_count(&self) -> usize {
        match self {
            CryptoJob::VerifyPoly { .. } => 1,
            CryptoJob::PointBatch { claims, .. } => claims.len(),
            CryptoJob::ShareBatch { shares, .. } => shares.len(),
            CryptoJob::VectorShareBatch { shares, .. } => shares.len(),
            CryptoJob::PartialSigBatch { claims, .. } => claims.len(),
            CryptoJob::Signatures { checks, .. } => checks.len(),
        }
    }

    /// A short label for accounting and progress display.
    pub fn kind(&self) -> &'static str {
        match self {
            CryptoJob::VerifyPoly { .. } => "verify-poly",
            CryptoJob::PointBatch { .. } => "point-batch",
            CryptoJob::ShareBatch { .. } => "share-batch",
            CryptoJob::VectorShareBatch { .. } => "vector-share-batch",
            CryptoJob::PartialSigBatch { .. } => "partial-sig-batch",
            CryptoJob::Signatures { .. } => "signatures",
        }
    }

    /// Executes the job. Pure and deterministic: no protocol state, no
    /// randomness (batch coefficients are Fiat–Shamir-derived from the
    /// claims), so every executor produces the identical verdict.
    ///
    /// The point and share batches verify the RLC fold first; only when the
    /// fold rejects (some claim is bad) do they fall back to per-claim
    /// verification to attribute blame — the expected cost stays on the
    /// fast path because failures only occur under active misbehaviour.
    pub fn run(&self) -> CryptoVerdict {
        match self {
            CryptoJob::VerifyPoly { matrix, index, row } => CryptoVerdict {
                valid: vec![matrix.verify_poly(*index, row)],
            },
            CryptoJob::PointBatch { projection, claims } => vector_verdict(
                crate::batch::verify_points_batch(projection, claims),
                projection,
                claims,
            ),
            CryptoJob::ShareBatch { matrix, shares } => {
                if crate::batch::verify_shares_batch(matrix, shares) {
                    return CryptoVerdict::accept_all(shares.len());
                }
                CryptoVerdict {
                    valid: shares
                        .iter()
                        .map(|&(m, s)| {
                            matrix.share_commitment(m) == dkg_arith::GroupElement::commit(&s)
                        })
                        .collect(),
                }
            }
            CryptoJob::VectorShareBatch { vector, shares } => vector_verdict(
                crate::batch::verify_vector_shares_batch(vector, shares),
                vector,
                shares,
            ),
            CryptoJob::PartialSigBatch { matrix, claims } => CryptoVerdict {
                valid: claims.iter().map(|c| c.verify(matrix)).collect(),
            },
            CryptoJob::Signatures { directory, checks } => CryptoVerdict {
                valid: checks
                    .iter()
                    .map(|c| directory.verify(c.signer, &c.payload, &c.signature).is_ok())
                    .collect(),
            },
        }
    }
}

/// The verdict of a share batch against a commitment vector: every claim
/// accepted when the fold held, per-claim attribution otherwise.
fn vector_verdict(
    fold_held: bool,
    vector: &CommitmentVector,
    shares: &[(u64, Scalar)],
) -> CryptoVerdict {
    if fold_held {
        return CryptoVerdict::accept_all(shares.len());
    }
    CryptoVerdict {
        valid: shares
            .iter()
            .map(|&(i, s)| vector.verify_share(i, s))
            .collect(),
    }
}

/// The queue discipline shared by every state machine on the pipeline:
/// inline-or-deferred submission, monotonically increasing job ids, and the
/// prepare-stage context held until the verdict returns.
///
/// `Ctx` is whatever the owner's apply stage needs (the owner keeps the
/// apply logic; the queue keeps the bookkeeping), so `VssNode`, `DkgNode`
/// and future protocol machines share one implementation instead of three
/// copies of the same plumbing. [`JobQueue::complete`] validates the
/// verdict's claim count against the job it answers — a wrong-length
/// verdict (a buggy or hostile embedding) is dropped, never a panic.
#[derive(Debug, Default)]
pub struct JobQueue<Ctx> {
    deferred: bool,
    next: u64,
    queued: std::collections::VecDeque<(u64, CryptoJob)>,
    in_flight: std::collections::BTreeMap<u64, (usize, Ctx)>,
}

/// What [`JobQueue::submit`] did with a job.
pub enum Submission<Ctx> {
    /// Deferred mode: the job is queued for [`JobQueue::poll`]; the verdict
    /// arrives later through [`JobQueue::complete`].
    Queued(u64),
    /// Inline mode: the job already ran — apply this verdict now.
    Ready(Ctx, CryptoVerdict),
}

impl<Ctx> JobQueue<Ctx> {
    /// An inline-mode queue.
    pub fn new() -> Self {
        JobQueue {
            deferred: false,
            next: 0,
            queued: std::collections::VecDeque::new(),
            in_flight: std::collections::BTreeMap::new(),
        }
    }

    /// Switches between inline (default) and deferred submission.
    pub fn set_deferred(&mut self, deferred: bool) {
        self.deferred = deferred;
    }

    /// Jobs submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Jobs queued and not yet polled.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// Whether the queue holds no work at all — nothing queued and nothing
    /// in flight. Snapshot extraction requires an idle queue: a pending
    /// job's context cannot be serialised, so persistence layers snapshot
    /// only at job-quiescent points and re-create in-flight work by
    /// replaying the inputs that prepared it.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.in_flight.is_empty()
    }

    /// Runs `job` now (inline mode) or queues it (deferred mode).
    pub fn submit(&mut self, job: CryptoJob, ctx: Ctx) -> Submission<Ctx> {
        if self.deferred {
            Submission::Queued(self.enqueue(job, ctx))
        } else {
            let verdict = job.run();
            Submission::Ready(ctx, verdict)
        }
    }

    /// Queues a job unconditionally, regardless of mode — for surfacing a
    /// sub-machine's already-deferred jobs through an outer queue.
    pub fn enqueue(&mut self, job: CryptoJob, ctx: Ctx) -> u64 {
        let id = self.next;
        self.next += 1;
        self.in_flight.insert(id, (job.claim_count(), ctx));
        self.queued.push_back((id, job));
        id
    }

    /// Takes the next queued job, if any.
    pub fn poll(&mut self) -> Option<(u64, CryptoJob)> {
        self.queued.pop_front()
    }

    /// Accepts a verdict for a previously polled job, returning its
    /// context. `None` for unknown (or double-completed) ids and for
    /// verdicts whose claim count does not match the job's. A mismatched
    /// verdict *discards* the job — the embedding violated the contract,
    /// and the message the job answered is treated as lost (which these
    /// asynchronous protocols tolerate) rather than left to strand
    /// routing state in layers above.
    pub fn complete(&mut self, id: u64, verdict: &CryptoVerdict) -> Option<Ctx> {
        let (expected, ctx) = self.in_flight.remove(&id)?;
        if verdict.len() != expected {
            return None;
        }
        Some(ctx)
    }
}

/// The pool-then-batch share collection discipline shared by HybridVSS
/// `Rec` and the DKG's group-secret reconstruction: incoming shares pool
/// unverified; once verified-plus-pooled shares could form a quorum the
/// pool is handed out as one batch (a single folded multiexp via
/// [`CryptoJob::ShareBatch`]); verdicts promote the valid shares; and
/// shares that arrived while a batch was in flight immediately form the
/// next batch, so an invalid share can delay but never stall a quorum.
#[derive(Clone, Debug, Default)]
pub struct ShareCollector {
    pending: ShareMap,
    verified: ShareMap,
}

/// Shares by node index, as pooled, verified and snapshotted by a
/// [`ShareCollector`].
pub type ShareMap = std::collections::BTreeMap<u64, Scalar>;

/// What a share-batch verdict led to (see [`ShareCollector::absorb`]).
pub enum ShareProgress {
    /// A quorum of verified shares, in index order — interpolate these.
    Quorum(Vec<(u64, Scalar)>),
    /// No quorum yet, but pooled shares allow another batch: verify these.
    Submit(Vec<(u64, Scalar)>),
    /// Keep waiting for more shares.
    Pending,
}

impl ShareCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a share from `from` has already been verified (first-time
    /// guard; pooled-but-unverified shares may be overwritten).
    pub fn seen(&self, from: u64) -> bool {
        self.verified.contains_key(&from)
    }

    /// Pools a share. Returns the entries of the next batch to verify when
    /// verified-plus-pooled shares could reach `needed`.
    pub fn pool(&mut self, from: u64, share: Scalar, needed: usize) -> Option<Vec<(u64, Scalar)>> {
        self.pending.insert(from, share);
        self.take_batch(needed)
    }

    /// Applies a batch verdict (`entries` aligned with `valid`) and
    /// reports the resulting progress.
    pub fn absorb(
        &mut self,
        entries: Vec<(u64, Scalar)>,
        valid: &[bool],
        needed: usize,
    ) -> ShareProgress {
        self.verified.extend(
            entries
                .into_iter()
                .zip(valid)
                .filter(|(_, &ok)| ok)
                .map(|(entry, _)| entry),
        );
        if self.verified.len() >= needed {
            return ShareProgress::Quorum(
                self.verified
                    .iter()
                    .take(needed)
                    .map(|(&m, &s)| (m, s))
                    .collect(),
            );
        }
        match self.take_batch(needed) {
            Some(entries) => ShareProgress::Submit(entries),
            None => ShareProgress::Pending,
        }
    }

    /// The collector's `(pending, verified)` shares — the snapshot form for
    /// persistence.
    pub fn to_parts(&self) -> (ShareMap, ShareMap) {
        (self.pending.clone(), self.verified.clone())
    }

    /// Rebuilds a collector from [`ShareCollector::to_parts`] output.
    pub fn from_parts(pending: ShareMap, verified: ShareMap) -> Self {
        ShareCollector { pending, verified }
    }

    fn take_batch(&mut self, needed: usize) -> Option<Vec<(u64, Scalar)>> {
        if self.pending.is_empty() || self.verified.len() + self.pending.len() < needed {
            return None;
        }
        Some(std::mem::take(&mut self.pending).into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bivariate::SymmetricBivariate;
    use dkg_arith::PrimeField;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, seed: u64) -> (SymmetricBivariate, CommitmentMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let commitment = CommitmentMatrix::commit(&poly);
        (poly, commitment)
    }

    /// The `(m, f(m, i))` claims verifier `i` receives from senders `1..=senders`.
    fn claims(poly: &SymmetricBivariate, verifier: u64, senders: u64) -> Vec<(u64, Scalar)> {
        (1..=senders)
            .map(|m| {
                let value = poly.evaluate(Scalar::from_u64(m), Scalar::from_u64(verifier));
                (m, value)
            })
            .collect()
    }

    #[test]
    fn verify_poly_job_matches_direct_check() {
        let (poly, commitment) = setup(3, 1);
        let good = CryptoJob::VerifyPoly {
            matrix: Arc::new(commitment.clone()),
            index: 2,
            row: poly.row(2),
        };
        assert_eq!(good.claim_count(), 1);
        assert!(good.run().all_valid());
        let bad = CryptoJob::VerifyPoly {
            matrix: Arc::new(commitment),
            index: 2,
            row: poly.row(3),
        };
        assert!(!bad.run().all_valid());
    }

    #[test]
    fn point_batch_attributes_blame_per_claim() {
        let (poly, commitment) = setup(2, 2);
        let mut cs = claims(&poly, 3, 5);
        cs[1].1 += Scalar::one();
        cs[4].1 += Scalar::from_u64(9);
        let oracle: Vec<bool> = cs
            .iter()
            .map(|&(m, alpha)| commitment.verify_point(3, m, alpha))
            .collect();
        let job = CryptoJob::point_batch(commitment.project(3), cs);
        assert_eq!(job.kind(), "point-batch");
        assert_eq!(job.run().valid, oracle);
        assert_eq!(oracle, vec![true, false, true, true, false]);
    }

    #[test]
    fn share_batch_flags_bad_shares() {
        let (poly, commitment) = setup(3, 6);
        let mut shares: Vec<(u64, Scalar)> = (1..=5u64)
            .map(|m| (m, poly.row(m).constant_term()))
            .collect();
        let job = CryptoJob::ShareBatch {
            matrix: Arc::new(commitment.clone()),
            shares: shares.clone(),
        };
        assert!(job.run().all_valid());
        shares[2].1 += Scalar::one();
        let verdict = CryptoJob::ShareBatch {
            matrix: Arc::new(commitment),
            shares,
        }
        .run();
        assert_eq!(verdict.valid, vec![true, true, false, true, true]);
    }

    #[test]
    fn vector_share_batch_flags_bad_shares() {
        let mut rng = StdRng::seed_from_u64(7);
        let poly = Univariate::random(&mut rng, 3);
        let vector = CommitmentVector::commit(&poly);
        let mut shares: Vec<(u64, Scalar)> =
            (1..=4u64).map(|i| (i, poly.evaluate_at_index(i))).collect();
        shares[3].1 += Scalar::one();
        let verdict = CryptoJob::VectorShareBatch { vector, shares }.run();
        assert_eq!(verdict.valid, vec![true, true, true, false]);
    }

    fn partial_sigs(poly: &SymmetricBivariate, signers: &[u64], seed: u64) -> Vec<PartialSigClaim> {
        let mut rng = StdRng::seed_from_u64(seed);
        signers
            .iter()
            .map(|&i| {
                let share = poly.row(i).constant_term();
                let nonce = Scalar::random(&mut rng);
                let scaled = Scalar::random(&mut rng);
                PartialSigClaim::new(
                    i,
                    scaled,
                    dkg_arith::GroupElement::commit(&nonce),
                    nonce + scaled * share,
                )
            })
            .collect()
    }

    #[test]
    fn partial_sig_batch_attributes_blame_per_claim() {
        let (poly, commitment) = setup(2, 12);
        let mut cs = partial_sigs(&poly, &[1, 2, 4, 6], 30);
        cs[2].response += Scalar::one();
        let job = CryptoJob::partial_sig_batch(commitment, cs.clone());
        assert_eq!(job.claim_count(), 4);
        assert_eq!(job.run().valid, vec![true, true, false, true]);
        cs[2].response -= Scalar::one();
        let honest = CryptoJob::partial_sig_batch(setup(2, 12).1, cs);
        assert!(honest.run().all_valid());
    }

    #[test]
    fn signature_job_judges_each_check() {
        let mut rng = StdRng::seed_from_u64(8);
        let (keys, directory) = dkg_crypto::generate_keyring(&mut rng, 3);
        let good = SignatureCheck {
            signer: 1,
            payload: Arc::from(&b"hello"[..]),
            signature: keys[&1].sign(&mut rng, b"hello"),
        };
        let wrong_payload = SignatureCheck {
            payload: Arc::from(&b"other"[..]),
            ..good.clone()
        };
        let wrong_signer = SignatureCheck {
            signer: 2,
            ..good.clone()
        };
        let verdict = CryptoJob::Signatures {
            directory: Arc::new(directory),
            checks: vec![good, wrong_payload, wrong_signer],
        }
        .run();
        assert_eq!(verdict.valid, vec![true, false, false]);
    }

    #[test]
    fn job_queue_inline_runs_immediately_and_deferred_queues() {
        let (poly, commitment) = setup(2, 10);
        let job = || CryptoJob::point_batch(commitment.project(2), claims(&poly, 2, 3));
        let mut queue: JobQueue<&'static str> = JobQueue::new();
        match queue.submit(job(), "ctx") {
            Submission::Ready(ctx, verdict) => {
                assert_eq!(ctx, "ctx");
                assert!(verdict.all_valid());
            }
            Submission::Queued(_) => panic!("inline mode must run immediately"),
        }
        queue.set_deferred(true);
        let Submission::Queued(id) = queue.submit(job(), "deferred") else {
            panic!("deferred mode must queue");
        };
        assert_eq!(queue.in_flight(), 1);
        let (polled, polled_job) = queue.poll().expect("queued job");
        assert_eq!(polled, id);
        let verdict = polled_job.run();
        assert_eq!(queue.complete(id, &verdict), Some("deferred"));
        assert_eq!(queue.in_flight(), 0);
        // Double completion and unknown ids are ignored.
        assert_eq!(queue.complete(id, &verdict), None);
    }

    #[test]
    fn job_queue_rejects_wrong_length_verdicts() {
        let (poly, commitment) = setup(2, 11);
        let mut queue: JobQueue<u8> = JobQueue::new();
        queue.set_deferred(true);
        let Submission::Queued(id) = queue.submit(
            CryptoJob::point_batch(commitment.project(1), claims(&poly, 1, 4)),
            7,
        ) else {
            panic!("deferred mode must queue");
        };
        let _ = queue.poll();
        // A verdict with the wrong claim count is dropped along with the
        // job: nothing is applied and no in-flight state is stranded (the
        // answered message counts as lost).
        assert_eq!(queue.complete(id, &CryptoVerdict::accept_all(2)), None);
        assert_eq!(queue.in_flight(), 0);
        assert_eq!(queue.complete(id, &CryptoVerdict::accept_all(4)), None);
    }

    #[test]
    fn running_a_job_twice_is_deterministic() {
        let (poly, commitment) = setup(2, 9);
        let job = CryptoJob::point_batch(commitment.project(2), claims(&poly, 2, 6));
        assert_eq!(job.run(), job.run());
    }
}
