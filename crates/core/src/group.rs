//! Group modification protocols (§6): agreement on membership changes, node
//! addition, node removal and threshold / crash-limit modification.
//!
//! * **Agreement** (§6.1): membership proposals are disseminated with a
//!   Bracha-style reliable broadcast ([`GroupModNode`]); a proposal enters a
//!   node's modification queue once `n − t − f` ready messages arrive.
//!   Add/remove operations are commutative, so the queue needs no ordering;
//!   threshold and crash-limit changes ride along with the add/remove
//!   proposal that motivates them.
//! * **Node addition** (§6.2): nodes reshare their current shares (a
//!   [`crate::DkgNode`] run in reshare mode), then each node derives a
//!   sub-share for the new node by Lagrange-interpolating its per-dealer
//!   shares at the new node's index ([`subshare_for_new_node`]); the new node
//!   combines `t + 1` consistent sub-shares into its own share
//!   ([`combine_subshares`]).
//! * **Node removal** (§6.3) and **threshold / crash-limit modification**
//!   (§6.4) take effect at a phase change by [`apply_group_changes`]: the
//!   removed node is simply excluded from the next renewal and the
//!   parameters are re-validated against `n ≥ 3t + 2f + 1`.

use std::collections::{BTreeMap, BTreeSet};

use dkg_arith::{PrimeField, Scalar};
use dkg_crypto::NodeId;
use dkg_poly::{CommitmentMatrix, CommitmentVector, CryptoJob, CryptoVerdict};
use dkg_sim::{ActionSink, MessageKind, Protocol};

use crate::config::DkgConfig;
use crate::messages::CombineRule;

// ---------------------------------------------------------------------
// Proposals and their effect on the configuration
// ---------------------------------------------------------------------

/// How a membership change affects the resilience parameters (§6.4: the
/// proposer must state whether the size change adjusts `t` or `f`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParameterAdjustment {
    /// Adjust the Byzantine threshold `t`.
    Threshold,
    /// Adjust the crash limit `f`.
    CrashLimit,
    /// Leave both parameters unchanged.
    None,
}

/// A group modification proposal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupChange {
    /// Add a node with the given index.
    AddNode {
        /// The new node's index.
        node: NodeId,
        /// Which parameter absorbs the larger group.
        adjustment: ParameterAdjustment,
    },
    /// Remove a node.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
        /// Which parameter absorbs the smaller group.
        adjustment: ParameterAdjustment,
    },
}

/// Errors applying group changes to a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupChangeError {
    /// Adding a node that is already a member.
    AlreadyMember(NodeId),
    /// Removing a node that is not a member.
    NotAMember(NodeId),
    /// The resulting parameters violate `n ≥ 3t + 2f + 1`.
    ResilienceViolated,
}

impl std::fmt::Display for GroupChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupChangeError::AlreadyMember(id) => write!(f, "node {id} is already a member"),
            GroupChangeError::NotAMember(id) => write!(f, "node {id} is not a member"),
            GroupChangeError::ResilienceViolated => {
                write!(f, "change would violate n >= 3t + 2f + 1")
            }
        }
    }
}

impl std::error::Error for GroupChangeError {}

/// Applies a batch of agreed group changes at a phase boundary, producing the
/// configuration for the next phase. Changes are applied in the given order;
/// an honest node refuses any change that would break the resilience bound.
pub fn apply_group_changes(
    config: &DkgConfig,
    changes: &[GroupChange],
) -> Result<DkgConfig, GroupChangeError> {
    let mut nodes = config.vss.nodes.clone();
    let mut t = config.t() as i64;
    let mut f = config.f() as i64;
    for change in changes {
        match *change {
            GroupChange::AddNode { node, adjustment } => {
                if nodes.contains(&node) {
                    return Err(GroupChangeError::AlreadyMember(node));
                }
                nodes.push(node);
                match adjustment {
                    // One extra node buys one unit of t only every 3 nodes in
                    // general; we let the proposer request the increment and
                    // re-validate against the bound below.
                    ParameterAdjustment::Threshold => t += 1,
                    ParameterAdjustment::CrashLimit => f += 1,
                    ParameterAdjustment::None => {}
                }
            }
            GroupChange::RemoveNode { node, adjustment } => {
                if !nodes.contains(&node) {
                    return Err(GroupChangeError::NotAMember(node));
                }
                nodes.retain(|&n| n != node);
                match adjustment {
                    ParameterAdjustment::Threshold => t -= 1,
                    ParameterAdjustment::CrashLimit => f -= 1,
                    ParameterAdjustment::None => {}
                }
            }
        }
    }
    if t < 0 || f < 0 {
        return Err(GroupChangeError::ResilienceViolated);
    }
    nodes.sort_unstable();
    DkgConfig::new(
        nodes,
        t as usize,
        f as usize,
        config.vss.d_max,
        config.vss.mode,
        config.leader_timeout,
    )
    .map_err(|_| GroupChangeError::ResilienceViolated)
}

// ---------------------------------------------------------------------
// Group modification agreement (reliable broadcast)
// ---------------------------------------------------------------------

/// Messages of the group-modification agreement protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupModMessage {
    /// A node proposes a change.
    Propose(GroupChange),
    /// Reliable-broadcast echo.
    Echo(GroupChange),
    /// Reliable-broadcast ready.
    Ready(GroupChange),
}

impl MessageKind for GroupModMessage {
    fn kind(&self) -> &'static str {
        match self {
            GroupModMessage::Propose(_) => "groupmod-propose",
            GroupModMessage::Echo(_) => "groupmod-echo",
            GroupModMessage::Ready(_) => "groupmod-ready",
        }
    }
}

/// Operator inputs for the agreement protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupModInput {
    /// Propose a change to the group.
    Propose(GroupChange),
}

/// Operator outputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupModOutput {
    /// The change was accepted into this node's modification queue and will
    /// be applied at the next phase change.
    Accepted(GroupChange),
}

/// The group-modification agreement state machine (§6.1): a reliable
/// broadcast per proposal, with acceptance at `n − t − f` ready messages.
///
/// The machine is deterministic and message-driven — no RNG, no timers, no
/// crypto jobs — so it has no transient state and is its own crash-recovery
/// snapshot: it carries a `dkg-wire` codec (`crate::wire`), and persisting
/// it is encoding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupModNode {
    pub(crate) id: NodeId,
    pub(crate) config: DkgConfig,
    /// Proposals this node has echoed.
    pub(crate) echoed: BTreeSet<GroupChangeKey>,
    /// Proposals this node has sent `ready` for.
    pub(crate) ready_sent: BTreeSet<GroupChangeKey>,
    /// Echo senders per proposal.
    pub(crate) echo_from: BTreeMap<GroupChangeKey, BTreeSet<NodeId>>,
    /// Ready senders per proposal.
    pub(crate) ready_from: BTreeMap<GroupChangeKey, BTreeSet<NodeId>>,
    /// The modification queue (accepted changes, in acceptance order).
    pub(crate) accepted: Vec<GroupChange>,
}

/// Canonical key for a proposal (used for counting): `(kind, node,
/// adjustment)` as the same small integers the wire codec uses.
pub type GroupChangeKey = (u8, NodeId, u8);

fn change_key(change: &GroupChange) -> GroupChangeKey {
    match *change {
        GroupChange::AddNode { node, adjustment } => (0, node, adjustment_key(adjustment)),
        GroupChange::RemoveNode { node, adjustment } => (1, node, adjustment_key(adjustment)),
    }
}

fn adjustment_key(a: ParameterAdjustment) -> u8 {
    match a {
        ParameterAdjustment::Threshold => 0,
        ParameterAdjustment::CrashLimit => 1,
        ParameterAdjustment::None => 2,
    }
}

impl GroupModNode {
    /// Creates the agreement state machine for one node.
    pub fn new(id: NodeId, config: DkgConfig) -> Self {
        GroupModNode {
            id,
            config,
            echoed: BTreeSet::new(),
            ready_sent: BTreeSet::new(),
            echo_from: BTreeMap::new(),
            ready_from: BTreeMap::new(),
            accepted: Vec::new(),
        }
    }

    /// The changes accepted so far (this node's modification queue).
    pub fn accepted(&self) -> &[GroupChange] {
        &self.accepted
    }

    /// The configuration the agreement validates proposals against.
    pub fn config(&self) -> &DkgConfig {
        &self.config
    }

    fn validate(&self, change: &GroupChange) -> bool {
        // An honest node only echoes proposals that keep the system valid
        // when applied alone (§6.3: do not remove below the bound).
        apply_group_changes(&self.config, &[*change]).is_ok()
    }

    fn broadcast(
        &self,
        message: GroupModMessage,
        sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
        for &node in &self.config.vss.nodes {
            sink.send(node, message);
        }
    }

    fn maybe_echo(
        &mut self,
        change: GroupChange,
        sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
        let key = change_key(&change);
        if self.echoed.contains(&key) || !self.validate(&change) {
            return;
        }
        self.echoed.insert(key);
        self.broadcast(GroupModMessage::Echo(change), sink);
    }

    fn maybe_ready(
        &mut self,
        change: GroupChange,
        sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
        let key = change_key(&change);
        if self.ready_sent.contains(&key) {
            return;
        }
        self.ready_sent.insert(key);
        self.broadcast(GroupModMessage::Ready(change), sink);
    }
}

impl Protocol for GroupModNode {
    type Message = GroupModMessage;
    type Operator = GroupModInput;
    type Output = GroupModOutput;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_operator(
        &mut self,
        input: GroupModInput,
        sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
        let GroupModInput::Propose(change) = input;
        if self.validate(&change) {
            self.broadcast(GroupModMessage::Propose(change), sink);
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: GroupModMessage,
        sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
        match message {
            GroupModMessage::Propose(change) => self.maybe_echo(change, sink),
            GroupModMessage::Echo(change) => {
                let key = change_key(&change);
                self.echo_from.entry(key).or_default().insert(from);
                let echoes = self.echo_from[&key].len();
                if echoes == self.config.echo_threshold() {
                    self.maybe_ready(change, sink);
                }
            }
            GroupModMessage::Ready(change) => {
                let key = change_key(&change);
                self.ready_from.entry(key).or_default().insert(from);
                let readies = self.ready_from[&key].len();
                if readies == self.config.ready_amplify_threshold() {
                    self.maybe_ready(change, sink);
                }
                if readies == self.config.completion_threshold()
                    && !self.accepted.iter().any(|c| change_key(c) == key)
                {
                    self.accepted.push(change);
                    sink.output(GroupModOutput::Accepted(change));
                }
            }
        }
    }

    fn on_timer(
        &mut self,
        _timer: dkg_sim::TimerId,
        _sink: &mut ActionSink<GroupModMessage, GroupModOutput>,
    ) {
    }
}

// ---------------------------------------------------------------------
// Node addition (§6.2)
// ---------------------------------------------------------------------

/// One existing node's contribution to a joining node: the sub-share
/// `s_{i,new}` together with the commitment vector `V` that lets the new
/// node verify it.
#[derive(Clone, Debug, PartialEq)]
pub struct Subshare {
    /// The contributing node `P_i`.
    pub from: NodeId,
    /// `s_{i,new} = Σ_{P_d ∈ Q} λ_d(new) · s_{i,d}`.
    pub value: Scalar,
    /// The commitment vector to the induced degree-`t` polynomial `h(x)`
    /// with `h(0) = s_new`.
    pub commitment: CommitmentVector,
}

/// Computes node `P_i`'s sub-share for a joining node from the agreed
/// resharing results `(dealer, commitment, s_{i,dealer})` of set `Q`.
///
/// Returns `None` if fewer than `t + 1` resharings are provided.
pub fn subshare_for_new_node(
    contributor: NodeId,
    new_node: NodeId,
    resharings: &[(NodeId, &CommitmentMatrix, Scalar)],
    t: usize,
) -> Option<Subshare> {
    if resharings.len() < t + 1 {
        return None;
    }
    let dealers: Vec<NodeId> = resharings.iter().map(|(d, _, _)| *d).collect();
    let target = Scalar::from_u64(new_node);
    let mut value = Scalar::zero();
    let mut weighted: Vec<(&CommitmentVector, Scalar)> = Vec::new();
    let mut vectors: Vec<CommitmentVector> = Vec::with_capacity(resharings.len());
    for (dealer, commitment, _) in resharings {
        vectors.push(commitment.share_polynomial_commitment());
        let _ = dealer;
    }
    for ((dealer, _, share), vector) in resharings.iter().zip(&vectors) {
        let lambda = Scalar::lagrange_coefficient(&dealers, *dealer, target)?;
        value += *share * lambda;
        weighted.push((vector, lambda));
    }
    let commitment = CommitmentVector::combine_weighted(&weighted).ok()?;
    Some(Subshare {
        from: contributor,
        value,
        commitment,
    })
}

/// Combines `t + 1` verified sub-shares at the joining node into its share
/// of the group secret, returning the share and the commitment vector under
/// which it verifies.
///
/// Sub-shares whose value does not verify against their commitment, or whose
/// commitment differs from the majority commitment, are discarded. Returns
/// `None` if fewer than `t + 1` consistent sub-shares remain.
pub fn combine_subshares(
    new_node: NodeId,
    subshares: &[Subshare],
    t: usize,
) -> Option<(Scalar, CommitmentVector)> {
    let (prepared, job) = prepare_subshare_combine(subshares)?;
    combine_verified_subshares(new_node, prepared, &job.run(), t)
}

/// The prepare half of [`combine_subshares`]: the majority-commitment
/// candidate group, carried from prepare to apply alongside its
/// [`CryptoJob`].
#[derive(Clone, Debug)]
pub struct SubshareCombine {
    commitment: CommitmentVector,
    candidates: Vec<Subshare>,
}

/// Selects the majority-commitment candidate group (a Byzantine contributor
/// could send a bogus commitment) and packages its verification — one
/// folded multiexp over all candidate sub-shares, with per-share blame
/// attribution on failure — as a schedulable [`CryptoJob`]. The batch
/// engine derives its RLC coefficients Fiat–Shamir style from the claims,
/// so a contributor fixing its sub-share cannot predict them.
///
/// Returns `None` when no sub-shares were supplied.
pub fn prepare_subshare_combine(subshares: &[Subshare]) -> Option<(SubshareCombine, CryptoJob)> {
    let mut groups: BTreeMap<Vec<u8>, Vec<&Subshare>> = BTreeMap::new();
    for s in subshares {
        groups.entry(s.commitment.to_bytes()).or_default().push(s);
    }
    let (_, group) = groups.into_iter().max_by_key(|(_, g)| g.len())?;
    let commitment = group[0].commitment.clone();
    let candidates: Vec<Subshare> = group.into_iter().cloned().collect();
    let job = CryptoJob::VectorShareBatch {
        vector: commitment.clone(),
        shares: candidates.iter().map(|s| (s.from, s.value)).collect(),
    };
    Some((
        SubshareCombine {
            commitment,
            candidates,
        },
        job,
    ))
}

/// The apply half of [`combine_subshares`]: keeps exactly the sub-shares
/// the job's verdict validated and interpolates the joining node's share.
pub fn combine_verified_subshares(
    new_node: NodeId,
    prepared: SubshareCombine,
    verdict: &CryptoVerdict,
    t: usize,
) -> Option<(Scalar, CommitmentVector)> {
    let SubshareCombine {
        commitment,
        candidates,
    } = prepared;
    if verdict.len() != candidates.len() {
        return None;
    }
    let verified: Vec<&Subshare> = candidates
        .iter()
        .zip(&verdict.valid)
        .filter(|(_, &ok)| ok)
        .map(|(s, _)| s)
        .collect();
    if verified.len() < t + 1 {
        return None;
    }
    let points: Vec<(u64, Scalar)> = verified
        .iter()
        .take(t + 1)
        .map(|s| (s.from, s.value))
        .collect();
    let share = dkg_poly::interpolate_secret(&points)?;
    // The combined value is h(0) = s_new = F(new); sanity-check it against
    // the commitment evaluated at 0.
    if commitment.public_key() != dkg_arith::GroupElement::commit(&share) {
        return None;
    }
    let _ = new_node;
    Some((share, commitment))
}

/// The combine rule used when resharing for node addition (identical shares
/// are kept by existing members, so no rule change is needed; exposed for
/// documentation value).
pub const NODE_ADDITION_COMBINE: CombineRule = CombineRule::InterpolateAtZero;

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_poly::SymmetricBivariate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // ----- configuration changes -----

    #[test]
    fn add_and_remove_nodes() {
        let config = DkgConfig::standard(7, 1).unwrap();
        let changes = [
            GroupChange::AddNode {
                node: 8,
                adjustment: ParameterAdjustment::None,
            },
            GroupChange::AddNode {
                node: 9,
                adjustment: ParameterAdjustment::CrashLimit,
            },
        ];
        let updated = apply_group_changes(&config, &changes).unwrap();
        assert_eq!(updated.n(), 9);
        assert_eq!(updated.f(), 2);
        assert_eq!(updated.t(), config.t());

        let removed = apply_group_changes(
            &updated,
            &[GroupChange::RemoveNode {
                node: 9,
                adjustment: ParameterAdjustment::CrashLimit,
            }],
        )
        .unwrap();
        assert_eq!(removed.n(), 8);
        assert_eq!(removed.f(), 1);
    }

    #[test]
    fn invalid_changes_are_rejected() {
        let config = DkgConfig::standard(4, 0).unwrap();
        assert_eq!(
            apply_group_changes(
                &config,
                &[GroupChange::AddNode {
                    node: 3,
                    adjustment: ParameterAdjustment::None
                }]
            )
            .err(),
            Some(GroupChangeError::AlreadyMember(3))
        );
        assert_eq!(
            apply_group_changes(
                &config,
                &[GroupChange::RemoveNode {
                    node: 9,
                    adjustment: ParameterAdjustment::None
                }]
            )
            .err(),
            Some(GroupChangeError::NotAMember(9))
        );
        // Removing a node from the minimal 4-node system breaks the bound.
        assert_eq!(
            apply_group_changes(
                &config,
                &[GroupChange::RemoveNode {
                    node: 4,
                    adjustment: ParameterAdjustment::None
                }]
            )
            .err(),
            Some(GroupChangeError::ResilienceViolated)
        );
        // Unless the threshold is lowered along with it.
        let lowered = apply_group_changes(
            &config,
            &[GroupChange::RemoveNode {
                node: 4,
                adjustment: ParameterAdjustment::Threshold,
            }],
        )
        .unwrap();
        assert_eq!(lowered.t(), 0);
        assert_eq!(lowered.n(), 3);
    }

    #[test]
    fn commutative_changes_give_the_same_result() {
        let config = DkgConfig::standard(7, 0).unwrap();
        let a = [
            GroupChange::AddNode {
                node: 8,
                adjustment: ParameterAdjustment::None,
            },
            GroupChange::AddNode {
                node: 9,
                adjustment: ParameterAdjustment::None,
            },
        ];
        let b = [a[1], a[0]];
        let ra = apply_group_changes(&config, &a).unwrap();
        let rb = apply_group_changes(&config, &b).unwrap();
        assert_eq!(ra.vss.nodes, rb.vss.nodes);
        assert_eq!(ra.t(), rb.t());
    }

    // ----- agreement -----

    #[test]
    fn invalid_proposals_are_not_echoed() {
        let config = DkgConfig::standard(4, 0).unwrap();
        let mut node = GroupModNode::new(1, config);
        let mut sink = ActionSink::new();
        // Removing node 4 from a 4-node t=1 system is invalid.
        node.on_message(
            2,
            GroupModMessage::Propose(GroupChange::RemoveNode {
                node: 4,
                adjustment: ParameterAdjustment::None,
            }),
            &mut sink,
        );
        assert!(sink.is_empty());
    }

    // ----- node addition -----

    /// Builds a synthetic "resharing of shares of F" directly with
    /// polynomials, mirroring what the agreed VSS instances produce.
    fn synthetic_resharings(
        t: usize,
        contributor: NodeId,
        secret_poly: &dkg_poly::Univariate,
        dealers: &[NodeId],
        rng: &mut StdRng,
    ) -> (Vec<(NodeId, CommitmentMatrix, Scalar)>, Scalar) {
        let mut out = Vec::new();
        for &d in dealers {
            let s_d = secret_poly.evaluate_at_index(d);
            let f_d = SymmetricBivariate::random_with_secret(rng, t, s_d);
            let c_d = CommitmentMatrix::commit(&f_d);
            let share_for_contributor = f_d.row(contributor).constant_term();
            out.push((d, c_d, share_for_contributor));
        }
        (out, secret_poly.constant_term())
    }

    #[test]
    fn node_addition_gives_the_new_node_a_valid_share() {
        let mut rng = StdRng::seed_from_u64(99);
        let t = 1usize;
        let new_node: NodeId = 9;
        // The group's sharing polynomial F (degree t), F(0) = s.
        let secret_poly = dkg_poly::Univariate::random(&mut rng, t);
        let dealers = [1u64, 2];

        // Contributors 1, 2 and 3 each hold shares of every dealer's
        // resharing; they all compute sub-shares for node 9.
        let mut subshares = Vec::new();
        // All contributors must use the *same* resharing polynomials, so
        // build them once per dealer.
        let resharing_polys: Vec<(NodeId, SymmetricBivariate)> = dealers
            .iter()
            .map(|&d| {
                let s_d = secret_poly.evaluate_at_index(d);
                (d, SymmetricBivariate::random_with_secret(&mut rng, t, s_d))
            })
            .collect();
        let commitments: Vec<(NodeId, CommitmentMatrix)> = resharing_polys
            .iter()
            .map(|(d, p)| (*d, CommitmentMatrix::commit(p)))
            .collect();
        for contributor in [1u64, 2, 3] {
            let resharings: Vec<(NodeId, &CommitmentMatrix, Scalar)> = resharing_polys
                .iter()
                .zip(&commitments)
                .map(|((d, poly), (_, c))| (*d, c, poly.row(contributor).constant_term()))
                .collect();
            let sub = subshare_for_new_node(contributor, new_node, &resharings, t).unwrap();
            subshares.push(sub);
        }
        let (share, commitment) = combine_subshares(new_node, &subshares, t).unwrap();
        // The new node's share equals F(new_node): it is a consistent share
        // of the same secret under the same degree-t sharing.
        assert_eq!(share, secret_poly.evaluate_at_index(new_node));
        assert_eq!(
            commitment.public_key(),
            dkg_arith::GroupElement::commit(&secret_poly.evaluate_at_index(new_node))
        );
        // Keep the helper exercised.
        let (synthetic, _) = synthetic_resharings(t, 1, &secret_poly, &dealers, &mut rng);
        assert_eq!(synthetic.len(), dealers.len());
    }

    #[test]
    fn combine_subshares_rejects_tampered_contributions() {
        let mut rng = StdRng::seed_from_u64(100);
        let t = 1usize;
        let secret_poly = dkg_poly::Univariate::random(&mut rng, t);
        let dealers = [1u64, 2];
        let resharing_polys: Vec<(NodeId, SymmetricBivariate)> = dealers
            .iter()
            .map(|&d| {
                let s_d = secret_poly.evaluate_at_index(d);
                (d, SymmetricBivariate::random_with_secret(&mut rng, t, s_d))
            })
            .collect();
        let commitments: Vec<CommitmentMatrix> = resharing_polys
            .iter()
            .map(|(_, p)| CommitmentMatrix::commit(p))
            .collect();
        let mut subshares = Vec::new();
        for contributor in [1u64, 2, 3] {
            let resharings: Vec<(NodeId, &CommitmentMatrix, Scalar)> = resharing_polys
                .iter()
                .zip(&commitments)
                .map(|((d, poly), c)| (*d, c, poly.row(contributor).constant_term()))
                .collect();
            subshares.push(subshare_for_new_node(contributor, 9, &resharings, t).unwrap());
        }
        // Tamper with one value: it is filtered out, and with only t+1 = 2
        // honest ones left the combination still succeeds.
        subshares[0].value += Scalar::one();
        assert!(combine_subshares(9, &subshares, t).is_some());
        // Tamper with two of three: not enough consistent sub-shares remain.
        subshares[1].value += Scalar::one();
        assert!(combine_subshares(9, &subshares, t).is_none());
        // Not enough resharings at all.
        assert!(subshare_for_new_node(1, 9, &[], t).is_none());
    }
}
