//! Correctness gates. Every workload checks every operation's output with
//! these, outside its timed region; a miss fails the operation.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use dkg_arith::{GroupElement, Scalar};
use dkg_core::DkgResult;
use dkg_crypto::{NodeId, PublicKey, Signature};
use dkg_poly::{interpolate_secret, CommitmentMatrix};

/// What one node holds once a DKG or renewal phase completed.
pub struct KeyView<'a> {
    pub node: NodeId,
    pub public_key: GroupElement,
    pub share: Scalar,
    pub commitment: &'a CommitmentMatrix,
}

impl<'a> KeyView<'a> {
    pub fn of(node: NodeId, result: &'a DkgResult) -> Self {
        KeyView {
            node,
            public_key: result.public_key,
            share: result.share,
            commitment: &result.commitment,
        }
    }
}

/// The DKG's safety properties on a finished run: all `n` nodes completed,
/// on one public key and one commitment matrix; every share matches its
/// commitment row; and two different sets of `t + 1` shares interpolate to
/// the discrete log of the public key. Returns the group key.
pub fn key_agreement(views: &[KeyView<'_>], n: usize, t: usize) -> Result<GroupElement, String> {
    if views.len() != n {
        return Err(format!("{} of {n} nodes completed", views.len()));
    }
    let first = &views[0];
    if first.commitment.public_key() != first.public_key {
        return Err("commitment matrix does not commit to the public key".to_string());
    }
    for view in views {
        if view.public_key != first.public_key || view.commitment != first.commitment {
            return Err(format!("node {} disagrees on the key", view.node));
        }
        if view.commitment.share_commitment(view.node) != GroupElement::commit(&view.share) {
            return Err(format!(
                "node {}'s share does not match its commitment",
                view.node
            ));
        }
    }
    let shares: Vec<(u64, Scalar)> = views.iter().map(|v| (v.node, v.share)).collect();
    for quorum in [&shares[..t + 1], &shares[n - t - 1..]] {
        let secret = interpolate_secret(quorum).ok_or("shares do not interpolate")?;
        if GroupElement::commit(&secret) != first.public_key {
            return Err("t + 1 shares do not interpolate to the group key".to_string());
        }
    }
    Ok(first.public_key)
}

/// A threshold signature must verify as a plain Schnorr signature under the
/// group key.
pub fn signature(
    group_key: &PublicKey,
    message: &[u8],
    signature: Option<Signature>,
    req: u64,
) -> Result<(), String> {
    let signature = signature.ok_or(format!("request {req} produced no signature"))?;
    group_key
        .verify(message, &signature)
        .map_err(|e| format!("request {req}: signature does not verify: {e:?}"))
}
