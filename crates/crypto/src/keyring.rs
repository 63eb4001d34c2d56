//! The node key directory ("PKI").
//!
//! The paper assumes a PKI hierarchy with an external CA: "indices and
//! public keys for all nodes are publicly available in the form of
//! certificates" (§2.3). In this reproduction the CA is modelled by a static
//! [`KeyDirectory`] distributed to every node at configuration time, mapping
//! each node index to its Schnorr verification key. Proactive certificate
//! rotation (§5.1) is modelled by [`KeyDirectory::rotate`].

use crate::schnorr::{PublicKey, Signature, SignatureError, SigningKey};
use dkg_arith::{FixedBaseTable, GroupElement};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a protocol node. The paper indexes nodes `P_1 … P_n`;
/// we use the same 1-based convention, which also serves as the polynomial
/// evaluation point for the node's share.
pub type NodeId = u64;

/// Errors from directory lookups and signature checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyringError {
    /// The node index is not registered in the directory.
    UnknownNode(NodeId),
    /// The signature did not verify under the registered key.
    BadSignature(NodeId),
}

impl std::fmt::Display for KeyringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyringError::UnknownNode(id) => write!(f, "node {id} is not in the key directory"),
            KeyringError::BadSignature(id) => write!(f, "invalid signature from node {id}"),
        }
    }
}

impl std::error::Error for KeyringError {}

/// Window width of a key's table: 65 signed-digit windows × 8 multiples =
/// 520 affine entries (32.5 KiB) and 520 group operations to build, for at
/// most 65 additions per check. A process verifies thousands of signatures
/// against each of its `n` keys, but it also holds `n` tables, so the width
/// stays below the cost model's pick for that budget: 5 bits would be 832
/// entries to save 13 of the 65 additions.
const KEY_TABLE_WINDOW: usize = 4;

/// A verification key together with the fixed-base table of its point, for
/// a key that stays fixed while many signatures are checked under it: a
/// directory entry, or the group key of a signing session.
/// [`Self::verify`] is [`PublicKey::verify`]'s predicate with the key's
/// power taken from the table. The table is built in [`Self::new`] (520
/// group operations) — never on first use, so what a check costs does not
/// depend on who verified first — and shared by clones.
#[derive(Clone)]
pub struct TabledKey {
    key: PublicKey,
    table: Arc<FixedBaseTable>,
}

// The key bytes only: a derived Debug would print the table, 32.5 KiB, into
// any failure message that formats a key holder.
impl std::fmt::Debug for TabledKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TabledKey").field(&self.key).finish()
    }
}

impl TabledKey {
    /// Builds the table of `key`'s point.
    pub fn new(key: PublicKey) -> Self {
        let table = Arc::new(FixedBaseTable::new(&key.point(), KEY_TABLE_WINDOW));
        TabledKey { key, table }
    }

    /// The key itself.
    pub fn key(&self) -> PublicKey {
        self.key
    }

    /// Verifies `signature` over `message`: a walk of the generator's table
    /// and a walk of this key's, no doubling and no inversion.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        self.key.verify_with(message, signature, |acc, challenge| {
            self.table.mul_onto(acc, &-*challenge);
        })
    }
}

/// Public directory of verification keys for all system nodes.
///
/// The keys never change between [`Self::register`] / [`Self::rotate`]
/// calls, so each is held as a [`TabledKey`], built when the key enters the
/// directory; clones of a directory share the tables.
#[derive(Clone, Default)]
pub struct KeyDirectory {
    keys: BTreeMap<NodeId, TabledKey>,
}

// Node ids and key bytes only, not the tables.
impl std::fmt::Debug for KeyDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.keys.iter().map(|(node, entry)| (node, entry.key)))
            .finish()
    }
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the key for a node.
    pub fn register(&mut self, node: NodeId, key: PublicKey) {
        self.keys.insert(node, TabledKey::new(key));
    }

    /// Removes a node (used by the node-removal group modification, §6.3).
    pub fn remove(&mut self, node: NodeId) {
        self.keys.remove(&node);
    }

    /// Replaces the key of an existing node, modelling the certificate
    /// revocation + re-issuance a recovering node performs at reboot (§5.1).
    pub fn rotate(&mut self, node: NodeId, key: PublicKey) -> Result<(), KeyringError> {
        let entry = self
            .keys
            .get_mut(&node)
            .ok_or(KeyringError::UnknownNode(node))?;
        *entry = TabledKey::new(key);
        Ok(())
    }

    fn entry(&self, node: NodeId) -> Result<&TabledKey, KeyringError> {
        self.keys.get(&node).ok_or(KeyringError::UnknownNode(node))
    }

    /// Looks up the key of a node.
    pub fn public_key(&self, node: NodeId) -> Result<PublicKey, KeyringError> {
        self.entry(node).map(|entry| entry.key)
    }

    /// Verifies a signature attributed to `node` ([`TabledKey::verify`]).
    pub fn verify(
        &self,
        node: NodeId,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), KeyringError> {
        self.entry(node)?
            .verify(message, signature)
            .map_err(|_| KeyringError::BadSignature(node))
    }

    /// Returns the registered node indices in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.keys.keys().copied().collect()
    }

    /// Every registered key's point, by node — the directory's stable
    /// form, which [`Self::from_points`] reads back.
    pub fn points(&self) -> BTreeMap<NodeId, GroupElement> {
        self.keys
            .iter()
            .map(|(&node, entry)| (node, entry.key.point()))
            .collect()
    }

    /// Builds a directory from `(node, point)` entries, registering each as
    /// [`Self::register`] does. Fails with the first node whose point is not
    /// a valid verification key (the identity).
    pub fn from_points(
        entries: impl IntoIterator<Item = (NodeId, GroupElement)>,
    ) -> Result<Self, NodeId> {
        let mut directory = KeyDirectory::new();
        for (node, point) in entries {
            directory.register(node, PublicKey::from_point(point).ok_or(node)?);
        }
        Ok(directory)
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Generates signing keys for nodes `1..=n` and the matching public
/// directory. This is the test/simulation equivalent of the external CA
/// provisioning each node with a certificate.
pub fn generate_keyring<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
) -> (BTreeMap<NodeId, SigningKey>, KeyDirectory) {
    let mut secrets = BTreeMap::new();
    let mut directory = KeyDirectory::new();
    for node in 1..=n as NodeId {
        let sk = SigningKey::generate(rng);
        directory.register(node, sk.public_key());
        secrets.insert(node, sk);
    }
    (secrets, directory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::schnorr_challenge;
    use dkg_arith::{ops, GroupElement, PrimeField, Scalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The textbook predicate `g^s == R · pk^c`, all in affine arithmetic.
    fn reference_verify(key: &PublicKey, message: &[u8], signature: &Signature) -> bool {
        let c = schnorr_challenge(&signature.nonce_commitment(), key, message);
        GroupElement::commit(&signature.response())
            == signature.nonce_commitment() + key.point().mul(&c)
    }

    #[test]
    fn table_backed_verify_is_the_reference_predicate() {
        let mut rng = StdRng::seed_from_u64(16);
        let (secrets, directory) = generate_keyring(&mut rng, 3);
        let sk = secrets[&1];
        let pk = sk.public_key();
        let (msg, other): (&[u8], &[u8]) = (b"msg", b"other");
        let honest = sk.sign(&mut rng, msg);
        let (r, s) = (honest.nonce_commitment(), honest.response());
        // R = identity with s = c·x satisfies the equation under both.
        let c = schnorr_challenge(&GroupElement::identity(), &pk, msg);
        let nonceless = Signature::from_parts(GroupElement::identity(), c * sk.secret());
        let mut cases = vec![
            (1, msg, honest, true),
            (1, msg, Signature::from_parts(r, s + Scalar::one()), false),
            (1, msg, Signature::from_parts(r + pk.point(), s), false),
            (1, msg, Signature::from_parts(-r, s), false),
            (2, msg, honest, false),
            (1, other, honest, false),
            (1, msg, nonceless, true),
            // The accumulator lands on the identity but R does not.
            (
                1,
                msg,
                Signature::from_parts(r, schnorr_challenge(&r, &pk, msg) * sk.secret()),
                false,
            ),
            (1, msg, Signature::from_parts(r, Scalar::zero()), false),
            (
                1,
                msg,
                Signature::from_parts(GroupElement::identity(), Scalar::zero()),
                false,
            ),
        ];
        for _ in 0..8 {
            let garbage =
                Signature::from_parts(GroupElement::random(&mut rng), Scalar::random(&mut rng));
            cases.push((3, msg, garbage, false));
        }
        for (i, (node, message, signature, expected)) in cases.into_iter().enumerate() {
            let key = directory.public_key(node).unwrap();
            assert_eq!(
                reference_verify(&key, message, &signature),
                expected,
                "case {i}"
            );
            assert_eq!(
                directory.keys[&node].verify(message, &signature).is_ok(),
                expected,
                "case {i}"
            );
            assert_eq!(
                directory.verify(node, message, &signature).is_ok(),
                expected,
                "case {i}"
            );
            assert_eq!(
                key.verify(message, &signature).is_ok(),
                expected,
                "case {i}"
            );
        }
    }

    #[test]
    fn one_verify_is_two_table_walks() {
        let mut rng = StdRng::seed_from_u64(17);
        let (secrets, directory) = generate_keyring(&mut rng, 2);
        for node in [1, 2] {
            let sig = secrets[&node].sign(&mut rng, b"walk");
            let (verdict, spent) = ops::measure(|| directory.verify(node, b"walk", &sig));
            assert!(verdict.is_ok());
            assert_eq!(spent.doubles, 0);
            assert!(spent.adds <= 91, "{spent:?}");
        }
    }

    #[test]
    fn tables_are_built_eagerly_shared_by_clones_and_dropped_with_the_key() {
        let mut rng = StdRng::seed_from_u64(18);
        let key = SigningKey::generate(&mut rng).public_key();
        let mut directory = KeyDirectory::new();
        let ((), build) = ops::measure(|| directory.register(1, key));
        // One group op per signed-digit entry: 65 windows × 8 (unsigned
        // digits took 64 × 15 = 960).
        assert_eq!(build.total(), 520);
        directory.register(2, SigningKey::generate(&mut rng).public_key());

        let copy = directory.clone();
        for node in [1, 2] {
            assert!(Arc::ptr_eq(
                &directory.keys[&node].table,
                &copy.keys[&node].table
            ));
        }

        let old_table = Arc::clone(&directory.keys[&1].table);
        assert_eq!(Arc::strong_count(&old_table), 3);
        directory
            .rotate(1, SigningKey::generate(&mut rng).public_key())
            .unwrap();
        assert!(!Arc::ptr_eq(&directory.keys[&1].table, &old_table));
        // The clone still verifies under the key it was cloned with.
        assert!(Arc::ptr_eq(&copy.keys[&1].table, &old_table));
        assert_eq!(Arc::strong_count(&old_table), 2);

        let removed = Arc::clone(&directory.keys[&2].table);
        directory.remove(2);
        drop(copy);
        assert_eq!(Arc::strong_count(&removed), 1);
        assert_eq!(Arc::strong_count(&old_table), 1);
    }

    #[test]
    fn debug_prints_ids_and_keys_not_tables() {
        let mut rng = StdRng::seed_from_u64(19);
        let (_, directory) = generate_keyring(&mut rng, 3);
        let text = format!("{directory:?}");
        assert!(text.starts_with("{1: PublicKey"), "{text}");
        assert!(text.len() < 3 * 400, "{} bytes", text.len());
        assert!(!text.contains("FixedBaseTable"));
        let entry = format!("{:?}", directory.keys[&1]);
        assert!(entry.starts_with("TabledKey(PublicKey"), "{entry}");
        assert!(entry.len() < 400, "{} bytes", entry.len());
    }

    #[test]
    fn generate_and_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        let (secrets, directory) = generate_keyring(&mut rng, 4);
        assert_eq!(directory.len(), 4);
        let sig = secrets[&2].sign(&mut rng, b"msg");
        assert!(directory.verify(2, b"msg", &sig).is_ok());
        assert_eq!(
            directory.verify(3, b"msg", &sig),
            Err(KeyringError::BadSignature(3))
        );
        assert_eq!(
            directory.verify(9, b"msg", &sig),
            Err(KeyringError::UnknownNode(9))
        );
    }

    #[test]
    fn rotate_replaces_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let (secrets, mut directory) = generate_keyring(&mut rng, 3);
        let new_key = SigningKey::generate(&mut rng);
        directory.rotate(1, new_key.public_key()).unwrap();
        let old_sig = secrets[&1].sign(&mut rng, b"m");
        assert!(directory.verify(1, b"m", &old_sig).is_err());
        let new_sig = new_key.sign(&mut rng, b"m");
        assert!(directory.verify(1, b"m", &new_sig).is_ok());
        assert_eq!(
            directory.rotate(7, new_key.public_key()),
            Err(KeyringError::UnknownNode(7))
        );
    }

    #[test]
    fn points_read_back_into_the_same_directory() {
        let mut rng = StdRng::seed_from_u64(4);
        let (secrets, directory) = generate_keyring(&mut rng, 3);
        let points = directory.points();
        assert_eq!(
            points.keys().copied().collect::<Vec<_>>(),
            directory.nodes()
        );
        let back = KeyDirectory::from_points(points.clone()).unwrap();
        assert_eq!(back.points(), points);
        let sig = secrets[&2].sign(&mut rng, b"msg");
        assert!(back.verify(2, b"msg", &sig).is_ok());
        // The identity is no verification key; the failure names its node.
        let mut bad = points;
        bad.insert(2, GroupElement::identity());
        assert_eq!(KeyDirectory::from_points(bad).err(), Some(2));
    }

    #[test]
    fn remove_node() {
        let mut rng = StdRng::seed_from_u64(3);
        let (_, mut directory) = generate_keyring(&mut rng, 3);
        directory.remove(2);
        assert_eq!(directory.nodes(), vec![1, 3]);
        assert!(directory.public_key(2).is_err());
        assert!(!directory.is_empty());
    }
}
