//! System construction: keyrings, configs and node seeding, reproducible
//! from a single `u64` seed.
//!
//! This module only *builds* systems ([`SystemSetup`]). The canonical
//! driver that runs them end-to-end over encoded byte datagrams lives in
//! `dkg_engine::runner` (which re-exports [`SystemSetup`], so examples and
//! tests have a single import path).

use std::collections::BTreeMap;

use dkg_crypto::{generate_keyring, KeyDirectory, NodeId, SigningKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{DkgConfig, NodeKeys};
use crate::node::DkgNode;

/// Everything needed to instantiate a DKG system: the shared configuration,
/// each node's signing key and the public directory.
#[derive(Clone, Debug)]
pub struct SystemSetup {
    /// The shared protocol configuration.
    pub config: DkgConfig,
    /// Long-term signing keys, per node.
    pub signing_keys: BTreeMap<NodeId, SigningKey>,
    /// The public key directory (the paper's PKI).
    pub directory: KeyDirectory,
    /// The seed this setup was derived from.
    pub seed: u64,
}

impl SystemSetup {
    /// Generates a fresh setup for `n` nodes tolerating `f` crashes (with the
    /// largest safe Byzantine threshold `t`).
    pub fn generate(n: usize, f: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (signing_keys, directory) = generate_keyring(&mut rng, n);
        SystemSetup {
            config: DkgConfig::standard(n, f).expect("standard parameters satisfy the bound"),
            signing_keys,
            directory,
            seed,
        }
    }

    /// Generates a setup with an explicit configuration.
    pub fn with_config(config: DkgConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (signing_keys, directory) = generate_keyring(&mut rng, config.n());
        SystemSetup {
            config,
            signing_keys,
            directory,
            seed,
        }
    }

    /// The key material for one node.
    pub fn node_keys(&self, node: NodeId) -> NodeKeys {
        NodeKeys {
            signing_key: self.signing_keys[&node],
            directory: std::sync::Arc::new(self.directory.clone()),
        }
    }

    /// Builds a [`DkgNode`] for session `tau`.
    pub fn build_node(&self, node: NodeId, tau: u64) -> DkgNode {
        DkgNode::new(
            node,
            self.config.clone(),
            self.node_keys(node),
            tau,
            self.seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(node)
                .wrapping_add(tau.wrapping_mul(97)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_reproducible() {
        let a = SystemSetup::generate(4, 0, 5);
        let b = SystemSetup::generate(4, 0, 5);
        assert_eq!(a.directory.nodes(), b.directory.nodes());
        assert_eq!(
            a.signing_keys[&1].public_key(),
            b.signing_keys[&1].public_key()
        );
        let c = SystemSetup::generate(4, 0, 6);
        assert_ne!(
            a.signing_keys[&1].public_key(),
            c.signing_keys[&1].public_key()
        );
    }
}
