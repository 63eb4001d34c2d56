//! Process-per-node deployment: everything a parent process and its node
//! children need to run one DKG over localhost UDP with no coordinator.
//!
//! The rendezvous is the filesystem, under one shared **base directory**:
//!
//! ```text
//! <base>/addr-<id>      node <id>'s bound UDP address (atomic write)
//! <base>/result-<id>    node <id>'s completion record: "<public key>"
//! <base>/done           parent's shutdown signal to lingering children
//! <base>/go             parent's signing-start signal ([`run_sign_node`])
//! <base>/sig-<req>      aggregated signature for signing request <req>
//! <base>/stores/node-<id>/   node <id>'s FileStore (snapshot + WAL)
//! ```
//!
//! Each child binds an ephemeral localhost port, publishes it in its addr
//! file, polls for every peer's file, then drives [`run_node`] to
//! completion and writes its result file. Completed children **linger**,
//! still servicing traffic, until the parent creates the `done` file: the
//! paper's §5.3 recovery procedure needs live peers to answer a rebooted
//! node's help requests, so exiting at completion would strand it.
//!
//! A SIGKILLed child leaves only its store directory behind; relaunching
//! it with [`NodeSpec::resume`] set restores the endpoint from that store
//! ([`Endpoint::restore`]), rebinds (preferring its old port, falling back
//! to a fresh one that peers learn from its frames), and finishes the run
//! through `DkgInput::Recover`.
//!
//! All spec fields round-trip through environment variables
//! ([`spec_to_env`] / [`spec_from_env`]) so a test binary or example can
//! re-exec itself as the children.

use std::io;
use std::net::UdpSocket;
use std::path::{Path, PathBuf};

use dkg_core::DkgInput;
use dkg_crypto::NodeId;
use dkg_engine::runner::SystemSetup;
use dkg_engine::{Endpoint, EndpointConfig, Event, Reject, RestoreError, SessionKey};
use dkg_store::{StoreError, StoreHandle};
use dkg_tss::{SignSession, TssConfig, TssInput};

use crate::arq::ArqStats;
use crate::driver::{NetConfig, NetStats, NodeDriver};

/// One node's share of a deployment, fully determined by plain values so
/// it can cross a process boundary in environment variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// This node's id (1-based, as everywhere in the repo).
    pub node: NodeId,
    /// System size.
    pub n: usize,
    /// Crash threshold.
    pub f: usize,
    /// Setup seed: every process regenerates the identical
    /// [`SystemSetup`] (keys, directory, config) from `(n, f, seed)`.
    pub seed: u64,
    /// DKG phase counter.
    pub tau: u64,
    /// The shared base directory.
    pub base: PathBuf,
    /// `true` relaunches a killed node: restore from its store and run
    /// the §5.3 recovery procedure instead of starting fresh.
    pub resume: bool,
    /// Artificial per-step delay (ms); kill tests use it to hold the
    /// victim mid-protocol.
    pub throttle_ms: u64,
}

/// Why a deployment step failed.
#[derive(Debug)]
pub enum DeployError {
    /// A filesystem or socket operation failed.
    Io(io::Error),
    /// The node's store could not be opened.
    Store(StoreError),
    /// The endpoint refused a session or input.
    Endpoint(Reject),
    /// A resume could not restore from the store.
    Restore(RestoreError),
    /// A wait (rendezvous, completion, results) exceeded its deadline.
    Timeout {
        /// What was being waited for.
        waiting_for: String,
    },
    /// The completed DKG's result could not seed a signing session.
    SigningSetup,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Io(e) => write!(f, "deployment I/O failed: {e}"),
            DeployError::Store(e) => write!(f, "store unavailable: {e}"),
            DeployError::Endpoint(e) => write!(f, "endpoint refused: {e}"),
            DeployError::Restore(e) => write!(f, "resume failed: {e}"),
            DeployError::Timeout { waiting_for } => {
                write!(f, "timed out waiting for {waiting_for}")
            }
            DeployError::SigningSetup => {
                write!(f, "DKG result could not seed a signing session")
            }
        }
    }
}

impl std::error::Error for DeployError {}

impl From<io::Error> for DeployError {
    fn from(e: io::Error) -> Self {
        DeployError::Io(e)
    }
}

impl From<StoreError> for DeployError {
    fn from(e: StoreError) -> Self {
        DeployError::Store(e)
    }
}

impl From<Reject> for DeployError {
    fn from(e: Reject) -> Self {
        DeployError::Endpoint(e)
    }
}

/// What [`run_node`] hands back once its node completed and the parent
/// signalled shutdown.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// The distributed public key, as written to the result file.
    pub public_key: String,
    /// Transport counters at exit.
    pub net: NetStats,
    /// Reliability counters at exit.
    pub arq: ArqStats,
    /// Whether this incarnation was a resume from disk.
    pub resumed: bool,
}

/// Milliseconds since the Unix epoch — the deployment's shared clock.
pub fn epoch_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// `<base>/addr-<id>`.
pub fn addr_file(base: &Path, node: NodeId) -> PathBuf {
    base.join(format!("addr-{node}"))
}

/// `<base>/result-<id>`.
pub fn result_file(base: &Path, node: NodeId) -> PathBuf {
    base.join(format!("result-{node}"))
}

/// `<base>/done` — created by the parent once every result is in.
pub fn done_file(base: &Path) -> PathBuf {
    base.join("done")
}

/// `<base>/log-<id>` — where a spawned child's stdout/stderr belong.
pub fn log_file(base: &Path, node: NodeId) -> PathBuf {
    base.join(format!("log-{node}"))
}

/// `<base>/stores` — the parent directory of every node's store.
pub fn stores_dir(base: &Path) -> PathBuf {
    base.join("stores")
}

/// Writes `contents` to `path` atomically (temp file + rename), so a
/// concurrent reader sees either nothing or the whole file — the property
/// the rendezvous and result files depend on.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Signals lingering children to exit.
pub fn signal_done(base: &Path) -> io::Result<()> {
    write_atomic(&done_file(base), "done\n")
}

/// `<base>/sig-<req>` — the coordinator's aggregated signature for
/// request `req`, as `"<group key hex> <signature hex>"`.
pub fn sig_file(base: &Path, req: u64) -> PathBuf {
    base.join(format!("sig-{req}"))
}

/// `<base>/go` — created by the parent once every DKG result file is in.
/// It gates the coordinator's first signing request, so kill tests can
/// baseline the victim's WAL between the DKG and signing phases.
pub fn go_file(base: &Path) -> PathBuf {
    base.join("go")
}

/// Signals the coordinator to start serving its request list.
pub fn signal_go(base: &Path) -> io::Result<()> {
    write_atomic(&go_file(base), "go\n")
}

/// Lowercase hex of `bytes` — the signature-file serialization.
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// Decodes [`encode_hex`] output. `None` on odd length or non-hex input.
pub fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Bytes currently in `node`'s on-disk WAL (sum of `wal-*.log` sizes; 0 if
/// the store does not exist yet). The kill tests poll this to catch a
/// victim *mid-protocol*: the first WAL growth proves the node accepted
/// protocol traffic past session creation.
pub fn wal_bytes_on_disk(base: &Path, node: NodeId) -> u64 {
    let dir = dkg_store::node_dir(stores_dir(base), node);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

const ENV_NODE: &str = "DKG_NET_NODE";
const ENV_N: &str = "DKG_NET_N";
const ENV_F: &str = "DKG_NET_F";
const ENV_SEED: &str = "DKG_NET_SEED";
const ENV_TAU: &str = "DKG_NET_TAU";
const ENV_BASE: &str = "DKG_NET_BASE";
const ENV_RESUME: &str = "DKG_NET_RESUME";
const ENV_THROTTLE: &str = "DKG_NET_THROTTLE_MS";

/// Renders a spec as the environment variables a child process needs.
pub fn spec_to_env(spec: &NodeSpec) -> Vec<(String, String)> {
    vec![
        (ENV_NODE.into(), spec.node.to_string()),
        (ENV_N.into(), spec.n.to_string()),
        (ENV_F.into(), spec.f.to_string()),
        (ENV_SEED.into(), spec.seed.to_string()),
        (ENV_TAU.into(), spec.tau.to_string()),
        (ENV_BASE.into(), spec.base.display().to_string()),
        (
            ENV_RESUME.into(),
            if spec.resume { "1" } else { "0" }.into(),
        ),
        (ENV_THROTTLE.into(), spec.throttle_ms.to_string()),
    ]
}

/// Reads a spec back from the environment. `None` when `DKG_NET_NODE` is
/// absent — the caller is the parent, not a spawned child.
pub fn spec_from_env() -> Option<NodeSpec> {
    let get = |key: &str| std::env::var(key).ok();
    let node: NodeId = get(ENV_NODE)?.parse().ok()?;
    Some(NodeSpec {
        node,
        n: get(ENV_N)?.parse().ok()?,
        f: get(ENV_F)?.parse().ok()?,
        seed: get(ENV_SEED)?.parse().ok()?,
        tau: get(ENV_TAU).and_then(|v| v.parse().ok()).unwrap_or(0),
        base: PathBuf::from(get(ENV_BASE)?),
        resume: get(ENV_RESUME).as_deref() == Some("1"),
        throttle_ms: get(ENV_THROTTLE).and_then(|v| v.parse().ok()).unwrap_or(0),
    })
}

/// Binds this node's socket. A resumed node first tries its previous port
/// (from its old addr file) so peers' retransmissions reach it unchanged;
/// if that port is gone it binds fresh and peers re-learn the address
/// from its frames.
fn bind_socket(spec: &NodeSpec) -> io::Result<UdpSocket> {
    if spec.resume {
        if let Ok(old) = std::fs::read_to_string(addr_file(&spec.base, spec.node)) {
            if let Ok(socket) = UdpSocket::bind(old.trim()) {
                return Ok(socket);
            }
        }
    }
    UdpSocket::bind("127.0.0.1:0")
}

/// Polls for every peer's addr file until `deadline` (epoch ms), wiring
/// each into the driver's peer table.
fn rendezvous(
    driver: &mut NodeDriver,
    spec: &NodeSpec,
    peers: &[NodeId],
    deadline: u64,
) -> Result<(), DeployError> {
    let mut missing: Vec<NodeId> = peers.iter().copied().filter(|&p| p != spec.node).collect();
    while !missing.is_empty() {
        missing.retain(|&peer| {
            match std::fs::read_to_string(addr_file(&spec.base, peer))
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                Some(addr) => {
                    driver.set_peer(peer, addr);
                    false
                }
                None => true,
            }
        });
        if missing.is_empty() {
            break;
        }
        if epoch_ms() > deadline {
            return Err(DeployError::Timeout {
                waiting_for: format!("addr files of peers {missing:?}"),
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    Ok(())
}

/// Builds this node's endpoint: fresh (with a new DKG session) or, on
/// resume, restored from its store. A resumed store that never reached a
/// snapshot (killed before session creation persisted) falls back to a
/// fresh start — nothing was lost.
fn build_endpoint(spec: &NodeSpec, store: StoreHandle) -> Result<(Endpoint, bool), DeployError> {
    let config = EndpointConfig {
        store: Some(store),
        ..EndpointConfig::default()
    };
    if spec.resume {
        match Endpoint::restore(config.clone()) {
            Ok(endpoint) => return Ok((endpoint, true)),
            Err(RestoreError::Store(StoreError::SnapshotMissing)) => {}
            Err(e) => return Err(DeployError::Restore(e)),
        }
    }
    let setup = SystemSetup::generate(spec.n, spec.f, spec.seed);
    let mut endpoint = Endpoint::new(spec.node, config);
    endpoint
        .add_dkg_session(setup.build_node(spec.node, spec.tau))
        .map_err(DeployError::Endpoint)?;
    Ok((endpoint, false))
}

/// Runs one node end to end inside the calling process: open the store,
/// build or restore the endpoint, bind, rendezvous, drive the DKG to
/// completion, publish the result, then linger (still servicing peers)
/// until the parent's `done` file appears.
///
/// `run_timeout_ms` bounds the whole run from this call.
pub fn run_node(
    spec: &NodeSpec,
    net: NetConfig,
    run_timeout_ms: u64,
) -> Result<NodeReport, DeployError> {
    let deadline = epoch_ms() + run_timeout_ms;
    std::fs::create_dir_all(&spec.base)?;
    let store = StoreHandle::open_node_dir(stores_dir(&spec.base), spec.node)?;
    let (endpoint, resumed) = build_endpoint(spec, store)?;

    let socket = bind_socket(spec)?;
    let mut net = net;
    net.throttle = spec.throttle_ms;
    let mut driver = NodeDriver::new(endpoint, socket, net)?;
    write_atomic(
        &addr_file(&spec.base, spec.node),
        &format!("{}\n", driver.local_addr()?),
    )?;

    let setup = SystemSetup::generate(spec.n, spec.f, spec.seed);
    rendezvous(&mut driver, spec, &setup.config.vss.nodes, deadline)?;

    let input = if resumed {
        DkgInput::Recover
    } else {
        DkgInput::Start
    };
    driver.handle_dkg_input(spec.tau, input)?;

    let tau = spec.tau;
    let key = SessionKey::Dkg { tau };
    let completed = driver.run_until(|d| d.endpoint().is_complete(key), deadline)?;
    if !completed {
        return Err(DeployError::Timeout {
            waiting_for: format!(
                "DKG completion (stats {:?}, arq {:?})",
                driver.stats(),
                driver.arq_stats()
            ),
        });
    }
    let public_key = driver
        .events()
        .iter()
        .find_map(|record| match &record.event {
            Event::Dkg {
                tau: event_tau,
                output: dkg_core::DkgOutput::Completed { commitment, .. },
            } if *event_tau == tau => Some(commitment.public_key().to_string()),
            _ => None,
        })
        .or_else(|| {
            // A resumed node may have completed during WAL replay (events
            // are not re-surfaced); the session result still has the key.
            driver
                .endpoint()
                .dkg_result(tau)
                .map(|r| r.public_key.to_string())
        })
        .ok_or_else(|| DeployError::Timeout {
            waiting_for: format!("a DKG result for completed session τ={tau}"),
        })?;
    write_atomic(
        &result_file(&spec.base, spec.node),
        &format!("{public_key}\n"),
    )?;

    // Linger until the parent says everyone is done: rebooted peers may
    // still need this node's help answering §5.3 recovery requests.
    let done = done_file(&spec.base);
    driver.run_until(|_| done.exists(), deadline)?;

    Ok(NodeReport {
        node: spec.node,
        public_key,
        net: driver.stats(),
        arq: driver.arq_stats(),
        resumed,
    })
}

/// The part a node plays in a signing deployment ([`run_sign_node`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignRole {
    /// Runs the DKG, then coordinates every request in the parent's list
    /// and publishes each aggregated signature as a [`sig_file`].
    Coordinator,
    /// Runs the DKG, hosts a signing session and answers the coordinator
    /// until the parent signals done.
    Signer,
    /// Completes the DKG but never attaches a signing session: its
    /// withheld responses force the coordinator's blame-and-retry path,
    /// which must exclude it and re-quorum.
    Withholder,
}

/// Signing-round retry clock (ms): long enough that a throttled-but-alive
/// signer answers within one round, short enough that a SIGKILLed or
/// withholding one is blamed and replaced well inside the run timeout.
const SIGN_RETRY_MS: u64 = 800;

/// Runs one node of a *signing* deployment end to end: everything
/// [`run_node`] does — store, endpoint, rendezvous, DKG over UDP — and
/// then puts the DKG'd key to work serving threshold-signing requests
/// until the parent's `done` file appears.
///
/// The DKG result file doubles as the signing-readiness signal: the
/// parent waits for all of them (and, for kill tests, baselines the
/// victim's WAL) before writing the `go` file that releases the
/// coordinator's request list. A rebooted node (`spec.resume`) restores
/// its signing session from its store and re-enters whatever round was
/// in flight through [`TssInput::Recover`].
pub fn run_sign_node(
    spec: &NodeSpec,
    role: SignRole,
    sid: u64,
    requests: &[(u64, Vec<u8>)],
    net: NetConfig,
    run_timeout_ms: u64,
) -> Result<NodeReport, DeployError> {
    let deadline = epoch_ms() + run_timeout_ms;
    std::fs::create_dir_all(&spec.base)?;
    let store = StoreHandle::open_node_dir(stores_dir(&spec.base), spec.node)?;
    let (endpoint, resumed) = build_endpoint(spec, store)?;

    let socket = bind_socket(spec)?;
    let mut net = net;
    net.throttle = spec.throttle_ms;
    let mut driver = NodeDriver::new(endpoint, socket, net)?;
    write_atomic(
        &addr_file(&spec.base, spec.node),
        &format!("{}\n", driver.local_addr()?),
    )?;

    let setup = SystemSetup::generate(spec.n, spec.f, spec.seed);
    rendezvous(&mut driver, spec, &setup.config.vss.nodes, deadline)?;

    // Phase 1: the DKG. A resumed node may already hold its result from
    // snapshot + WAL replay; otherwise drive it to completion (via the
    // §5.3 recovery procedure if this incarnation is a reboot).
    let tau = spec.tau;
    if driver.endpoint().dkg_result(tau).is_none() {
        let input = if resumed {
            DkgInput::Recover
        } else {
            DkgInput::Start
        };
        driver.handle_dkg_input(tau, input)?;
        let key = SessionKey::Dkg { tau };
        let completed = driver.run_until(|d| d.endpoint().is_complete(key), deadline)?;
        if !completed {
            return Err(DeployError::Timeout {
                waiting_for: format!(
                    "DKG completion before signing (stats {:?}, arq {:?})",
                    driver.stats(),
                    driver.arq_stats()
                ),
            });
        }
    }
    let result = driver
        .endpoint()
        .dkg_result(tau)
        .cloned()
        .ok_or(DeployError::SigningSetup)?;
    let public_key = result.public_key.to_string();
    write_atomic(
        &result_file(&spec.base, spec.node),
        &format!("{public_key}\n"),
    )?;

    // Phase 2: signing. Attach the session keyed off the DKG result —
    // unless this node withholds, or the restored endpoint already
    // carries it (reboot after the attach was persisted).
    if role != SignRole::Withholder && driver.endpoint().sign_session(sid).is_none() {
        let config = TssConfig::new(
            setup.config.vss.nodes.clone(),
            result.commitment.threshold(),
            SIGN_RETRY_MS,
        )
        .ok_or(DeployError::SigningSetup)?;
        let session = SignSession::from_dkg_result(
            spec.node,
            sid,
            config,
            &result,
            spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(spec.node),
        )
        .ok_or(DeployError::SigningSetup)?;
        driver.endpoint_mut().add_sign_session(session)?;
    }
    if resumed && driver.endpoint().sign_session(sid).is_some() {
        // Rebooted mid-request: re-send whatever round was in flight.
        driver.handle_tss_input(sid, TssInput::Recover)?;
    }

    if role == SignRole::Coordinator {
        let go = go_file(&spec.base);
        driver.run_until(|_| go.exists(), deadline)?;
        for (req, message) in requests {
            driver.handle_tss_input(
                sid,
                TssInput::Sign {
                    req: *req,
                    message: message.clone(),
                },
            )?;
        }
        let wanted: Vec<u64> = requests.iter().map(|(req, _)| *req).collect();
        let signed = driver.run_until(
            |d| {
                d.endpoint()
                    .sign_session(sid)
                    .is_some_and(|session| wanted.iter().all(|&req| session.result(req).is_some()))
            },
            deadline,
        )?;
        if !signed {
            return Err(DeployError::Timeout {
                waiting_for: format!(
                    "aggregated signatures (stats {:?}, arq {:?})",
                    driver.stats(),
                    driver.arq_stats()
                ),
            });
        }
        let session = driver
            .endpoint()
            .sign_session(sid)
            .ok_or(DeployError::SigningSetup)?;
        let group_key = encode_hex(&session.group_key().to_bytes());
        for &req in &wanted {
            let signature = session.result(req).ok_or(DeployError::SigningSetup)?;
            write_atomic(
                &sig_file(&spec.base, req),
                &format!("{group_key} {}\n", encode_hex(&signature.to_bytes())),
            )?;
        }
    }

    // Linger until the parent says everyone is done — signers keep
    // answering the coordinator, the coordinator keeps answering late
    // recoverers.
    let done = done_file(&spec.base);
    driver.run_until(|_| done.exists(), deadline)?;

    Ok(NodeReport {
        node: spec.node,
        public_key,
        net: driver.stats(),
        arq: driver.arq_stats(),
        resumed,
    })
}

/// Parent-side wait: polls for every node's result file until `deadline`
/// (epoch ms), returning `(node, public key)` pairs in node order.
pub fn await_results(
    base: &Path,
    nodes: &[NodeId],
    deadline: u64,
) -> Result<Vec<(NodeId, String)>, DeployError> {
    loop {
        let mut out = Vec::with_capacity(nodes.len());
        for &node in nodes {
            match std::fs::read_to_string(result_file(base, node)) {
                Ok(contents) if !contents.trim().is_empty() => {
                    out.push((node, contents.trim().to_string()));
                }
                _ => break,
            }
        }
        if out.len() == nodes.len() {
            return Ok(out);
        }
        if epoch_ms() > deadline {
            let missing: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| !result_file(base, n).exists())
                .collect();
            return Err(DeployError::Timeout {
                waiting_for: format!("result files of nodes {missing:?}"),
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_env_shape() {
        let spec = NodeSpec {
            node: 3,
            n: 7,
            f: 1,
            seed: 42,
            tau: 5,
            base: PathBuf::from("/tmp/dkg-test"),
            resume: true,
            throttle_ms: 9,
        };
        // Parse the rendered pairs directly rather than mutating the real
        // process environment (tests share it).
        let vars: std::collections::BTreeMap<String, String> =
            spec_to_env(&spec).into_iter().collect();
        assert_eq!(vars["DKG_NET_NODE"], "3");
        assert_eq!(vars["DKG_NET_N"], "7");
        assert_eq!(vars["DKG_NET_RESUME"], "1");
        assert_eq!(vars["DKG_NET_THROTTLE_MS"], "9");
        assert_eq!(vars["DKG_NET_BASE"], "/tmp/dkg-test");
    }

    #[test]
    fn atomic_write_and_wal_probe() {
        let dir = std::env::temp_dir().join(format!("dkg-deploy-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("addr-1");
        write_atomic(&path, "127.0.0.1:9999\n").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().trim(),
            "127.0.0.1:9999"
        );
        // No store yet: zero, not an error.
        assert_eq!(wal_bytes_on_disk(&dir, 1), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
