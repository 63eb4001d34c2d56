//! End-to-end tests of the threshold-signing state machine on an
//! in-memory message pump: honest runs, misbehaving and silent signers,
//! quorum exhaustion, idempotent replays, nonce-reuse refusal, deferred
//! crypto jobs and snapshot/restore mid-request — and the shape of the
//! honest path: the aggregate is verified first, no per-signer check and no
//! crypto job unless it fails, and the completed-request window is bounded.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dkg_arith::{multiexp, ops, GroupElement, PrimeField, Scalar};
use dkg_crypto::{NodeId, PublicKey};
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_sim::{Action, ActionSink, Protocol};
use dkg_tss::{SignSession, TssConfig, TssInput, TssMessage, TssOutput};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RETRY: u64 = 500;

struct Net {
    sessions: BTreeMap<NodeId, SignSession>,
    queue: VecDeque<(NodeId, NodeId, TssMessage)>,
    timers: BTreeMap<(NodeId, u64), bool>,
    outputs: Vec<(NodeId, TssOutput)>,
    /// The verdict of every crypto job that ran, in order.
    verdicts: Vec<Vec<bool>>,
    group_key: PublicKey,
}

fn build(n: u64, t: usize, seed: u64) -> Net {
    let mut rng = StdRng::seed_from_u64(seed);
    let secret = Scalar::random(&mut rng);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
    let matrix = CommitmentMatrix::commit(&poly);
    let group_point = matrix.share_commitment(0);
    let signers: Vec<NodeId> = (1..=n).collect();
    let sessions = signers
        .iter()
        .map(|&id| {
            let config = TssConfig::new(signers.clone(), t, RETRY).unwrap();
            let session = SignSession::new(
                id,
                9,
                config,
                poly.row(id).constant_term(),
                matrix.clone(),
                group_point,
                seed * 1000 + id,
            )
            .unwrap();
            (id, session)
        })
        .collect();
    Net {
        sessions,
        queue: VecDeque::new(),
        timers: BTreeMap::new(),
        outputs: Vec::new(),
        verdicts: Vec::new(),
        group_key: PublicKey::from_point(group_point).unwrap(),
    }
}

impl Net {
    fn absorb(&mut self, from: NodeId, sink: ActionSink<TssMessage, TssOutput>) {
        for action in sink.into_actions() {
            match action {
                Action::Send { to, message } => self.queue.push_back((from, to, message)),
                Action::Output(out) => self.outputs.push((from, out)),
                Action::SetTimer { id, .. } => {
                    self.timers.insert((from, id), true);
                }
                Action::CancelTimer { id } => {
                    self.timers.remove(&(from, id));
                }
            }
        }
    }

    fn operator(&mut self, node: NodeId, input: TssInput) {
        let mut sink = ActionSink::new();
        self.sessions
            .get_mut(&node)
            .unwrap()
            .on_operator(input, &mut sink);
        self.absorb(node, sink);
    }

    /// Delivers queued messages through `tamper` (return `None` to drop)
    /// until the network is quiet, draining any deferred crypto jobs after
    /// each delivery.
    fn run_with(
        &mut self,
        mut tamper: impl FnMut(NodeId, NodeId, TssMessage) -> Option<TssMessage>,
    ) {
        loop {
            let Some((from, to, message)) = self.queue.pop_front() else {
                if !self.drain_jobs() {
                    return;
                }
                continue;
            };
            if let Some(message) = tamper(from, to, message) {
                let mut sink = ActionSink::new();
                self.sessions
                    .get_mut(&to)
                    .unwrap()
                    .on_message(from, message, &mut sink);
                self.absorb(to, sink);
            }
        }
    }

    fn run(&mut self) {
        self.run_with(|_, _, message| Some(message));
    }

    /// Polls and completes every queued crypto job; returns whether any ran.
    fn drain_jobs(&mut self) -> bool {
        let mut ran = false;
        let ids: Vec<NodeId> = self.sessions.keys().copied().collect();
        for node in ids {
            while let Some((job_id, job)) = self.sessions.get_mut(&node).unwrap().poll_job() {
                let verdict = job.run();
                self.verdicts.push(verdict.valid.clone());
                let mut sink = ActionSink::new();
                self.sessions
                    .get_mut(&node)
                    .unwrap()
                    .complete_job(job_id, &verdict, &mut sink);
                self.absorb(node, sink);
                ran = true;
            }
        }
        ran
    }

    /// Fires an armed timer (coordinator round clock) and reruns the net.
    fn fire_timer(&mut self, node: NodeId, req: u64) {
        assert!(
            self.timers.remove(&(node, req)).is_some(),
            "timer ({node}, {req}) is not armed"
        );
        let mut sink = ActionSink::new();
        self.sessions
            .get_mut(&node)
            .unwrap()
            .on_timer(req, &mut sink);
        self.absorb(node, sink);
    }

    fn signed_outputs(&self, req: u64) -> Vec<(NodeId, dkg_crypto::Signature)> {
        self.outputs
            .iter()
            .filter_map(|(node, out)| match out {
                TssOutput::Signed { req: r, signature } if *r == req => Some((*node, *signature)),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn threshold_signature_verifies_under_plain_schnorr() {
    let mut net = build(5, 2, 1);
    net.operator(
        1,
        TssInput::Sign {
            req: 7,
            message: b"pay alice 10".to_vec(),
        },
    );
    net.run();
    // Every node reports the same signature, exactly once.
    let signed = net.signed_outputs(7);
    assert_eq!(signed.len(), 5);
    let signature = signed[0].1;
    assert!(signed.iter().all(|&(_, s)| s == signature));
    // The aggregate is an ordinary single-key Schnorr signature.
    assert!(net.group_key.verify(b"pay alice 10", &signature).is_ok());
    assert!(net.group_key.verify(b"pay alice 11", &signature).is_err());
    // The coordinator's request state is torn down and its timer cancelled.
    assert!(net.timers.is_empty());
    assert_eq!(net.sessions[&1].result(7), Some(signature));
}

#[test]
fn concurrent_requests_from_different_coordinators_all_complete() {
    let mut net = build(4, 1, 2);
    for (coordinator, req) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
        net.operator(
            coordinator,
            TssInput::Sign {
                req,
                message: format!("request {req}").into_bytes(),
            },
        );
    }
    net.run();
    for req in [10u64, 20, 30, 40] {
        let signed = net.signed_outputs(req);
        assert_eq!(signed.len(), 4, "req {req} must complete on all nodes");
        assert!(net
            .group_key
            .verify(format!("request {req}").as_bytes(), &signed[0].1)
            .is_ok());
    }
}

#[test]
fn corrupted_partial_is_identified_and_excluded() {
    let mut net = build(5, 2, 3);
    net.operator(
        1,
        TssInput::Sign {
            req: 1,
            message: b"message".to_vec(),
        },
    );
    // Node 3 always garbles its partial response; aggregate-then-attribute
    // must pin the blame on it alone and the retry must succeed without it.
    net.run_with(|from, _to, message| match message {
        TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer,
            response,
        } if from == 3 => Some(TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer,
            response: response + Scalar::one(),
        }),
        other => Some(other),
    });
    let signed = net.signed_outputs(1);
    assert_eq!(signed.len(), 5);
    assert!(net.group_key.verify(b"message", &signed[0].1).is_ok());
}

#[test]
fn withheld_nonce_commit_is_blamed_on_timeout() {
    let mut net = build(5, 2, 4);
    net.operator(
        1,
        TssInput::Sign {
            req: 2,
            message: b"silent signer".to_vec(),
        },
    );
    // Node 2 never answers the solicitation.
    let drop_from_2 = |from: NodeId, _to: NodeId, message: TssMessage| match message {
        TssMessage::NonceCommit { .. } if from == 2 => None,
        other => Some(other),
    };
    net.run_with(drop_from_2);
    assert!(net.signed_outputs(2).is_empty(), "round 1 must stall");
    net.fire_timer(1, 2);
    net.run_with(drop_from_2);
    let signed = net.signed_outputs(2);
    assert_eq!(signed.len(), 5);
    assert!(net.group_key.verify(b"silent signer", &signed[0].1).is_ok());
}

#[test]
fn withheld_partial_is_blamed_on_timeout() {
    let mut net = build(5, 2, 5);
    net.operator(
        1,
        TssInput::Sign {
            req: 3,
            message: b"withheld partial".to_vec(),
        },
    );
    // Node 3 commits its nonces but never sends its partial.
    let drop_partial = |from: NodeId, _to: NodeId, message: TssMessage| match message {
        TssMessage::PartialSig { .. } if from == 3 => None,
        other => Some(other),
    };
    net.run_with(drop_partial);
    assert!(net.signed_outputs(3).is_empty());
    net.fire_timer(1, 3);
    net.run_with(drop_partial);
    let signed = net.signed_outputs(3);
    assert_eq!(signed.len(), 5);
    assert!(net
        .group_key
        .verify(b"withheld partial", &signed[0].1)
        .is_ok());
}

#[test]
fn exhausting_the_signer_set_reports_failure() {
    // n = 3, t = 1: quorums are pairs. With nodes 2 and 3 both corrupting
    // their partials, the coordinator runs out of eligible signers.
    let mut net = build(3, 1, 6);
    net.operator(
        1,
        TssInput::Sign {
            req: 4,
            message: b"doomed".to_vec(),
        },
    );
    net.run_with(|from, _to, message| match message {
        TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer,
            response,
        } if from != 1 => Some(TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer,
            response: response + Scalar::one(),
        }),
        other => Some(other),
    });
    assert!(net.signed_outputs(4).is_empty());
    let exhausted: Vec<NodeId> = net
        .outputs
        .iter()
        .filter_map(|(node, out)| match out {
            TssOutput::Exhausted { req: 4 } => Some(*node),
            _ => None,
        })
        .collect();
    assert_eq!(exhausted, vec![1]);
    assert!(net.timers.is_empty());
    // A replayed request reports the same outcome instead of restarting.
    net.operator(
        1,
        TssInput::Sign {
            req: 4,
            message: b"doomed".to_vec(),
        },
    );
    assert!(net.queue.is_empty());
}

#[test]
fn completed_requests_replay_idempotently() {
    let mut net = build(4, 1, 7);
    net.operator(
        2,
        TssInput::Sign {
            req: 5,
            message: b"replay".to_vec(),
        },
    );
    net.run();
    let first = net.signed_outputs(5);
    assert_eq!(first.len(), 4);
    // Re-submitting the same request re-emits the result without traffic.
    net.operator(
        2,
        TssInput::Sign {
            req: 5,
            message: b"replay".to_vec(),
        },
    );
    assert!(net.queue.is_empty());
    assert_eq!(net.signed_outputs(5).len(), 5);
}

#[test]
fn equivocating_packages_are_refused() {
    // A malicious coordinator collects a signer's commitment and then
    // tries to obtain two partials for the same (req, attempt) under two
    // different packages — the classic nonce-reuse share extraction. The
    // signer answers the first package and refuses the second.
    let mut net = build(4, 1, 8);
    net.operator(
        1,
        TssInput::Sign {
            req: 6,
            message: b"equivocate".to_vec(),
        },
    );
    let mut first_package: Option<TssMessage> = None;
    let mut partials_from_2 = 0u32;
    net.run_with(|from, to, message| {
        if from == 2 {
            if let TssMessage::PartialSig { .. } = &message {
                partials_from_2 += 1;
            }
        }
        if to == 2 {
            if let TssMessage::SignRequest {
                package: Some(_), ..
            } = &message
            {
                first_package.get_or_insert_with(|| message.clone());
            }
        }
        Some(message)
    });
    assert_eq!(partials_from_2, 1);
    assert_eq!(net.signed_outputs(6).len(), 4);

    // Replay the original package → idempotent identical answer.
    // (The request completed, so node 2 now answers with the result
    // instead — also a safe, non-signing response.)
    let Some(TssMessage::SignRequest {
        sid,
        req,
        attempt,
        message,
        package: Some(package),
    }) = first_package
    else {
        panic!("coordinator never sent a package to node 2");
    };

    // A fresh request whose package swaps another signer's commitments:
    // node 2 must not produce a partial for a package disagreeing with
    // its own recorded commitments or an unknown (req, attempt).
    let mut tampered = package.clone();
    tampered.swap(0, 1);
    tampered.sort_by_key(|e| e.signer); // restore canonical order, entries now wrong
    let mut sink = ActionSink::new();
    net.sessions.get_mut(&2).unwrap().on_message(
        1,
        TssMessage::SignRequest {
            sid,
            req: req + 100, // unknown request: no nonces committed
            attempt,
            message: message.clone(),
            package: Some(tampered),
        },
        &mut sink,
    );
    assert!(
        sink.into_actions().is_empty(),
        "no partial may be produced without matching committed nonces"
    );
}

#[test]
fn deferred_jobs_match_inline_verdicts() {
    let mut inline = build(5, 2, 9);
    let mut deferred = build(5, 2, 9);
    for session in deferred.sessions.values_mut() {
        session.set_deferred_crypto(true);
    }
    for net in [&mut inline, &mut deferred] {
        net.operator(
            1,
            TssInput::Sign {
                req: 8,
                message: b"same bytes".to_vec(),
            },
        );
        net.run();
    }
    let a = inline.signed_outputs(8);
    let b = deferred.signed_outputs(8);
    assert_eq!(a.len(), 5);
    // Same seeds, same protocol, different execution mode → identical
    // signatures.
    assert_eq!(a, b);
}

#[test]
fn snapshot_restore_resumes_mid_request() {
    let mut net = build(5, 2, 10);
    net.operator(
        1,
        TssInput::Sign {
            req: 9,
            message: b"crash mid-request".to_vec(),
        },
    );
    // Deliver round 1 solicitations but drop every commit headed back to
    // the coordinator: the request stalls with the coordinator waiting.
    net.run_with(|_, to, message| match message {
        TssMessage::NonceCommit { .. } if to == 1 => None,
        other => Some(other),
    });
    assert!(net.signed_outputs(9).is_empty());

    // Crash the coordinator: serialize, drop, restore, recover.
    let snapshot = net.sessions[&1].snapshot().expect("job-quiescent");
    use dkg_wire::{WireDecode, WireEncode};
    let bytes = snapshot.encode();
    let back = dkg_tss::SignSnapshot::decode(&bytes).expect("snapshot decodes");
    assert_eq!(back, snapshot);
    let restored = SignSession::restore(back).expect("snapshot restores");
    net.sessions.insert(1, restored);

    net.operator(1, TssInput::Recover);
    net.run();
    let signed = net.signed_outputs(9);
    assert_eq!(signed.len(), 5);
    assert!(net
        .group_key
        .verify(b"crash mid-request", &signed[0].1)
        .is_ok());
}

#[test]
fn participant_snapshot_survives_restore_without_nonce_reuse() {
    let mut net = build(4, 1, 11);
    net.operator(
        1,
        TssInput::Sign {
            req: 11,
            message: b"participant crash".to_vec(),
        },
    );
    // Stall round 2: participants have committed nonces, nobody signed yet.
    net.run_with(|_, _, message| match message {
        TssMessage::SignRequest {
            package: Some(_), ..
        } => None,
        other => Some(other),
    });
    // Crash-restore participant 2 mid-request.
    let snapshot = net.sessions[&2].snapshot().expect("job-quiescent");
    let restored = SignSession::restore(snapshot).expect("restores");
    net.sessions.insert(2, restored);
    // The coordinator retransmits its current round; the restored signer
    // re-answers with the *same* nonce commitments and the run completes.
    net.operator(1, TssInput::Recover);
    net.run();
    let signed = net.signed_outputs(11);
    assert_eq!(signed.len(), 4);
    assert!(net
        .group_key
        .verify(b"participant crash", &signed[0].1)
        .is_ok());
}

#[test]
fn config_rejects_degenerate_parameter_sets() {
    // Zero retry delay, short signer lists, unsorted and zero ids.
    assert!(TssConfig::new(vec![1, 2, 3], 1, 0).is_none());
    assert!(TssConfig::new(vec![1, 2], 2, RETRY).is_none());
    assert!(TssConfig::new(vec![2, 1, 3], 1, RETRY).is_none());
    assert!(TssConfig::new(vec![1, 1, 2], 1, RETRY).is_none());
    assert!(TssConfig::new(vec![0, 1, 2], 1, RETRY).is_none());
    assert!(TssConfig::new(vec![1, 2, 3], 1, RETRY).is_some());
}

#[test]
fn session_debug_redacts_key_material() {
    let net = build(3, 1, 12);
    let rendered = format!("{:?}", net.sessions[&1]);
    assert!(rendered.contains("<redacted>"));
    assert!(!rendered.contains("Scalar"));
}

/// Adds `delta` to the partial responses `signer` sends, leaving every
/// other message alone.
fn shift_partial(message: TssMessage, signer: NodeId, delta: Scalar) -> TssMessage {
    match message {
        TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer: s,
            response,
        } if s == signer => TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer: s,
            response: response + delta,
        },
        other => other,
    }
}

#[test]
fn group_nonce_multiexp_is_the_sum_of_the_per_signer_nonces() {
    // R = Σ_j (D_j + ρ_j·E_j), the way every party used to compute it, is
    // the one multiexp over [E.., D..] with scalars [ρ.., 1..] that
    // `derive_round` computes now — identity and repeated commitments
    // (a hostile signer may send either) included.
    let mut rng = StdRng::seed_from_u64(0x51);
    for case in 0..24usize {
        let size = case % 6 + 1;
        let mut hiding: Vec<GroupElement> =
            (0..size).map(|_| GroupElement::random(&mut rng)).collect();
        let mut binding: Vec<GroupElement> =
            (0..size).map(|_| GroupElement::random(&mut rng)).collect();
        if case % 4 == 1 {
            hiding[0] = GroupElement::identity();
            binding[size - 1] = GroupElement::identity();
        }
        if case % 4 == 2 {
            binding[0] = hiding[0];
            hiding[size - 1] = hiding[0];
        }
        let rho: Vec<Scalar> = (0..size).map(|_| Scalar::random(&mut rng)).collect();
        let old_way = hiding
            .iter()
            .zip(&binding)
            .zip(&rho)
            .fold(GroupElement::identity(), |acc, ((&d, &e), &r)| {
                acc + (d + e * r)
            });
        let points: Vec<GroupElement> = binding.iter().chain(&hiding).copied().collect();
        let mut scalars = rho.clone();
        scalars.resize(2 * size, Scalar::one());
        assert_eq!(multiexp(&points, &scalars), old_way, "case {case}");
    }
}

#[test]
fn seeded_signature_bytes_are_pinned() {
    // The bytes the parent commit (per-signer nonces, batch-verified
    // partials) produced for this run: same nonces, same ρ, same challenge,
    // same s.
    const PINNED: &str = "021658d80dcb8b1e51a56ee71ed5e7cf1eb3e362e3ee5597c7b6da210a65a766d5\
                          8a654636680106059d7f3c54261d547e25d6a27de93b7e493f62ff089afcbb5c";
    let mut net = build(7, 2, 21);
    net.operator(
        3,
        TssInput::Sign {
            req: 1,
            message: b"pinned bytes".to_vec(),
        },
    );
    net.run();
    let signed = net.signed_outputs(1);
    assert_eq!(signed.len(), 7);
    let bytes = signed[0].1.to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PINNED);
}

#[test]
fn honest_request_costs_one_aggregate_check_and_no_job() {
    let mut net = build(13, 4, 13);
    for session in net.sessions.values_mut() {
        session.set_deferred_crypto(true);
    }
    net.operator(
        1,
        TssInput::Sign {
            req: 1,
            message: b"counted".to_vec(),
        },
    );
    // `build` warmed the generator's table and built the group key's.
    let ((), spent) = ops::measure(|| net.run());
    assert_eq!(net.signed_outputs(1).len(), 13);
    // 6 group-nonce multiexps, 13 + 5 commitment pairs, 13 table-backed
    // verifications.
    assert!(spent.total() <= 8_000, "{spent:?}");
    assert!(net.verdicts.is_empty(), "no crypto job on the honest path");
    assert!(net.sessions.values().all(|s| !s.has_queued_jobs()));
}

#[test]
fn forged_partial_costs_one_job_that_blames_exactly_the_forger() {
    let mut net = build(13, 4, 14);
    for session in net.sessions.values_mut() {
        session.set_deferred_crypto(true);
    }
    net.operator(
        1,
        TssInput::Sign {
            req: 1,
            message: b"forged".to_vec(),
        },
    );
    // Whom the coordinator solicits for the retry: everyone it has not
    // excluded.
    let mut resolicited = BTreeSet::new();
    net.run_with(|_, to, message| {
        if let TssMessage::SignRequest {
            attempt: 1,
            package: None,
            ..
        } = &message
        {
            resolicited.insert(to);
        }
        Some(shift_partial(message, 3, Scalar::one()))
    });
    // One job, for the failed aggregate of attempt 0; its verdict fails
    // the forger's claim alone; the retry's aggregate verifies, so no
    // second job.
    assert_eq!(
        net.verdicts,
        vec![vec![true, true, false, true, true]],
        "quorum 1..=5, forger 3"
    );
    let everyone_else: BTreeSet<NodeId> = (1..=13).filter(|&node| node != 3).collect();
    assert_eq!(resolicited, everyone_else);
    let signed = net.signed_outputs(1);
    assert_eq!(signed.len(), 13);
    assert!(net.group_key.verify(b"forged", &signed[0].1).is_ok());
}

#[test]
fn cancelling_errors_yield_the_honest_signature_and_no_blame() {
    // Quorum members 1 and 2 collude: s_1 + δ and s_2 − δ. Each partial
    // fails its own check, but the errors cancel in s = Σ s_k, so the
    // aggregate is the very signature an honest run produces. Per-share
    // verification exists to identify the culprits of a *failed* signature,
    // not to veto a valid one (RFC 9591 §5.3: the coordinator verifies the
    // aggregate and checks individual shares only if that fails) — there
    // is nothing to blame anybody for.
    let sign = TssInput::Sign {
        req: 1,
        message: b"cancel".to_vec(),
    };
    let mut honest = build(5, 2, 15);
    honest.operator(4, sign.clone());
    honest.run();

    let mut colluding = build(5, 2, 15);
    for session in colluding.sessions.values_mut() {
        session.set_deferred_crypto(true);
    }
    colluding.operator(4, sign);
    let delta = Scalar::from_u64(0xD157);
    let mut retried = false;
    colluding.run_with(|_, _, message| {
        if let TssMessage::SignRequest { attempt, .. } = &message {
            retried |= *attempt > 0;
        }
        Some(shift_partial(shift_partial(message, 1, delta), 2, -delta))
    });
    assert!(!retried, "completes on attempt 0, nobody excluded");
    assert!(colluding.verdicts.is_empty(), "no per-signer check ran");
    let signed = colluding.signed_outputs(1);
    assert_eq!(signed.len(), 5);
    assert_eq!(signed, honest.signed_outputs(1));
    assert!(colluding.group_key.verify(b"cancel", &signed[0].1).is_ok());
}

#[test]
fn completed_requests_are_remembered_in_a_bounded_window() {
    use dkg_wire::{WireDecode, WireEncode};

    let mut net = build(4, 1, 16);
    // Every package a node was asked to sign, by the hiding commitment it
    // advertises for that node — i.e. by the node's nonce pair.
    let mut packages: BTreeMap<(NodeId, [u8; 33]), BTreeSet<Vec<u8>>> = BTreeMap::new();
    let mut watch = |_: NodeId, to: NodeId, message: TssMessage| {
        if let TssMessage::SignRequest {
            package: Some(package),
            ..
        } = &message
        {
            let mine = package.iter().find(|entry| entry.signer == to).unwrap();
            packages
                .entry((to, mine.hiding.to_bytes()))
                .or_default()
                .insert(message.encode());
        }
        Some(message)
    };
    let message = |req: u64| format!("request {req}").into_bytes();
    for req in 1..=130u64 {
        net.operator(
            1,
            TssInput::Sign {
                req,
                message: message(req),
            },
        );
        net.run_with(&mut watch);
    }
    for session in net.sessions.values() {
        assert_eq!(session.snapshot().unwrap().results.len(), 128);
        assert_eq!(session.result(1), None);
        assert_eq!(session.result(2), None);
        assert!(session.result(3).is_some());
        assert!(session.result(130).is_some());
    }
    // The window is what a snapshot carries, and a restore keeps it.
    let bytes = net.sessions[&1].snapshot().unwrap().encode();
    let restored = SignSession::restore(dkg_tss::SignSnapshot::decode(&bytes).unwrap()).unwrap();
    assert_eq!(restored.snapshot().unwrap().encode(), bytes);
    net.sessions.insert(1, restored);

    // A forgotten request that is asked for again is signed again: fresh
    // nonces, another valid signature.
    let first = net.signed_outputs(1);
    net.operator(
        1,
        TssInput::Sign {
            req: 1,
            message: message(1),
        },
    );
    net.run_with(&mut watch);
    let both = net.signed_outputs(1);
    assert_eq!((first.len(), both.len()), (4, 8));
    let again = both[4].1;
    assert_ne!(again.nonce_commitment(), first[0].1.nonce_commitment());
    assert!(net.group_key.verify(&message(1), &again).is_ok());
    // It is lower than everything remembered, so it is not kept either.
    assert_eq!(net.sessions[&1].snapshot().unwrap().results.len(), 128);
    assert_eq!(net.sessions[&1].result(1), None);

    // 131 signings, quorum of two: no nonce pair ever answered two
    // packages, the replayed request included.
    assert_eq!(packages.len(), 131 * 2);
    assert!(packages.values().all(|seen| seen.len() == 1));
}

#[test]
fn group_key_must_be_the_matrix_s() {
    // Partials are judged against the matrix and the aggregate against the
    // key; a key that is not C_00 would make the two disagree.
    let mut rng = StdRng::seed_from_u64(17);
    let secret = Scalar::random(&mut rng);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, 1, secret);
    let matrix = CommitmentMatrix::commit(&poly);
    let session = |group_key: GroupElement| {
        let config = TssConfig::new(vec![1, 2, 3], 1, RETRY).unwrap();
        let share = poly.row(1).constant_term();
        SignSession::new(1, 9, config, share, matrix.clone(), group_key, 1)
    };
    assert!(session(matrix.public_key()).is_some());
    assert!(session(matrix.public_key() + GroupElement::generator()).is_none());
    assert!(session(GroupElement::identity()).is_none());
}
