//! Engine semantics under composed protocols: port identity, mixed
//! unicast/broadcast traffic, halting, observers, and fault statistics.

use kw_graph::{generators, CsrGraph, NodeId};
use kw_sim::wire::{BitReader, BitWriter, WireEncode};
use kw_sim::{ChaosPlan, Ctx, Engine, EngineConfig, Protocol, Status};

#[derive(Clone, Debug, PartialEq)]
struct Tagged {
    from: u32,
    payload: u64,
}

impl WireEncode for Tagged {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(u64::from(self.from));
        w.write_gamma(self.payload);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Tagged {
            from: u32::try_from(r.read_gamma()?).ok()?,
            payload: r.read_gamma()?,
        })
    }
}

/// Round 0: every node broadcasts its id. Round 1: checks that the port a
/// message arrived on identifies exactly the neighbor the engine claims
/// (ports are ascending neighbor order), then unicasts its id back on each
/// port. Round 2: verifies unicasts arrived from the right nodes.
struct PortAudit {
    me: u32,
    neighbors: Vec<u32>, // filled from round-0 messages, ordered by port
    ok: bool,
}

impl Protocol for PortAudit {
    type Msg = Tagged;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged>) -> Status {
        match ctx.round() {
            0 => {
                ctx.broadcast(Tagged {
                    from: self.me,
                    payload: 0,
                });
                Status::Running
            }
            1 => {
                let mut by_port: Vec<(u32, u32)> =
                    ctx.inbox().iter().map(|(port, m)| (port, m.from)).collect();
                by_port.sort_unstable();
                // Exactly one message per port, ports contiguous from 0.
                self.ok = by_port.len() == ctx.degree() as usize
                    && by_port.iter().enumerate().all(|(i, &(p, _))| p == i as u32);
                // Ports must order neighbors by ascending id (CSR order).
                let ids: Vec<u32> = by_port.iter().map(|&(_, f)| f).collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                self.ok &= ids == sorted;
                self.neighbors = ids;
                for port in 0..ctx.degree() {
                    ctx.send(
                        port,
                        Tagged {
                            from: self.me,
                            payload: u64::from(port) + 1,
                        },
                    );
                }
                Status::Running
            }
            _ => {
                // Each unicast must arrive from the neighbor on that port,
                // carrying the sender-side port number it was sent on.
                for (port, msg) in ctx.inbox() {
                    self.ok &= self.neighbors.get(port as usize) == Some(&msg.from);
                    self.ok &= msg.payload >= 1;
                }
                self.ok &= ctx.inbox().len() == ctx.degree() as usize;
                Status::Halted
            }
        }
    }

    fn finish(self) -> bool {
        self.ok
    }
}

fn run_audit(g: &CsrGraph, threads: usize) -> Vec<bool> {
    Engine::new(
        g,
        EngineConfig {
            threads,
            ..Default::default()
        },
        |info| PortAudit {
            me: info.id.raw(),
            neighbors: Vec::new(),
            ok: true,
        },
    )
    .run()
    .expect("audit protocol terminates")
    .outputs
}

#[test]
fn port_numbering_matches_csr_order() {
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(9);
    for g in [
        generators::complete(6),
        generators::petersen(),
        generators::grid(4, 4),
        generators::gnp(60, 0.15, &mut rng),
    ] {
        for threads in [1usize, 4] {
            assert!(
                run_audit(&g, threads).into_iter().all(|ok| ok),
                "port audit failed (threads={threads}) on {g:?}"
            );
        }
    }
}

/// Nodes halt at different times; late messages to halted nodes must not
/// resurrect them, and early halting must not stall others.
struct StaggeredHalt {
    me: u32,
    rounds_seen: u32,
}

impl Protocol for StaggeredHalt {
    type Msg = Tagged;
    type Output = u32;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged>) -> Status {
        self.rounds_seen += 1;
        ctx.broadcast(Tagged {
            from: self.me,
            payload: 1,
        });
        // Node v halts after v+1 rounds.
        if self.rounds_seen > self.me {
            Status::Halted
        } else {
            Status::Running
        }
    }

    fn finish(self) -> u32 {
        self.rounds_seen
    }
}

#[test]
fn staggered_halting() {
    let g = generators::complete(5);
    let report = Engine::new(&g, EngineConfig::default(), |info| StaggeredHalt {
        me: info.id.raw(),
        rounds_seen: 0,
    })
    .run()
    .unwrap();
    // Node v executes exactly v+1 rounds.
    assert_eq!(report.outputs, vec![1, 2, 3, 4, 5]);
    // Engine runs until the slowest node halts.
    assert_eq!(report.metrics.rounds, 5);
}

/// Counts deliveries under a fault plan; the empirical loss rate must be
/// near nominal and identical across thread counts.
struct DeliveryCounter {
    received: u64,
    rounds_left: u32,
}

impl Protocol for DeliveryCounter {
    type Msg = Tagged;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged>) -> Status {
        self.received += ctx.inbox().len() as u64;
        if self.rounds_left == 0 {
            return Status::Halted;
        }
        self.rounds_left -= 1;
        ctx.broadcast(Tagged {
            from: 0,
            payload: 7,
        });
        Status::Running
    }

    fn finish(self) -> u64 {
        self.received
    }
}

#[test]
fn fault_plan_loss_rate_at_engine_level() {
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(3);
    let g = generators::gnp(120, 0.1, &mut rng);
    let rounds = 20u32;
    let run = |drop: f64, threads: usize| -> u64 {
        Engine::new(
            &g,
            EngineConfig {
                threads,
                faults: ChaosPlan::reliable().with_drop(drop).with_fault_seed(77),
                ..Default::default()
            },
            |_| DeliveryCounter {
                received: 0,
                rounds_left: rounds,
            },
        )
        .run()
        .unwrap()
        .outputs
        .iter()
        .sum()
    };
    let lossless = run(0.0, 1);
    let lossy = run(0.25, 1);
    let rate = 1.0 - lossy as f64 / lossless as f64;
    assert!((rate - 0.25).abs() < 0.02, "observed loss rate {rate}");
    assert_eq!(
        lossy,
        run(0.25, 4),
        "loss pattern must not depend on threads"
    );
}

#[test]
fn observer_and_outputs_agree() {
    // The observer's final snapshot must match the finished outputs.
    let g = generators::cycle(7);
    let mut last_seen = Vec::new();
    let mut obs = |_round: usize, nodes: &[StaggeredHalt]| {
        last_seen = nodes.iter().map(|n| n.rounds_seen).collect();
    };
    let report = Engine::new(&g, EngineConfig::default(), |info| StaggeredHalt {
        me: info.id.raw(),
        rounds_seen: 0,
    })
    .run_with_observer(&mut obs)
    .unwrap();
    assert_eq!(last_seen, report.outputs);
}

#[test]
fn node_info_reports_graph_facts() {
    let g = generators::star(6);
    let mut degrees = Vec::new();
    let _ = Engine::new(&g, EngineConfig::default(), |info| {
        degrees.push((info.id, info.degree));
        DeliveryCounter {
            received: 0,
            rounds_left: 0,
        }
    });
    assert_eq!(degrees.len(), 6);
    assert_eq!(degrees[0], (NodeId::new(0), 5));
    assert!(degrees[1..].iter().all(|&(_, d)| d == 1));
}
