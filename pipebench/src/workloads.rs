//! The three workloads: their seeded inputs, their set-up and one
//! operation each.  Every operation of a workload does the same kind and
//! size of work; only the seed changes from one to the next, so a run's
//! median does not jump between the costs of different input shapes.

use crate::reference::{check_advice, check_rounds, check_tree, reference_mst};
use crate::trace::Tracer;
use lma_advice::{
    Advice, AdvisingScheme, ConstantScheme, OneRoundScheme, SchemeEvaluation, TrivialScheme,
};
use lma_bench::WorkloadCatalog;
use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_graph::WeightedGraph;
use lma_mst::{verify_upward_outputs, RootedTree};
use lma_serve::{Client, RequestBody, ResponseBody, RunSpec, ServerConfig, TcpServer};
use lma_sim::{RunStats, Sim};
use std::time::Instant;

/// Every workload draws its graphs from this family.
pub const FAMILY: Family = Family::SparseRandom;
/// Nodes per `paper-cold` graph.
pub const PAPER_N: usize = 2048;
/// Nodes per `decode-hot` graph.
pub const DECODE_N: usize = 2048;
/// Graphs prepared by `decode-hot` set-up; operation `i` decodes graph `i mod 4`.
pub const DECODE_GRAPHS: u64 = 4;
/// Nodes per `serve-hot` identity.
pub const SERVE_N: usize = 512;
/// Identities warmed by `serve-hot` set-up; burst `i` asks for identity `i mod 4`.
pub const SERVE_IDENTITIES: u64 = 4;
/// Requests per `serve-hot` burst: the server's default `max_batch`, so a
/// whole burst fills one batch and no burst waits on the coalescing timer.
pub const BURST: usize = 8;
/// The catalog workload `serve-hot` requests.
pub const SERVE_WORKLOAD: &str = "scheme-constant";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperCold,
    DecodeHot,
    ServeHot,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperCold, Kind::DecodeHot, Kind::ServeHot];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper-cold",
            Kind::DecodeHot => "decode-hot",
            Kind::ServeHot => "serve-hot",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the workload's prepared state; all of it counts as set-up.
    pub fn setup(self, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        tr.at(self.name(), None);
        Ok(match self {
            Kind::PaperCold => Box::new(PaperCold::setup(seed, tr)?),
            Kind::DecodeHot => Box::new(DecodeHot::setup(seed, tr)?),
            Kind::ServeHot => Box::new(ServeHot::setup(seed, tr)?),
        })
    }

    fn salt(self) -> u64 {
        match self {
            Kind::PaperCold => 1,
            Kind::DecodeHot => 2,
            Kind::ServeHot => 3,
        }
    }
}

pub trait Workload {
    /// Runs operation `i` of the seeded sequence and checks its outputs.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Records end-of-run totals of layers that keep their own counters.
    fn record_totals(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Stops whatever the set-up started.
    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The graph seed of item `i` of a workload's sequence under `seed`.
fn item_seed(kind: Kind, seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(kind.salt() ^ splitmix64(i)))
}

fn generate(n: usize, seed: u64, tr: &mut Tracer) -> WeightedGraph {
    tr.span("graph.generate", |_| {
        FAMILY.instantiate(n, WeightStrategy::DistinctRandom { seed }, seed)
    })
}

fn reference(g: &WeightedGraph, tr: &mut Tracer) -> Result<Vec<usize>, String> {
    tr.span("check.reference_mst", |_| reference_mst(g))
}

/// A scheme with the span and count names the trace files it under.
pub struct Scheme {
    pub key: &'static str,
    pub advise: &'static str,
    pub decode: &'static str,
    pub max_bits: &'static str,
    pub avg_bits: &'static str,
    pub rounds: &'static str,
    pub messages: &'static str,
    pub message_bits: &'static str,
    imp: Box<dyn AdvisingScheme>,
}

macro_rules! scheme {
    ($key:literal, $imp:expr) => {
        Scheme {
            key: $key,
            advise: concat!("advice.advise.", $key),
            decode: concat!("advice.decode.", $key),
            max_bits: concat!("advice.max_bits.", $key),
            avg_bits: concat!("advice.avg_bits.", $key),
            rounds: concat!("sim.rounds.", $key),
            messages: concat!("sim.messages.", $key),
            message_bits: concat!("sim.message_bits.", $key),
            imp: Box::new($imp),
        }
    };
}

/// The paper's three schemes: §1 trivial, Theorem 2, Theorem 3.
pub fn schemes() -> [Scheme; 3] {
    [
        scheme!("trivial", TrivialScheme::default()),
        scheme!("one_round", OneRoundScheme::default()),
        scheme!("constant", ConstantScheme::default()),
    ]
}

impl Scheme {
    /// False for a zero-round scheme, whose decode sends no message.
    pub fn sends_messages(&self, n: usize) -> bool {
        self.imp.claimed_rounds(n) != Some(0)
    }

    fn advise(&self, g: &WeightedGraph, tr: &mut Tracer) -> Result<Advice, String> {
        let advice = tr
            .span(self.advise, |_| self.imp.advise(g))
            .map_err(|e| format!("{}: {e}", self.imp.name()))?;
        tr.span("check.advice", |_| {
            check_advice(self.imp.as_ref(), g.node_count(), &advice)
        })
        .map_err(|e| format!("{}: {e}", self.imp.name()))?;
        let stats = advice.stats();
        tr.count(self.max_bits, stats.max_bits as f64);
        tr.count(self.avg_bits, stats.avg_bits);
        Ok(advice)
    }

    /// Decodes on the default simulation, verifies with the program's
    /// verifier, then checks the tree and round count independently;
    /// returns the run's statistics and the checked tree.
    fn decode(
        &self,
        g: &WeightedGraph,
        advice: &Advice,
        reference: &[usize],
        tr: &mut Tracer,
    ) -> Result<(RunStats, RootedTree), String> {
        let n = g.node_count();
        let out = tr
            .span(self.decode, |_| self.imp.decode(&Sim::on(g), advice))
            .map_err(|e| format!("{}: {e}", self.imp.name()))?;
        let tree = tr
            .span("mst.verify", |_| verify_upward_outputs(g, &out.outputs))
            .map_err(|e| format!("{}: verifier rejected the outputs: {e}", self.imp.name()))?;
        tr.span("check.tree", |_| {
            check_tree(&tree, reference)?;
            check_rounds(self.imp.as_ref(), n, out.stats.rounds)
        })
        .map_err(|e| format!("{}: {e}", self.imp.name()))?;
        let stats = out.stats;
        tr.count(self.rounds, stats.rounds as f64);
        tr.count(self.messages, stats.total_messages as f64);
        tr.count(self.message_bits, stats.total_bits as f64);
        if self.key == "constant" {
            // Programs that do not opt into sparse frontiers step every node
            // in every round and leave the per-round frontier series empty.
            let active: u64 = if stats.per_round_active_nodes.is_empty() {
                (n * stats.rounds) as u64
            } else {
                stats.per_round_active_nodes.iter().sum()
            };
            tr.count("sim.active_node_rounds", active as f64);
            tr.count("sim.node_rounds", (n * stats.rounds) as f64);
        }
        Ok((stats, tree))
    }
}

/// One operation: a fresh graph, then advise → decode → verify for every
/// scheme.  Nothing is cached between operations.
struct PaperCold {
    seed: u64,
    schemes: [Scheme; 3],
}

impl PaperCold {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let w = Self {
            seed,
            schemes: schemes(),
        };
        // Warm-up on a graph outside the operation sequence.
        w.pipeline(item_seed(Kind::PaperCold, !seed, 0), tr)?;
        Ok(w)
    }

    fn pipeline(&self, graph_seed: u64, tr: &mut Tracer) -> Result<(), String> {
        let g = generate(PAPER_N, graph_seed, tr);
        let reference = reference(&g, tr)?;
        for s in &self.schemes {
            let advice = s.advise(&g, tr)?;
            s.decode(&g, &advice, &reference, tr)?;
        }
        Ok(())
    }
}

impl Workload for PaperCold {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.pipeline(item_seed(Kind::PaperCold, self.seed, i), tr)
    }
}

struct Prepared {
    graph: WeightedGraph,
    advice: Advice,
    reference: Vec<usize>,
}

/// One operation: a Theorem 3 decode of a prepared graph plus its checks;
/// the oracle ran in set-up.
struct DecodeHot {
    scheme: Scheme,
    prepared: Vec<Prepared>,
}

impl DecodeHot {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let [_, _, scheme] = schemes();
        let mut prepared = Vec::new();
        for k in 0..DECODE_GRAPHS {
            let graph = generate(DECODE_N, item_seed(Kind::DecodeHot, seed, k), tr);
            let reference = reference(&graph, tr)?;
            let advice = scheme.advise(&graph, tr)?;
            // Warm-up decode, checked like every operation.
            scheme.decode(&graph, &advice, &reference, tr)?;
            prepared.push(Prepared {
                graph,
                advice,
                reference,
            });
        }
        Ok(Self { scheme, prepared })
    }
}

impl Workload for DecodeHot {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let p = &self.prepared[(i % DECODE_GRAPHS) as usize];
        self.scheme
            .decode(&p.graph, &p.advice, &p.reference, tr)
            .map(drop)
    }
}

/// What the server must answer for one identity, computed off the serving
/// path in set-up.
struct Expected {
    spec: RunSpec,
    digest: String,
    rounds: u64,
    messages: u64,
}

/// One operation: a burst of identical `scheme-constant` requests over
/// loopback TCP to a server whose caches set-up warmed.
struct ServeHot {
    server: TcpServer,
    client: Client,
    expected: Vec<Expected>,
}

impl ServeHot {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let config = ServerConfig::default();
        if config.max_batch != BURST {
            return Err(format!(
                "server max_batch is {}, the burst is {BURST}",
                config.max_batch
            ));
        }
        let catalog = WorkloadCatalog::new();
        let workload = catalog
            .resolve(SERVE_WORKLOAD)
            .ok_or_else(|| format!("catalog has no workload {SERVE_WORKLOAD}"))?;
        let [_, _, scheme] = schemes();
        let mut expected = Vec::new();
        for k in 0..SERVE_IDENTITIES {
            let seed = item_seed(Kind::ServeHot, seed, k);
            let graph = generate(SERVE_N, seed, tr);
            let reference = reference(&graph, tr)?;
            // The digest the server must give: the scheme run directly, its
            // tree checked against the reference MST, folded the way the
            // catalog folds a run.  The identity run solo through the
            // catalog workload must give the same digest.
            let advice = scheme.advise(&graph, tr)?;
            let (run, tree) = scheme.decode(&graph, &advice, &reference, tr)?;
            let checked = SchemeEvaluation {
                advice: advice.stats(),
                run,
                tree,
            };
            let mut want = catalog.fold_header(SERVE_WORKLOAD, FAMILY.name(), SERVE_N, seed);
            checked.fold_into(&mut want);
            let digest = want.finish();
            let mut solo = catalog.fold_header(SERVE_WORKLOAD, FAMILY.name(), SERVE_N, seed);
            tr.span("serve.solo_run", |_| {
                workload.run_fold(&workload.tune(Sim::on(&graph)), &mut solo)
            })
            .map_err(|e| format!("solo {SERVE_WORKLOAD} run: {e}"))?;
            if solo.finish() != digest {
                return Err(format!(
                    "identity {k}: the solo catalog run's digest differs from the checked tree's"
                ));
            }
            expected.push(Expected {
                spec: RunSpec {
                    workload: SERVE_WORKLOAD.to_string(),
                    family: FAMILY.name().to_string(),
                    n: SERVE_N,
                    seed,
                    backing: "inline".to_string(),
                    threads: 0,
                    round_limit: None,
                    deadline_ms: None,
                },
                digest: digest.to_string(),
                rounds: checked.run.rounds as u64,
                messages: checked.run.total_messages,
            });
        }
        let server = TcpServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut w = Self {
            server,
            client,
            expected,
        };
        // One burst per identity fills the server's graph and oracle caches.
        for k in 0..SERVE_IDENTITIES {
            w.burst(k, tr)?;
        }
        Ok(w)
    }

    fn burst(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let e = &self.expected[(i % SERVE_IDENTITIES) as usize];
        tr.span("serve.burst", |tr| {
            let sent = Instant::now();
            let mut ids = Vec::with_capacity(BURST);
            for _ in 0..BURST {
                let id = self
                    .client
                    .send(RequestBody::Run(e.spec.clone()))
                    .map_err(|err| format!("send: {err}"))?;
                ids.push(id);
            }
            // Every response is read even after a failed check, so that a
            // failed burst leaves nothing in the pipe for the next one.
            let mut failure = None;
            for _ in 0..BURST {
                let response = self.client.recv().map_err(|err| format!("recv: {err}"))?;
                let client_ns = sent.elapsed().as_nanos() as f64;
                let Some(at) = ids.iter().position(|&id| id == response.id) else {
                    return Err(format!("response to unknown request {}", response.id));
                };
                ids.swap_remove(at);
                let report = match response.body {
                    ResponseBody::Done(report) => report,
                    other => {
                        failure.get_or_insert(format!("request {} failed: {other:?}", response.id));
                        continue;
                    }
                };
                if (report.digest.as_str(), report.rounds, report.messages)
                    != (e.digest.as_str(), e.rounds, e.messages)
                {
                    failure.get_or_insert(format!(
                        "seed {}: served digest/rounds/messages differ from set-up's checked run",
                        e.spec.seed
                    ));
                }
                tr.count("serve.queue_ns", report.queue_ns as f64);
                tr.count("serve.run_ns", report.run_ns as f64);
                tr.count("serve.client_ns", client_ns);
                tr.count("serve.lanes", f64::from(report.lanes));
            }
            failure.map_or(Ok(()), Err)
        })
    }
}

impl Workload for ServeHot {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.burst(i, tr)
    }

    fn record_totals(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let stats = match self.client.call(RequestBody::Stats) {
            Ok(r) => match r.body {
                ResponseBody::Stats(stats) => stats,
                other => return Err(format!("stats request answered {other:?}")),
            },
            Err(e) => return Err(format!("stats request: {e}")),
        };
        tr.count("serve.graph_hits", stats.graph_hits as f64);
        tr.count("serve.graph_misses", stats.graph_misses as f64);
        tr.count("serve.oracle_hits", stats.oracle_hits as f64);
        tr.count("serve.oracle_misses", stats.oracle_misses as f64);
        Ok(())
    }

    fn close(mut self: Box<Self>) -> Result<(), String> {
        self.client
            .send(RequestBody::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        loop {
            let response = self
                .client
                .recv()
                .map_err(|e| format!("waiting for Bye: {e}"))?;
            if matches!(response.body, ResponseBody::Bye(_)) {
                break;
            }
        }
        self.server.join();
        Ok(())
    }
}
