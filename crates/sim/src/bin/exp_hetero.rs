//! Experiment E13 (extension): the paper's open questions from Sec. 5 —
//! *mixed* configurations. "Although unreliable channels model reliable
//! channels … we do not have results when, e.g., some nodes poll and others
//! act on messages." This binary answers those questions for the paper's
//! own gadgets by exhaustive model checking.

use routelab_core::dims::{MessagePolicy, NeighborScope};
use routelab_core::hetero::{HeteroModel, NodeModel};
use routelab_core::model::CommModel;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{analyze_hetero, Verdict};
use routelab_sim::cli;
use routelab_sim::table::Table;
use routelab_spp::{gadgets, Channel, SppInstance};

const POLL: NodeModel = NodeModel { scope: NeighborScope::Every, messages: MessagePolicy::All };
const EVENT: NodeModel = NodeModel { scope: NeighborScope::One, messages: MessagePolicy::One };

fn verdict_str(v: &Verdict) -> String {
    match v {
        Verdict::CanOscillate { states, scc_size } => {
            format!("OSCILLATES (SCC of {scc_size} among {states} states)")
        }
        Verdict::AlwaysConverges { states } => format!("always converges ({states} states)"),
        Verdict::NoOscillationWithinBound { states } => {
            format!("no oscillation within bound ({states} states)")
        }
    }
}

fn analyze_row(
    table: &mut Table,
    label: &str,
    inst: &SppInstance,
    model: &HeteroModel,
    cfg: &ExploreConfig,
) {
    let v = analyze_hetero(inst, model, cfg);
    table.row(vec![label.to_string(), verdict_str(&v)]);
}

fn main() {
    let opts = cli::parse_common("exp-hetero");
    if !opts.rest.is_empty() {
        eprintln!("usage: exp-hetero [--threads N] [--quiet] [--obs] [--no-reduce]");
        opts.exit(2);
    }
    let cfg = ExploreConfig {
        channel_cap: 3,
        max_states: 400_000,
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };

    println!("== Mixed node behavior on DISAGREE (Fig. 5) ==");
    println!("(baseline: pure polling always converges; pure event-driven oscillates)\n");
    let inst = gadgets::disagree();
    let x = inst.node_by_name("x").expect("x");
    let y = inst.node_by_name("y").expect("y");
    let rea: CommModel = "REA".parse().expect("model");
    let r1o: CommModel = "R1O".parse().expect("model");

    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    analyze_row(
        &mut table,
        "all nodes poll (REA)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), rea),
        &cfg,
    );
    analyze_row(
        &mut table,
        "all nodes event-driven (R1O)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), r1o),
        &cfg,
    );
    let mut h = HeteroModel::uniform(inst.node_count(), r1o);
    h.set_node(x, POLL);
    analyze_row(&mut table, "x polls, y event-driven", &inst, &h, &cfg);
    let mut h = HeteroModel::uniform(inst.node_count(), r1o);
    h.set_node(x, POLL);
    h.set_node(y, POLL);
    analyze_row(&mut table, "x and y poll, d event-driven", &inst, &h, &cfg);
    println!("{table}");

    println!("== Mixed channel reliability on DISAGREE under polling (REA) ==\n");
    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    let mut h = HeteroModel::uniform(inst.node_count(), rea);
    h.set_lossy(Channel::new(x, y));
    analyze_row(&mut table, "lossy x->y only", &inst, &h, &cfg);
    let mut h = HeteroModel::uniform(inst.node_count(), rea);
    h.set_lossy(Channel::new(x, y));
    h.set_lossy(Channel::new(y, x));
    analyze_row(&mut table, "lossy x<->y", &inst, &h, &cfg);
    analyze_row(
        &mut table,
        "all channels lossy (UEA)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), "UEA".parse().expect("model")),
        &cfg,
    );
    println!("{table}");

    println!("== Mixed node behavior on Fig. 6 ==\n");
    let inst = gadgets::fig6();
    let u = inst.node_by_name("u").expect("u");
    let v = inst.node_by_name("v").expect("v");
    let reo: CommModel = "REO".parse().expect("model");
    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    let mut h = HeteroModel::uniform(inst.node_count(), reo);
    h.set_node(u, POLL);
    analyze_row(&mut table, "u polls, rest REO", &inst, &h, &cfg);
    let mut h = HeteroModel::uniform(inst.node_count(), reo);
    h.set_node(u, POLL);
    h.set_node(v, POLL);
    analyze_row(&mut table, "u and v poll, rest REO", &inst, &h, &cfg);
    let mut h = HeteroModel::uniform(inst.node_count(), "REA".parse().expect("model"));
    h.set_node(u, EVENT);
    analyze_row(&mut table, "u event-driven, rest REA", &inst, &h, &cfg);
    println!("{table}");
    opts.finish();
}
