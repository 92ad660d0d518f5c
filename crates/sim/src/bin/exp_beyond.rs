//! Experiment E14 (extension): resolve blank Figure 3/4 cells by combining
//! exhaustive verdicts on DISAGREE with the Sec. 3.4 closure.
//!
//! Prints the text report and writes `results/exp-beyond.json` (schema in
//! EXPERIMENTS.md).

use std::time::Instant;

use routelab_core::closure::derive_bounds;
use routelab_core::edges::foundational_facts;
use routelab_core::model::CommModel;
use routelab_core::paper::{compare, figure3, figure4, CellVerdict};
use routelab_explore::graph::ExploreConfig;
use routelab_sim::beyond::{extended_bounds, newly_determined, try_disagree_separations};
use routelab_sim::cli;
use routelab_sim::report::{write_json, Json};
use routelab_sim::table::Table;

fn main() {
    let opts = cli::parse_common("exp-beyond");
    if !opts.rest.is_empty() {
        eprintln!("usage: exp-beyond [--threads N] [--quiet] [--obs] [--no-reduce]");
        opts.exit(2);
    }
    let t0 = Instant::now();
    let cfg = ExploreConfig {
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };
    opts.progress("harvesting exhaustive verdicts for all 24 models on DISAGREE…");
    let mut harvest_span = routelab_obs::span("beyond.harvest");
    let seps = match try_disagree_separations(&cfg) {
        Ok(seps) => seps,
        Err(e) => {
            eprintln!("exp-beyond: {e}");
            opts.exit(2);
        }
    };
    harvest_span.field("separations", seps.len());
    drop(harvest_span);
    println!("{} empirical separations found\n", seps.len());

    let base = derive_bounds(&foundational_facts());
    let (facts, extended) = extended_bounds(&seps);
    println!(
        "facts: {} positives, {} negatives ({} empirical)",
        facts.positives.len(),
        facts.negatives.len(),
        facts.negatives.len() - foundational_facts().negatives.len(),
    );
    println!("newly determined or tightened cells: {}\n", newly_determined(&base, &extended));

    println!("extended Figure 4 (new -1 entries fill formerly blank cells):\n");
    println!("{}", extended.render(&CommModel::all_unreliable()));

    // Show exactly which formerly-blank published cells are now decided.
    let mut tightened: Vec<(CommModel, CommModel, String, String)> = Vec::new();
    let mut table =
        Table::new(vec!["realized".into(), "realizer".into(), "published".into(), "now".into()]);
    for paper_table in [figure3(), figure4()] {
        for &a in &paper_table.rows {
            for &b in &paper_table.cols {
                let Some(published) = paper_table.get(a, b) else { continue };
                let now = extended.get(a, b);
                if now.refines(published) && now != published {
                    tightened.push((a, b, published.token(), now.token()));
                    table.row(vec![a.to_string(), b.to_string(), published.token(), now.token()]);
                }
            }
        }
    }
    println!("published cells tightened by the extension ({}):\n", table.len());
    println!("{table}");

    let mut ok = true;
    for t in [figure3(), figure4()] {
        let cmp = compare(&extended, &t);
        ok &= cmp.count(CellVerdict::Conflict) == 0 && cmp.count(CellVerdict::Looser) == 0;
    }
    println!(
        "consistency with the published tables: {}",
        if ok { "OK (extension only tightens)" } else { "CONFLICT" }
    );
    println!("\ncaveat: for O/F-policy unreliable models the convergence verdicts use the");
    println!("strict reading of Definition 2.4 drop fairness; for A-policy models (U1A,");
    println!("UMA, UEA) the readings coincide, so those -1 entries are unconditional.");

    let json = Json::obj([
        ("experiment", Json::str("beyond")),
        ("wall_ms", Json::Num(t0.elapsed().as_secs_f64() * 1e3)),
        ("separations", Json::int(seps.len())),
        (
            "facts",
            Json::obj([
                ("positives", Json::int(facts.positives.len())),
                ("negatives", Json::int(facts.negatives.len())),
                (
                    "empirical_negatives",
                    Json::int(facts.negatives.len() - foundational_facts().negatives.len()),
                ),
            ]),
        ),
        ("newly_determined", Json::int(newly_determined(&base, &extended))),
        (
            "tightened_published_cells",
            Json::Arr(
                tightened
                    .iter()
                    .map(|(a, b, published, now)| {
                        Json::obj([
                            ("realized", Json::str(a.to_string())),
                            ("realizer", Json::str(b.to_string())),
                            ("published", Json::str(published.clone())),
                            ("now", Json::str(now.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("consistent_with_published", Json::Bool(ok)),
    ]);
    match write_json("exp-beyond", &json) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("error writing JSON results: {e}");
            opts.exit(2);
        }
    }
    opts.exit(if ok { 0 } else { 1 });
}
