//! Explore any query class's miss ratio curve from the command line.
//!
//! ```text
//! cargo run --release --example mrc_explorer -- tpcw BestSeller
//! cargo run --release --example mrc_explorer -- rubis SearchItemsByRegion 200
//! cargo run --release --example mrc_explorer -- tpcw           # list classes
//! ```

use odlb::mrc::MattsonTracker;
use odlb::sim::SimRng;
use odlb::workload::rubis::{rubis_workload, RubisConfig};
use odlb::workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb::workload::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: WorkloadSpec = match args.first().map(String::as_str) {
        Some("tpcw") | None => tpcw_workload(TpcwConfig::default()),
        Some("tpcw-noindex") => tpcw_workload(TpcwConfig {
            odate_index: false,
            ..Default::default()
        }),
        Some("rubis") => rubis_workload(RubisConfig::default()),
        Some(other) => {
            eprintln!("unknown workload '{other}'; use tpcw | tpcw-noindex | rubis");
            std::process::exit(2);
        }
    };

    let Some(class_name) = args.get(1) else {
        println!("classes of {}:", workload.name);
        for (i, c) in workload.classes.iter().enumerate() {
            println!(
                "  #{i:<3} {:<24} weight {:>5.1}  ~{:>5} pages/query{}",
                c.name,
                c.weight,
                c.pattern.pages_per_query(),
                if c.is_write { "  [write]" } else { "" }
            );
        }
        return;
    };
    let Some(idx) = workload.class_index_by_name(class_name) else {
        eprintln!("no class named '{class_name}' in {}", workload.name);
        std::process::exit(2);
    };
    let queries: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);

    let mut rng = SimRng::new(0xC0FFEE);
    let mut tracker = MattsonTracker::new(16_384);
    for _ in 0..queries {
        for page in workload.query_of_class(idx, &mut rng).pages {
            tracker.access(page);
        }
    }
    let curve = tracker.curve();
    let params = curve.params(0.05);
    println!(
        "MRC of {}::{class_name} over {queries} executions ({} references)",
        workload.name,
        curve.total_accesses()
    );
    println!(
        "  total memory needed      {} pages (ideal miss ratio {:.4})",
        params.total_memory_needed, params.ideal_miss_ratio
    );
    println!(
        "  acceptable memory needed {} pages (acceptable miss ratio {:.4})",
        params.acceptable_memory_needed, params.acceptable_miss_ratio
    );
    println!("  pages    miss-ratio");
    for (size, mr) in curve.sampled(25) {
        println!(
            "  {size:>6}   {mr:.4} |{}",
            "#".repeat((mr * 50.0).round() as usize)
        );
    }
}
