//! Regenerates the paper's **Table 3**: TRANSLATOR vs Magnum-Opus-style
//! significant rules vs ReReMi-style redescriptions vs KRIMP, all scored as
//! translation tables. Writes `target/experiments/table3.tsv`.

#![forbid(unsafe_code)]

use twoview_data::corpus::PaperDataset;
use twoview_eval::comparison::{render_table3, table3, TABLE3_DEFAULT};
use twoview_eval::report::write_artifact;

fn main() {
    let opts = twoview_eval::opts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let datasets: Vec<PaperDataset> = opts.datasets.unwrap_or_else(|| TABLE3_DEFAULT.to_vec());
    let blocks = table3(&datasets, &opts.scale);
    let table = render_table3(&blocks);
    println!("Table 3: comparison with Magnum-Opus-style, ReReMi-style and KRIMP baselines");
    println!(
        "(* reimplementations of the published methods compared in the paper's section 6.3)\n"
    );
    print!("{}", table.render());
    match write_artifact("table3.tsv", &table.to_tsv()) {
        Ok(p) => eprintln!("\nwrote {}", p.display()),
        Err(e) => eprintln!("\nwarning: could not write artifact: {e}"),
    }
}
