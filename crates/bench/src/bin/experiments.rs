//! Regenerates the LTNC paper's evaluation as Markdown; the sections and
//! flags are listed in the `ltnc-bench` crate docs. The quick output of every
//! section is `EXPERIMENTS.md`:
//!
//! ```sh
//! cargo run --release -p ltnc-bench --bin experiments > EXPERIMENTS.md
//! cargo run --release -p ltnc-bench --bin experiments -- --figure 7a --full
//! ```

use std::io;

use ltnc_bench::{write_document, HarnessOptions};

fn main() -> io::Result<()> {
    let (options, sections) = HarnessOptions::from_env();
    write_document(&options, &sections, &mut io::stdout().lock())
}
