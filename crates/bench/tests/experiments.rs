//! `EXPERIMENTS.md` is the quick output of `experiments`, pinned byte for
//! byte: every section replays exactly from its seed, so any change to a
//! figure's numbers shows up here. The cheap sections run in every test
//! pass; the whole document (Figure 7's swarms, ≈ 70 s unoptimised) is an
//! ignored test that release CI runs.

use std::path::Path;
use std::process::Command;

use ltnc_bench::{write_document, HarnessOptions, SECTIONS};

const REGENERATE: &str = "cargo run --release -p ltnc-bench --bin experiments > EXPERIMENTS.md";

fn committed() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_cheap_sections_appear_verbatim_in_experiments_md() {
    let committed = committed();
    let options = HarnessOptions::default();
    for section in SECTIONS.iter().filter(|s| ["2", "8", "stats", "ablations"].contains(&s.flag)) {
        let rendered = section.markdown(&options);
        assert!(
            committed.contains(&rendered),
            "section {:?} differs from EXPERIMENTS.md; it now reads:\n{rendered}\n\
             If the change is intended, regenerate the file: {REGENERATE}",
            section.flag
        );
    }
}

#[test]
#[ignore = "runs every Figure 7 swarm: ≈ 8 s in release, over a minute in debug"]
fn experiments_md_is_the_quick_output_byte_for_byte() {
    let mut rendered = Vec::new();
    write_document(&HarnessOptions::default(), &SECTIONS, &mut rendered).unwrap();
    let rendered = String::from_utf8(rendered).unwrap();
    let committed = committed();
    if let Some((line, (now, was))) =
        rendered.lines().zip(committed.lines()).enumerate().find(|(_, (a, b))| a != b)
    {
        panic!(
            "EXPERIMENTS.md line {} reads {was:?}, the quick output {now:?}. \
             If the change is intended, regenerate the file: {REGENERATE}",
            line + 1
        );
    }
    assert!(
        rendered == committed,
        "EXPERIMENTS.md and the quick output differ in length: {REGENERATE}"
    );
}

#[test]
fn a_rejected_command_line_prints_the_usage_and_exits_2() {
    for line in [&["--ful"][..], &["--runs", "x"], &["--seed", "-3"], &["--figure", "7b"]] {
        let run = Command::new(env!("CARGO_BIN_EXE_experiments")).args(line).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{line:?}");
        assert!(run.stdout.is_empty(), "{line:?} must not start a section");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(ltnc_bench::USAGE), "{line:?}: {stderr}");
    }
}
