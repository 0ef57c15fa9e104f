//! Keeps `docs/OBSERVABILITY.md` honest: the family tables are parsed
//! out of the markdown and compared with the field names the counter
//! families actually expose. A field added, renamed or dropped on one
//! side without the other fails this test.

use ltnc_metrics::{CounterFamily, Field, ReactorSnapshot, ServeCounters, WireCounters};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");
    std::fs::read_to_string(path).expect("docs/OBSERVABILITY.md must exist")
}

/// Splits a markdown table row into trimmed cells.
fn cells(line: &str) -> Vec<&str> {
    line.trim().trim_start_matches('|').trim_end_matches('|').split('|').map(str::trim).collect()
}

/// The backticked names in one table cell, in order.
fn names(cell: &str) -> Vec<String> {
    cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// The rows of the table whose header row starts with `header`, as cells.
fn table<'a>(doc: &'a str, header: &str) -> Vec<Vec<&'a str>> {
    let mut lines = doc.lines().skip_while(|line| !line.starts_with(header)).skip(2);
    let mut rows = Vec::new();
    for line in lines.by_ref() {
        if !line.starts_with('|') {
            break;
        }
        rows.push(cells(line));
    }
    assert!(!rows.is_empty(), "no table headed {header:?} in docs/OBSERVABILITY.md");
    rows
}

/// The documented names of `family` in column `column` of a table.
fn documented(rows: &[Vec<&str>], family: &str, column: usize) -> Vec<String> {
    rows.iter().filter(|row| names(row[0]) == [family]).flat_map(|row| names(row[column])).collect()
}

/// The names of `family`'s fields that are scalars (`histogram` false)
/// or histograms (`histogram` true), in declaration order.
fn field_names(family: &impl CounterFamily, histogram: bool) -> Vec<String> {
    family
        .fields()
        .filter(|(_, field)| matches!(field, Field::Histogram(_)) == histogram)
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn counter_family_table_lists_every_field() {
    let doc = doc();
    let rows = table(&doc, "| family | adapter | samples |");
    let expected = [
        ("wire", field_names(&WireCounters::new(), false)),
        ("serve", field_names(&ServeCounters::new(), false)),
        ("reactor", field_names(&ReactorSnapshot::new(), false)),
    ];
    for (family, fields) in &expected {
        assert_eq!(&documented(&rows, family, 2), fields, "family `{family}` in the table");
    }
    assert_eq!(rows.len(), expected.len(), "the table lists exactly the declared families");
}

#[test]
fn histogram_table_lists_the_reactor_histograms() {
    let doc = doc();
    let rows = table(&doc, "| family | sample | labels |");
    let fields = field_names(&ReactorSnapshot::new(), true);
    assert_eq!(documented(&rows, "reactor", 1), fields);
}
