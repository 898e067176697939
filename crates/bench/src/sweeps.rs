//! Merge-preserving writer for `BENCH_sweeps.json`.
//!
//! The sweeps document is produced by *two* writers: `run_experiments`
//! (the simulator experiment rows, `e1`…`a4`) and `run_net` (the
//! networked-service row, `net1`). Each writer knows only its own
//! records, so a wholesale rewrite would silently drop the other's rows
//! — the exact failure mode that would unhook the `net1` row from the
//! CI `--baseline` gate. [`upsert_sweeps`] therefore merges: records
//! whose id matches an incoming one are replaced in place, records of
//! other ids are preserved in their existing order, and genuinely new
//! ids are appended.
//!
//! The document format stays the hand-rolled one-record-per-line JSON
//! the baseline parser expects: a small header (`threads`) followed by
//! an `experiments` array with one `{...}` object per line.

use std::io;
use std::path::Path;

/// Renders the merged document from the existing file (if any) and the
/// caller's `(id, line)` records, where `line` is the full JSON object
/// for that record (no indentation, no trailing comma). Returns the
/// document text.
pub fn merge_sweeps(existing: Option<&str>, new: &[(String, String)]) -> String {
    let mut lines: Vec<(String, String)> = Vec::new();
    let mut header_threads: Option<String> = None;
    if let Some(text) = existing {
        for line in text.lines() {
            if let Some(id) = extract_str(line, "\"id\": \"") {
                let body = line.trim().trim_end_matches(',').to_string();
                lines.push((id, body));
            } else if line.trim_start().starts_with("\"threads\":") {
                header_threads = extract_raw(line, "\"threads\": ");
            }
        }
    }
    for (id, body) in new {
        match lines.iter_mut().find(|(have, _)| have == id) {
            Some(slot) => slot.1 = body.clone(),
            None => lines.push((id.clone(), body.clone())),
        }
    }
    let threads = header_threads
        .unwrap_or_else(|| dds_sim::parallel::thread_count().to_string());
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"threads\": {threads},\n  \"experiments\": [\n"
    ));
    for (i, (_, body)) in lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(body);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads `path` (tolerating a missing file), merges `new` into it, and
/// writes the result back. When `refresh_header` is true the header is
/// regenerated from the current process configuration instead of
/// preserved — the writer that reran the full experiment suite owns the
/// header; an incremental writer (`run_net`) keeps it.
pub fn upsert_sweeps(path: &Path, new: &[(String, String)], refresh_header: bool) -> io::Result<()> {
    let existing = std::fs::read_to_string(path).ok();
    let existing = if refresh_header {
        // Drop the remembered header by stripping its line before merge.
        existing.map(|t| {
            t.lines()
                .filter(|l| !l.trim_start().starts_with("\"threads\":"))
                .collect::<Vec<_>>()
                .join("\n")
        })
    } else {
        existing
    };
    std::fs::write(path, merge_sweeps(existing.as_deref(), new))
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_raw(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_foreign_ids_and_replaces_matching() {
        let existing = "{\n  \"threads\": 8,\n  \"experiments\": [\n    {\"id\": \"e1\", \"runs_per_sec\": 100.0},\n    {\"id\": \"net1\", \"runs_per_sec\": 5.0}\n  ]\n}\n";
        let new = vec![("e1".to_string(), "{\"id\": \"e1\", \"runs_per_sec\": 120.0}".to_string())];
        let merged = merge_sweeps(Some(existing), &new);
        assert!(merged.contains("\"runs_per_sec\": 120.0"), "{merged}");
        assert!(merged.contains("\"id\": \"net1\""), "{merged}");
        assert!(merged.contains("\"threads\": 8"), "{merged}");
        // Valid comma structure: net1 line is last, no trailing comma.
        assert!(merged.contains("120.0},\n"), "{merged}");
        assert!(merged.contains("5.0}\n"), "{merged}");
    }

    #[test]
    fn merge_from_scratch_appends_new_ids() {
        let new = vec![("net1".to_string(), "{\"id\": \"net1\", \"runs_per_sec\": 9.0}".to_string())];
        let merged = merge_sweeps(None, &new);
        assert!(merged.contains("\"id\": \"net1\""));
        assert!(merged.starts_with("{\n  \"threads\": "));
        assert!(merged.trim_end().ends_with("}"));
        // Round-trips through another merge unchanged.
        assert_eq!(merge_sweeps(Some(&merged), &new), merged);
    }
}
