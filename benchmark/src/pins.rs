//! The pin files under `pins/`: one line per pinned result, compared as
//! text. Lines starting with `#` are commentary.

use std::path::PathBuf;

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(format!("{workload}.txt"))
}

/// The pinned lines of `workload`.
pub fn read(workload: &str) -> Result<Vec<String>, String> {
    let path = path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

/// How many of `got` differ from `pins`, a missing or surplus line
/// counting as one.
pub fn differing(pins: &[String], got: &[String]) -> u64 {
    let differing = pins.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + pins.len().abs_diff(got.len())) as u64
}

/// Rewrites the pin file of `workload`; `columns` names what a line holds.
pub fn write(workload: &str, columns: &str, lines: &[String]) -> Result<(), String> {
    let mut text = format!(
        "# {workload}: {columns}.\n\
         # Regenerate with `dds-benchmark pins` after an intended behaviour change.\n"
    );
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    let path = path(workload);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_missing_and_surplus_lines_count() {
        let pins = vec!["a 1 2".to_string(), "b 5 6".to_string()];
        assert_eq!(differing(&pins, &pins), 0);
        assert_eq!(
            differing(&pins, &["a 1 2".to_string(), "b 5 7".to_string()]),
            1
        );
        assert_eq!(differing(&pins, &pins[..1]), 1);
        assert_eq!(differing(&pins[..1], &pins), 1);
    }
}
