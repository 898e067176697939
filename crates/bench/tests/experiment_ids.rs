//! `run_experiments` checks its ids before it runs anything: an id that
//! is neither `all` nor in [`registry`] exits 2, and the message lists
//! every id the registry knows.

use std::collections::BTreeSet;
use std::process::Command;

use dds_bench::registry;

#[test]
fn unknown_ids_exit_2_and_list_the_registry() {
    let ids: Vec<&str> = registry().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids.len(), 19);
    for args in [&["e1", "nope"][..], &["nope"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
            .args(args)
            .output()
            .expect("run_experiments must start");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let words: BTreeSet<&str> = stderr.split(|c: char| !c.is_ascii_alphanumeric()).collect();
        for id in &ids {
            assert!(words.contains(id), "{args:?}: {id} missing from {stderr}");
        }
    }
}
