//! Differential test: the wave's sorted-vector [`Contributions`] against a
//! `BTreeMap<ProcessId, f64>` reference model.
//!
//! Echo payloads and the initiator's per-generation merge were ordered
//! maps unioned with `extend`; the map survives here as the oracle.
//! Random sequences of single-contributor inserts and unions over a few
//! slots — overlapping identities, conflicting values on a shared
//! identity, empty sides, a union of a slot with a copy of itself — must
//! leave every slot with the map's identities, value bits and length, in
//! identity order, after every step. On a shared identity the incoming
//! value wins, as `extend` has it.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_protocols::wave::Contributions;
use proptest::collection::vec;
use proptest::prelude::*;

/// Slots the operations draw their operands from.
const SLOTS: usize = 4;

fn same(got: &Contributions, want: &BTreeMap<ProcessId, f64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.is_empty(), want.is_empty());
    let keys: Vec<ProcessId> = got.keys().collect();
    let want_keys: Vec<ProcessId> = want.keys().copied().collect();
    prop_assert_eq!(keys, want_keys);
    let bits: Vec<u64> = got.values().map(f64::to_bits).collect();
    let want_bits: Vec<u64> = want.values().map(|v| v.to_bits()).collect();
    prop_assert_eq!(bits, want_bits);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn contributions_union_matches_the_ordered_map(
        ops in vec((0u8..4, 0..SLOTS, 0..SLOTS, 0u64..24, 0.0f64..1.0), 0..80)
    ) {
        let mut got: Vec<Contributions> = vec![Contributions::default(); SLOTS];
        let mut want: Vec<BTreeMap<ProcessId, f64>> = vec![BTreeMap::new(); SLOTS];
        for (kind, a, b, raw, value) in ops {
            let pid = ProcessId::from_raw(raw);
            match kind {
                // One contributor joins slot `a`; a value drawn afresh
                // conflicts with whatever the slot held for `pid`.
                0 | 1 => {
                    got[a].union(&Contributions::single(pid, value));
                    want[a].extend([(pid, value)]);
                }
                // Slot `a` absorbs slot `b` (a copy of itself when a == b).
                2 => {
                    let src = got[b].clone();
                    got[a].union(&src);
                    let src = want[b].clone();
                    want[a].extend(src);
                }
                // Slot `a` starts over empty.
                _ => {
                    got[a] = Contributions::default();
                    want[a].clear();
                }
            }
            for (g, w) in got.iter().zip(&want) {
                same(g, w)?;
            }
        }
    }
}
