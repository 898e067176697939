//! Property tests for the wire codec.
//!
//! Three classes of properties guard the frame layer the networked
//! service lives on:
//!
//! 1. **Round-trip**: every wire message — all seventeen `StoreMsg`
//!    variants plus the service's `Hello`/`Roster` — encodes to a frame
//!    that decodes back to an equal message.
//! 2. **Reassembly**: a byte stream of many frames split at arbitrary
//!    points (including mid-length-prefix) decodes to the same message
//!    sequence regardless of how it was chunked.
//! 3. **Robustness**: arbitrary garbage, truncations, and oversized
//!    length prefixes are rejected with an error — never a panic, never
//!    an out-of-bounds read, and never an unbounded buffer.

use dds_core::process::ProcessId;
use dds_core::spec::register::RegOp;
use dds_store::msg::{OpTag, Stamp, StoreMsg};
use dds_svc::codec::{decode_frame, encode_frame, FrameReader, WireMsg, MAX_FRAME};
use proptest::prelude::*;

fn pid() -> impl Strategy<Value = ProcessId> {
    (0u64..1 << 48).prop_map(ProcessId::from_raw)
}

fn tag() -> impl Strategy<Value = OpTag> {
    (any::<u64>(), any::<u32>()).prop_map(|(seq, attempt)| OpTag { seq, attempt })
}

fn stamp() -> impl Strategy<Value = Stamp> {
    (any::<u64>(), any::<u64>()).prop_map(|(seq, writer)| Stamp { seq, writer })
}

fn reg_op() -> impl Strategy<Value = RegOp> {
    prop_oneof![Just(RegOp::Read), any::<u64>().prop_map(RegOp::Write)]
}

fn members() -> impl Strategy<Value = Vec<ProcessId>> {
    proptest::collection::vec(pid(), 0..12)
}

/// Every `StoreMsg` variant, with adversarial field values.
fn store_msg() -> impl Strategy<Value = StoreMsg> {
    prop_oneof![
        reg_op().prop_map(StoreMsg::Invoke),
        members().prop_map(|members| StoreMsg::Reconfigure { members }),
        (tag(), any::<u64>()).prop_map(|(tag, epoch)| StoreMsg::Query { tag, epoch }),
        (
            tag(),
            any::<u64>(),
            stamp(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(tag, epoch, stamp, value)| StoreMsg::Store {
                tag,
                epoch,
                stamp,
                value
            }),
        Just(StoreMsg::ViewReq),
        (tag(), stamp(), proptest::option::of(any::<u64>()))
            .prop_map(|(tag, stamp, value)| StoreMsg::QueryAck { tag, stamp, value }),
        tag().prop_map(|tag| StoreMsg::StoreAck { tag }),
        (tag(), any::<u64>(), members()).prop_map(|(tag, epoch, members)| StoreMsg::Fenced {
            tag,
            epoch,
            members
        }),
        (any::<u64>(), members()).prop_map(|(epoch, members)| StoreMsg::ViewRep { epoch, members }),
        Just(StoreMsg::Announce),
        pid().prop_map(|joiner| StoreMsg::Announce2 { joiner }),
        any::<u64>().prop_map(|epoch| StoreMsg::Probe { epoch }),
        (any::<u64>(), members())
            .prop_map(|(epoch, candidates)| StoreMsg::ProbeAck { epoch, candidates }),
        (any::<u64>(), members())
            .prop_map(|(epoch, members)| StoreMsg::RecQuery { epoch, members }),
        (
            any::<u64>(),
            any::<u64>(),
            stamp(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(epoch, base, stamp, value)| StoreMsg::RecAck {
                epoch,
                base,
                stamp,
                value
            }),
        (
            any::<u64>(),
            members(),
            stamp(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(epoch, members, stamp, value)| StoreMsg::Migrate {
                epoch,
                members,
                stamp,
                value
            }),
        any::<u64>().prop_map(|epoch| StoreMsg::MigrateAck { epoch }),
    ]
}

fn addr() -> impl Strategy<Value = String> {
    // Full unicode coverage (surrogates replaced) without a char strategy.
    proptest::collection::vec(any::<u32>(), 0..40).prop_map(|vs| {
        vs.into_iter()
            .map(|v| char::from_u32(v % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

fn wire_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (pid(), any::<u8>(), addr()).prop_map(|(pid, role, addr)| WireMsg::Hello {
            pid,
            role,
            addr
        }),
        proptest::collection::vec((pid(), any::<u8>(), addr()), 0..8)
            .prop_map(|entries| WireMsg::Roster { entries }),
        (pid(), pid(), store_msg()).prop_map(|(from, to, msg)| WireMsg::Proto { from, to, msg }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → frame → decode is the identity on every wire message.
    #[test]
    fn round_trip_every_message(msg in wire_msg()) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &msg);
        // Frame = 4-byte length prefix + payload.
        prop_assert!(buf.len() >= 5);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len, buf.len() - 4);
        let decoded = decode_frame(&buf[4..]).expect("round trip decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// A stream of frames split at arbitrary byte boundaries reassembles
    /// into exactly the original message sequence, whatever the chunking.
    #[test]
    fn split_frames_reassemble(
        msgs in proptest::collection::vec(wire_msg(), 1..10),
        cuts in proptest::collection::vec(1usize..64, 0..40),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame(&mut stream, m);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.into_iter();
        while pos < stream.len() {
            let take = cut_iter.next().unwrap_or(usize::MAX).min(stream.len() - pos);
            reader.extend(&stream[pos..pos + take]);
            pos += take;
            while let Some(payload) = reader.next_payload().expect("valid stream") {
                decoded.push(decode_frame(payload).expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// Arbitrary bytes never panic the decoder: they decode to a message
    /// or return an error.
    #[test]
    fn garbage_never_panics_decode(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_frame(&payload);
    }

    /// Arbitrary bytes fed to the reassembler never panic and never make
    /// it buffer beyond the frame cap: any declared length above
    /// `MAX_FRAME` errors out before the payload is accumulated.
    #[test]
    fn garbage_never_panics_reader(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200),
        0..8,
    )) {
        let mut reader = FrameReader::new();
        'outer: for chunk in &chunks {
            reader.extend(chunk);
            loop {
                match reader.next_payload() {
                    Ok(Some(payload)) => { let _ = decode_frame(payload); }
                    Ok(None) => break,
                    Err(_) => break 'outer, // poisoned stream: caller drops conn
                }
            }
            prop_assert!(reader.pending() <= MAX_FRAME + 4);
        }
    }

    /// A truncated frame decodes to `Truncated`-class errors, never a
    /// panic: chop any suffix off a valid payload and decode.
    #[test]
    fn truncation_is_an_error_not_a_panic(msg in wire_msg(), keep in 0usize..1000) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &msg);
        let payload = &buf[4..];
        if keep < payload.len() {
            // Strict prefix: must error (every field is fixed-width or
            // length-prefixed, so a prefix is never a valid message).
            prop_assert!(decode_frame(&payload[..keep]).is_err());
        }
    }
}
