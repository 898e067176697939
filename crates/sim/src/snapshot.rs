//! Stable state fingerprints for snapshot-forking exploration.
//!
//! The forking explorer deduplicates world states by a 64-bit
//! fingerprint. The hash must be *stable* (independent of process,
//! platform, and allocation layout — `std::hash` guarantees none of
//! these) and *conservative*: two states may only share a fingerprint if
//! every future behavior from them is identical. We therefore hash the
//! complete deterministic closure of a world — actor state, pending
//! events (including their sequence numbers, which break scheduling
//! ties), membership, topology, values, identity allocator, and the RNG
//! stream position. A collision across genuinely different states is
//! possible (64-bit truncation) but astronomically unlikely at the
//! state counts bounded exploration reaches.
//!
//! [`StableHasher`] is FNV-1a over little-endian bytes: trivially
//! portable and byte-order explicit. [`FingerprintMsg`] is the opt-in
//! hook a message type implements so worlds carrying it can be
//! fingerprinted; actors and churn drivers opt in through
//! [`crate::actor::Actor::fingerprint`] and
//! [`crate::driver::ChurnDriver::fingerprint`].

/// A deterministic, platform-stable 64-bit hasher (FNV-1a).
///
/// Unlike [`std::hash::Hasher`] implementations, the digest depends only
/// on the byte sequence written — never on pointer values, random keys,
/// or platform word order — so it is safe to compare across runs,
/// threads, and processes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A hasher in its initial state.
    pub const fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize`, widened to 64 bits so 32- and 64-bit platforms
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.state
    }

    /// The digest as a term of a wrapping sum (the actor table's
    /// commutative digest).
    ///
    /// FNV-1a is linear in its last bytes: two inputs that differ only in
    /// the low byte of their final word have digests a small multiple of
    /// one constant apart, so plain digests of states that differ by `+1`
    /// here and `-1` there add up to the same sum. A bijective avalanche
    /// step (the splitmix64 finaliser) on each term first removes that
    /// structure. (The event queue's sum still adds plain digests: the
    /// pinned exploration counters were taken with them, see ROADMAP.)
    pub(crate) const fn summand(&self) -> u64 {
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// A message type that knows how to absorb itself into a fingerprint.
///
/// Required for a `World<M>` to be fingerprintable: pending events carry
/// message payloads, and two states whose in-flight payloads differ must
/// not be identified. Implementations must write every field that can
/// influence a receiving actor.
pub trait FingerprintMsg {
    /// Absorbs this message into `h`. Enum implementations should write a
    /// variant discriminant first so payload bytes cannot alias across
    /// variants.
    fn fingerprint(&self, h: &mut StableHasher);
}

impl FingerprintMsg for u64 {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl FingerprintMsg for u32 {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl FingerprintMsg for &'static str {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

/// Adapter from the trait method to the `fn`-pointer form the kernel
/// stores (a trait object over `M` cannot be named inside `World<M>`
/// without infecting every signature; a function pointer can).
pub fn fingerprint_msg<M: FingerprintMsg>(msg: &M, h: &mut StableHasher) {
    msg.fingerprint(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_hasher_instances() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        a.write_u64(42);
        a.write_str("hello");
        b.write_u64(42);
        b.write_str("hello");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis; of "a" it is the
        // published test vector.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn field_order_and_width_matter() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = StableHasher::new();
        c.write_u32(7);
        let mut d = StableHasher::new();
        d.write_u64(7);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn length_prefix_prevents_string_aliasing() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
