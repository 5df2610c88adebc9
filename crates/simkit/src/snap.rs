//! Versioned binary snapshot codec for engine-state checkpointing.
//!
//! The slab refactor (see [`crate::slab`]) made every engine's in-flight
//! state contiguous and index-addressed; this module is the wire format
//! that serializes it. A snapshot holds the simulated state only — never
//! the scheduler or simulator telemetry — so it resumes a run
//! bit-identically under any stepping mode or thread count.
//! `SimReport::state_digest` hashes the same encoding without the meter
//! and the stop reason.
//!
//! # Format
//!
//! ```text
//! magic "PSNP" | version u16 LE | engine kind u8 | shape u64 LE   (header)
//! { tag u8 | body_len u32 LE | body }*                            (sections)
//! fnv1a64(everything above) u64 LE                                (trailer)
//! ```
//!
//! Section bodies are built from shortest-form LEB128 varints
//! ([`Encoder::u64`]), raw little-endian words for high-entropy values
//! ([`Encoder::fixed_u64`], [`Encoder::f64`]), and explicit `bool`/byte
//! primitives. The *shape* word fingerprints the static configuration
//! (topology, widths, component counts) so a snapshot can only be restored
//! into an engine built from the same configuration.
//!
//! # Validation contract
//!
//! [`Decoder::new`] verifies the FNV-1a digest over the **entire** byte
//! string *before any field is parsed*. The per-byte FNV step
//! `h' = (h ^ b) * PRIME` is injective in both `h` and `b` (the prime is
//! odd, so multiplication is a bijection mod 2^64), which means any
//! single-byte corruption anywhere in a snapshot — header, body or
//! trailer — changes the digest check's outcome and is rejected as
//! [`SnapError::BadDigest`]. Everything after that is defense in depth:
//! shortest-form varint enforcement, [`DecodeLimits`] bounds on total
//! size / section size / collection counts, exact section-length
//! accounting ([`Decoder::end_section`]) and a no-trailing-bytes check
//! ([`Decoder::finish`]). Engine `restore` implementations decode and
//! structurally validate **everything** into fresh staging state before
//! mutating the engine, so a decode error never leaves an engine
//! half-restored.

use std::error::Error;
use std::fmt;

/// Snapshot file magic: "PATRONoC SNaPshot".
pub const MAGIC: [u8; 4] = *b"PSNP";

/// Current snapshot schema version. Bump on any layout change; decoders
/// reject other versions rather than guessing.
pub const VERSION: u16 = 1;

/// Byte length of the fixed header (magic + version + kind + shape).
const HEADER_LEN: usize = 4 + 2 + 1 + 8;

/// Byte length of the digest trailer.
const TRAILER_LEN: usize = 8;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the digest used for the snapshot
/// trailer and for [`SimReport::state_digest`](crate::SimReport).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a snapshot failed to decode. Every variant means "nothing was
/// restored" — decoding is all-or-nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// Fewer bytes than a header + digest trailer, or a read ran off the
    /// end of the buffer.
    Truncated,
    /// The digest trailer does not match the bytes (corruption).
    BadDigest,
    /// The magic bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown schema version.
    BadVersion(u16),
    /// The snapshot was taken from a different engine kind.
    WrongEngine {
        /// The engine kind the decoder expected.
        expected: u8,
        /// The engine kind recorded in the snapshot.
        found: u8,
    },
    /// The snapshot's configuration fingerprint does not match the target
    /// engine's.
    ShapeMismatch,
    /// A varint was not in shortest form (canonical encoding violation).
    NonCanonicalVarint,
    /// A size or count exceeded the [`DecodeLimits`]; the payload names
    /// the bound.
    LimitExceeded(&'static str),
    /// A structural invariant failed; the payload names it.
    Corrupt(&'static str),
    /// Bytes remained after the last expected section.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadDigest => write!(f, "snapshot digest mismatch (corrupt bytes)"),
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::WrongEngine { expected, found } => {
                write!(
                    f,
                    "snapshot is for engine kind {found}, expected {expected}"
                )
            }
            Self::ShapeMismatch => {
                write!(
                    f,
                    "snapshot configuration fingerprint does not match engine"
                )
            }
            Self::NonCanonicalVarint => write!(f, "non-canonical varint"),
            Self::LimitExceeded(what) => write!(f, "decode limit exceeded: {what}"),
            Self::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            Self::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
        }
    }
}

impl Error for SnapError {}

/// Resource bounds enforced while decoding untrusted snapshot bytes, so a
/// hostile length field cannot drive huge allocations before validation
/// catches it.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Upper bound on the whole snapshot byte string.
    pub max_bytes: usize,
    /// Upper bound on a single section body.
    pub max_section: usize,
    /// Upper bound on any single decoded collection length
    /// ([`Decoder::count`]).
    pub max_items: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        Self {
            max_bytes: 1 << 30,
            max_section: 1 << 28,
            max_items: 1 << 24,
        }
    }
}

/// Appends the header, sections and digest trailer of one snapshot.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts a snapshot for engine `kind` with configuration fingerprint
    /// `shape`.
    #[must_use]
    pub fn new(kind: u8, shape: u64) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(&shape.to_le_bytes());
        Self { buf }
    }

    /// Writes a shortest-form LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Writes a `u16` as a varint.
    pub fn u16(&mut self, v: u16) {
        self.u64(u64::from(v));
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes one raw byte.
    pub fn byte(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (`0`/`1`).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a raw little-endian `u64` — for high-entropy words (RNG
    /// state, float bits) where a varint would *expand* the encoding.
    pub fn fixed_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.fixed_u64(v.to_bits());
    }

    /// Writes a `u128` as two raw words (hi, lo).
    pub fn u128(&mut self, v: u128) {
        self.fixed_u64((v >> 64) as u64);
        self.fixed_u64(v as u64);
    }

    /// Writes `Some`/`None` as a bool followed by the value.
    pub fn option<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Writes one length-prefixed section: tag byte, 4-byte LE body
    /// length, body (whatever `f` appends).
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds `u32::MAX` bytes.
    pub fn section<R>(&mut self, tag: u8, f: impl FnOnce(&mut Self) -> R) -> R {
        self.buf.push(tag);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        let r = f(self);
        let len = u32::try_from(self.buf.len() - at - 4).expect("section body fits u32");
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        r
    }

    /// FNV-1a digest of everything encoded so far (header + sections) —
    /// the value [`finish`](Self::finish) appends, also used standalone as
    /// the deterministic `state_digest` of an engine.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.buf)
    }

    /// Bytes encoded so far (header + complete sections; no trailer).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Always false: the header is written at construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Appends the digest trailer and returns the snapshot bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let d = self.digest();
        self.buf.extend_from_slice(&d.to_le_bytes());
        self.buf
    }
}

/// Validating reader over snapshot bytes.
///
/// Construction verifies the digest trailer, magic, version, engine kind
/// and shape fingerprint; reads are bounds-checked against the buffer,
/// the current section and the [`DecodeLimits`].
#[derive(Debug)]
pub struct Decoder<'a> {
    /// Header + sections (digest trailer already stripped and verified).
    buf: &'a [u8],
    pos: usize,
    limits: DecodeLimits,
}

impl<'a> Decoder<'a> {
    /// Validates the framing of `bytes` (digest first, then header fields)
    /// and returns a reader positioned at the first section.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] framing violation; see the module docs for the
    /// validation contract.
    pub fn new(
        bytes: &'a [u8],
        kind: u8,
        shape: u64,
        limits: DecodeLimits,
    ) -> Result<Self, SnapError> {
        if bytes.len() > limits.max_bytes {
            return Err(SnapError::LimitExceeded("snapshot bytes"));
        }
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapError::Truncated);
        }
        // Digest before *anything* else: after this check every byte is
        // known-uncorrupted, and the remaining checks guard against a
        // well-formed snapshot for the wrong target.
        let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a64(payload) != stored {
            return Err(SnapError::BadDigest);
        }
        if payload[..4] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u16::from_le_bytes([payload[4], payload[5]]);
        if version != VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let found = payload[6];
        if found != kind {
            return Err(SnapError::WrongEngine {
                expected: kind,
                found,
            });
        }
        let found_shape = u64::from_le_bytes(payload[7..HEADER_LEN].try_into().expect("shape"));
        if found_shape != shape {
            return Err(SnapError::ShapeMismatch);
        }
        Ok(Self {
            buf: payload,
            pos: HEADER_LEN,
            limits,
        })
    }

    /// The configured limits (for nested collection validation).
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a shortest-form LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] on buffer end, [`SnapError::Corrupt`] on
    /// overlong (>10 byte / overflowing) encodings and
    /// [`SnapError::NonCanonicalVarint`] when a shorter encoding exists.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7f);
            if i == 9 && byte > 0x01 {
                return Err(SnapError::Corrupt("varint overflow"));
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                if i > 0 && byte == 0 {
                    return Err(SnapError::NonCanonicalVarint);
                }
                return Ok(v);
            }
        }
        Err(SnapError::Corrupt("unterminated varint"))
    }

    /// Reads a varint range-checked into `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        u32::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("u32 out of range"))
    }

    /// Reads a varint range-checked into `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        u16::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("u16 out of range"))
    }

    /// Reads a varint range-checked into `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize out of range"))
    }

    /// Reads a bool byte, rejecting anything but `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte")),
        }
    }

    /// Reads a raw little-endian `u64`.
    pub fn fixed_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.fixed_u64()?))
    }

    /// Reads a `u128` written by [`Encoder::u128`].
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let hi = self.fixed_u64()?;
        let lo = self.fixed_u64()?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Reads an `Option` written by [`Encoder::option`].
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            f(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads a collection length, bounded by
    /// [`DecodeLimits::max_items`].
    pub fn count(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.limits.max_items {
            return Err(SnapError::LimitExceeded(what));
        }
        Ok(n)
    }

    /// Opens the next section, which must carry `tag`; returns the byte
    /// offset where the section body ends (pass to
    /// [`end_section`](Self::end_section)).
    pub fn begin_section(&mut self, tag: u8) -> Result<usize, SnapError> {
        let found = self.byte()?;
        if found != tag {
            return Err(SnapError::Corrupt("unexpected section tag"));
        }
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        if len > self.limits.max_section {
            return Err(SnapError::LimitExceeded("section length"));
        }
        let end = self.pos.checked_add(len).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        Ok(end)
    }

    /// Closes a section: the reader must have consumed exactly the
    /// declared body length.
    pub fn end_section(&mut self, end: usize) -> Result<(), SnapError> {
        if self.pos != end {
            return Err(SnapError::Corrupt("section length mismatch"));
        }
        Ok(())
    }

    /// Final check: every payload byte must have been consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos != self.buf.len() {
            return Err(SnapError::TrailingBytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_header(kind: u8, shape: u64) -> Vec<u8> {
        Encoder::new(kind, shape).finish()
    }

    #[test]
    fn header_round_trip() {
        let bytes = round_trip_header(3, 0xABCD);
        let d = Decoder::new(&bytes, 3, 0xABCD, DecodeLimits::default()).unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn header_mismatches_rejected() {
        let bytes = round_trip_header(3, 0xABCD);
        let lim = DecodeLimits::default();
        assert_eq!(
            Decoder::new(&bytes, 4, 0xABCD, lim).unwrap_err(),
            SnapError::WrongEngine {
                expected: 4,
                found: 3
            }
        );
        assert_eq!(
            Decoder::new(&bytes, 3, 0xABCE, lim).unwrap_err(),
            SnapError::ShapeMismatch
        );
    }

    #[test]
    fn varints_round_trip_and_are_canonical() {
        let mut e = Encoder::new(0, 0);
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &values {
            e.u64(v);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        for &v in &values {
            assert_eq!(d.u64().unwrap(), v);
        }
        d.finish().unwrap();
    }

    #[test]
    fn non_shortest_varint_rejected() {
        // 0x80 0x00 encodes 0 in two bytes; canonical is one byte.
        let mut e = Encoder::new(0, 0);
        e.byte(0x80);
        e.byte(0x00);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert_eq!(d.u64().unwrap_err(), SnapError::NonCanonicalVarint);
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut e = Encoder::new(0, 0);
        for _ in 0..9 {
            e.byte(0xFF);
        }
        e.byte(0x02); // 65th bit set
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert_eq!(d.u64().unwrap_err(), SnapError::Corrupt("varint overflow"));
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let mut e = Encoder::new(7, 42);
        e.section(1, |e| {
            e.u64(123_456);
            e.fixed_u64(0xDEAD_BEEF);
            e.bool(true);
        });
        let bytes = e.finish();
        // Sanity: the pristine snapshot decodes.
        assert!(Decoder::new(&bytes, 7, 42, DecodeLimits::default()).is_ok());
        for i in 0..bytes.len() {
            for delta in [1u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= delta;
                let err = Decoder::new(&bad, 7, 42, DecodeLimits::default()).unwrap_err();
                // The digest covers every byte before the trailer, and a
                // corrupted trailer no longer matches the digest — so the
                // *digest* check alone must catch all of these.
                assert_eq!(err, SnapError::BadDigest, "byte {i} delta {delta:#x}");
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let mut e = Encoder::new(7, 42);
        e.section(1, |e| e.u64(99));
        let bytes = e.finish();
        for n in 0..bytes.len() {
            assert!(
                Decoder::new(&bytes[..n], 7, 42, DecodeLimits::default()).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn section_length_is_enforced_exactly() {
        let mut e = Encoder::new(0, 0);
        e.section(5, |e| e.u64(300));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        let end = d.begin_section(5).unwrap();
        // Under-consume: only one of the two varint bytes.
        let _ = d.byte().unwrap();
        assert_eq!(
            d.end_section(end).unwrap_err(),
            SnapError::Corrupt("section length mismatch")
        );
    }

    #[test]
    fn wrong_section_tag_rejected() {
        let mut e = Encoder::new(0, 0);
        e.section(5, |e| e.u64(300));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert_eq!(
            d.begin_section(6).unwrap_err(),
            SnapError::Corrupt("unexpected section tag")
        );
    }

    #[test]
    fn limits_bound_snapshot_section_and_counts() {
        let mut e = Encoder::new(0, 0);
        e.section(1, |e| {
            e.usize(1000); // a claimed collection length
            for _ in 0..100 {
                e.fixed_u64(7);
            }
        });
        let bytes = e.finish();
        let tight = DecodeLimits {
            max_bytes: 16,
            ..DecodeLimits::default()
        };
        assert_eq!(
            Decoder::new(&bytes, 0, 0, tight).unwrap_err(),
            SnapError::LimitExceeded("snapshot bytes")
        );
        let tiny_section = DecodeLimits {
            max_section: 8,
            ..DecodeLimits::default()
        };
        let mut d = Decoder::new(&bytes, 0, 0, tiny_section).unwrap();
        assert_eq!(
            d.begin_section(1).unwrap_err(),
            SnapError::LimitExceeded("section length")
        );
        let few_items = DecodeLimits {
            max_items: 10,
            ..DecodeLimits::default()
        };
        let mut d = Decoder::new(&bytes, 0, 0, few_items).unwrap();
        let _ = d.begin_section(1).unwrap();
        assert_eq!(
            d.count("items").unwrap_err(),
            SnapError::LimitExceeded("items")
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Encoder::new(0, 0);
        e.u64(1);
        let bytes = e.finish();
        let d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert_eq!(d.finish().unwrap_err(), SnapError::TrailingBytes);
    }

    #[test]
    fn scalar_round_trips() {
        let mut e = Encoder::new(0, 0);
        e.bool(true);
        e.bool(false);
        e.f64(-1234.5678e9);
        e.u128(u128::MAX - 7);
        e.option(Some(&42u64), |e, v| e.u64(*v));
        e.option(None::<&u64>, |e, v| e.u64(*v));
        e.u16(u16::MAX);
        e.u32(u32::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64().unwrap().to_bits(), (-1234.5678e9f64).to_bits());
        assert_eq!(d.u128().unwrap(), u128::MAX - 7);
        assert_eq!(d.option(Decoder::u64).unwrap(), Some(42));
        assert_eq!(d.option(Decoder::u64).unwrap(), None);
        assert_eq!(d.u16().unwrap(), u16::MAX);
        assert_eq!(d.u32().unwrap(), u32::MAX);
        d.finish().unwrap();
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
