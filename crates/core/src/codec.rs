//! A small std-only binary codec for session checkpoints.
//!
//! The workspace has no serialization dependency: checkpoints and
//! knowledge records use this explicit little-endian wire format, written
//! and read by hand so every byte is pinned:
//!
//! * fixed-width integers are written little-endian (`u8`, `u32`, `u64`);
//! * `usize` is widened to `u64` so 32- and 64-bit hosts produce the same
//!   bytes;
//! * `f64` is written as its IEEE-754 bit pattern (`to_bits`, little-endian),
//!   so NaN payloads, signed zeros and subnormals round-trip **bit-exactly**
//!   — the property the bit-identical-replay guarantee rests on;
//! * variable-length data (`bytes`, `str`, sequences) is length-prefixed
//!   with a `u64` count.
//!
//! Decoding never panics: every read is bounds-checked and returns a
//! [`CodecError`] on truncated or malformed input, so a corrupt checkpoint
//! file degrades to a recoverable error instead of killing the service.

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value could be read.
    UnexpectedEof {
        /// Byte offset at which the read started.
        at: usize,
        /// How many bytes the read needed.
        wanted: usize,
    },
    /// A length prefix or tag field holds a value the decoder cannot accept
    /// (e.g. a length larger than the remaining input, a boolean that is
    /// neither 0 nor 1, an unknown enum tag).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, wanted } => {
                write!(f, "input ended at byte {at} ({wanted} more bytes needed)")
            }
            CodecError::Invalid(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends values to a byte buffer in the wire format described in the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before anything was written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64`, so the encoding is identical on
    /// 32- and 64-bit hosts.
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern. NaN
    /// payloads, signed zeros and subnormals round-trip bit-exactly.
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_usize(value.len());
        self.buf.extend_from_slice(value);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }
}

/// Reads values back out of a byte slice written by [`Encoder`]. Every read
/// is bounds-checked; malformed input surfaces as a [`CodecError`], never a
/// panic.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over the given bytes, starting at offset 0.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed — decoders should check this
    /// after the last field so trailing garbage is rejected, not ignored.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, wanted: usize) -> Result<&'a [u8], CodecError> {
        let at = self.pos;
        let end = at
            .checked_add(wanted)
            .ok_or(CodecError::Invalid("length overflows the address space"))?;
        if end > self.bytes.len() {
            return Err(CodecError::UnexpectedEof { at, wanted });
        }
        self.pos = end;
        Ok(&self.bytes[at..end])
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean; any byte other than 0 or 1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("boolean byte is neither 0 nor 1")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let raw = self.take(4)?;
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(raw);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a `usize` (written as `u64`); values above the host's `usize`
    /// range are malformed.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| CodecError::Invalid("count exceeds the host usize range"))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| CodecError::Invalid("string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_math::rng::SeededRng;

    #[test]
    fn scalar_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 3);
        enc.put_usize(12_345);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_str("Γ β χ");
        enc.put_bytes(&[1, 2, 3]);
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.get_usize().unwrap(), 12_345);
        // Bit-exact: the sign of -0.0 and the NaN payload survive.
        assert_eq!(dec.get_f64().unwrap().to_bits(), (-0.0_f64).to_bits());
        assert_eq!(dec.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(dec.get_str().unwrap(), "Γ β χ");
        assert_eq!(dec.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(dec.is_finished());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.put_u64(99);
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(matches!(
                dec.get_u64(),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn corrupt_prefixes_are_rejected() {
        // A length prefix far beyond the buffer.
        let mut enc = Encoder::new();
        enc.put_usize(1 << 40);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_bytes().is_err());

        // A boolean byte outside {0, 1}.
        let mut dec = Decoder::new(&[2]);
        assert_eq!(
            dec.get_bool(),
            Err(CodecError::Invalid("boolean byte is neither 0 nor 1"))
        );

        // Invalid UTF-8 under a valid length prefix.
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_str().is_err());
        assert!(CodecError::Invalid("x").to_string().contains("malformed"));
    }

    /// Seeded round-trip property test: random value sequences of random
    /// shapes encode and decode to the same values (f64 compared by bit
    /// pattern), and the decoder consumes exactly the encoded bytes.
    #[test]
    fn seeded_round_trip_property() {
        let mut rng = SeededRng::new(0xC0DEC);
        for _ in 0..200 {
            let len = rng.below(32);
            let shape: Vec<usize> = (0..len).map(|_| rng.below(6)).collect();
            let mut enc = Encoder::new();
            let mut expected_u64 = Vec::new();
            let mut expected_f64 = Vec::new();
            let mut expected_bytes: Vec<Vec<u8>> = Vec::new();
            for &kind in &shape {
                match kind {
                    0 => enc.put_u8((rng.next_u64() & 0xFF) as u8),
                    1 => enc.put_bool(rng.next_u64() & 1 == 1),
                    2 => {
                        let v = rng.next_u64();
                        expected_u64.push(v);
                        enc.put_u64(v);
                    }
                    3 => {
                        // Adversarial bit patterns: NaNs, infinities,
                        // subnormals all round-trip bit-exactly.
                        let v = f64::from_bits(rng.next_u64());
                        expected_f64.push(v.to_bits());
                        enc.put_f64(v);
                    }
                    4 => {
                        let n = rng.below(17);
                        let bytes: Vec<u8> =
                            (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
                        enc.put_bytes(&bytes);
                        expected_bytes.push(bytes);
                    }
                    _ => enc.put_u32(rng.next_u64() as u32),
                }
            }
            let encoded = enc.finish();
            let mut dec = Decoder::new(&encoded);
            let mut seen_u64 = Vec::new();
            let mut seen_f64 = Vec::new();
            let mut seen_bytes = Vec::new();
            for &kind in &shape {
                match kind {
                    0 => {
                        dec.get_u8().unwrap();
                    }
                    1 => {
                        dec.get_bool().unwrap();
                    }
                    2 => seen_u64.push(dec.get_u64().unwrap()),
                    3 => seen_f64.push(dec.get_f64().unwrap().to_bits()),
                    4 => seen_bytes.push(dec.get_bytes().unwrap().to_vec()),
                    _ => {
                        dec.get_u32().unwrap();
                    }
                }
            }
            assert_eq!(seen_u64, expected_u64);
            assert_eq!(seen_f64, expected_f64);
            assert_eq!(seen_bytes, expected_bytes);
            assert!(dec.is_finished(), "decoder left trailing bytes");
            assert_eq!(dec.remaining(), 0);
        }
    }
}
