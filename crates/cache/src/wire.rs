//! A minimal binary wire format for cache artifacts.
//!
//! The repo is offline-only (no serde), so cached artifacts are serialized
//! with a hand-rolled little-endian format. Two properties matter more than
//! speed or compactness:
//!
//! * **Canonical bytes.** Encoding is a pure function of the value — no
//!   pointers, hash-map iteration order or timestamps leak in — so "cached
//!   artifact equals fresh artifact" can be asserted as byte equality.
//! * **Total decoding.** Every decode path returns a [`WireError`] carrying
//!   the byte offset of the failure instead of panicking, so a corrupt
//!   on-disk entry is detected, reported and evicted rather than served.
//!
//! This module holds the primitives ([`Writer`], [`Reader`], the [`Wire`]
//! impls for `u8`, `u32`, `u64`, `f64`, `bool`, `usize` and `String`) and
//! the containers (`Vec`, `Option`, pairs, `Result`). Artifact layouts are
//! declared once each in [`crate::artifacts`], on top of these.

use std::fmt;

/// Decode failure: what went wrong and where in the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub message: String,
    /// Byte offset into the input at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder.
#[derive(Default)]
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        // Bit pattern, not value: NaNs and -0.0 round-trip exactly.
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).expect("wire: slice longer than u32"));
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A decode error anchored at the current offset.
    pub fn error(&self, message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.error(format!(
                "truncated input: needed {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => {
                self.pos -= 1;
                Err(self.error(format!("invalid bool byte {b}")))
            }
        }
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let start = self.pos;
        let b = self.byte_slice()?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|e| WireError {
                message: format!("invalid utf-8 in string: {e}"),
                offset: start,
            })
    }

    /// Length-prefixed byte slice.
    pub fn byte_slice(&mut self) -> Result<&'a [u8], WireError> {
        let start = self.pos;
        let len = self.u32()? as usize;
        if len > self.remaining() {
            let rem = self.remaining();
            self.pos = start;
            return Err(self.error(format!(
                "corrupt length prefix {len} exceeds {rem} remaining bytes"
            )));
        }
        self.take(len, "byte slice")
    }

    /// Assert the whole input was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes after value", self.remaining())));
        }
        Ok(())
    }
}

/// A type with a canonical binary encoding.
pub trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value to its canonical bytes.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.put(&mut w);
    w.buf
}

/// Decode a value, requiring the input to be exactly one encoded value.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

macro_rules! wire_primitive {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

wire_primitive!(u8, u8, u8);
wire_primitive!(u32, u32, u32);
wire_primitive!(u64, u64, u64);
wire_primitive!(f64, f64, f64);
wire_primitive!(bool, bool, bool);

impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| r.error(format!("usize value {v} out of range")))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.u32(u32::try_from(self.len()).expect("wire: vec longer than u32"));
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        // Every element is at least one byte, so a length beyond the
        // remaining input is corrupt — reject before allocating.
        if len > r.remaining() {
            return Err(r.error(format!(
                "corrupt vec length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(r.error(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, w: &mut Writer) {
        match self {
            Ok(v) => {
                w.u8(0);
                v.put(w);
            }
            Err(e) => {
                w.u8(1);
                e.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Ok(T::get(r)?)),
            1 => Ok(Err(E::get(r)?)),
            b => Err(r.error(format!("invalid result tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_offset() {
        let bytes = encode(&0x1122_3344u32);
        let err = decode::<u64>(&bytes).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.message.contains("truncated"), "{err}");

        // A vec whose length prefix promises more than the input holds.
        let mut w = Writer::new();
        w.u32(1000);
        let err = decode::<Vec<u8>>(&w.buf).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.message.contains("corrupt vec length"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&42u32);
        bytes.push(0);
        let err = decode::<u32>(&bytes).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(String, Option<u32>)> = vec![
            ("a".into(), Some(u32::MAX)),
            ("b".into(), None),
            (String::new(), Some(0)),
        ];
        assert_eq!(
            decode::<Vec<(String, Option<u32>)>>(&encode(&v)).unwrap(),
            v
        );
        let r: Result<u32, String> = Err("boom".into());
        assert_eq!(decode::<Result<u32, String>>(&encode(&r)).unwrap(), r);
    }
}
