//! Plain-old-data element types the flat container can store as typed
//! arrays and view in place.

/// Element-type codes recorded in the section table, so a reader can refuse
/// a section whose stored type differs from the one the caller expects
/// (catching both corruption and schema drift with a typed error instead of
/// reinterpreted garbage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ElemType {
    /// Bytes: UTF-8 text arrays and blob sections parsed by the caller.
    U8 = 1,
    U32 = 2,
    U64 = 3,
    F32 = 4,
    F64 = 5,
}

impl ElemType {
    /// Decode a table code. Unknown codes are corruption, not a panic.
    pub fn from_code(code: u8) -> Option<ElemType> {
        match code {
            1 => Some(ElemType::U8),
            2 => Some(ElemType::U32),
            3 => Some(ElemType::U64),
            4 => Some(ElemType::F32),
            5 => Some(ElemType::F64),
            _ => None,
        }
    }

    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            ElemType::U8 => 1,
            ElemType::U32 | ElemType::F32 => 4,
            ElemType::U64 | ElemType::F64 => 8,
        }
    }
}

/// Types that can live in a flat-snapshot array section and be viewed
/// directly over the little-endian file bytes.
///
/// # Safety
///
/// Implementors must guarantee all of:
/// * the type has no padding and `size_of::<Self>() == Self::ELEM.size()`;
/// * every bit pattern of that size is a valid value (no niches);
/// * alignment is at most 8 (section payloads are 16-byte aligned within
///   the file and the mapping base is at least 8-byte aligned);
/// * on little-endian targets the in-memory representation equals the
///   on-disk little-endian representation ([`Pod::put_le`]/[`Pod::from_le`]
///   agree with a plain byte copy).
///
/// Newtype wrappers (`#[repr(transparent)]` over a primitive) implement
/// this by delegating to the primitive.
// SAFETY: unsafe trait — the obligations implementors must uphold (no
// padding, no niches, alignment <= 8, LE == in-memory repr) are spelled
// out in the `# Safety` section above; `Sect::<T>::mapped` relies on them.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// The table code for this element type.
    const ELEM: ElemType;
    /// Human-readable name for error messages.
    const NAME: &'static str;

    /// Append the little-endian encoding of `self` to `out`.
    fn put_le(self, out: &mut Vec<u8>);

    /// Decode one element from exactly `ELEM.size()` little-endian bytes.
    /// Callers guarantee the length; implementations must not panic on it
    /// (use infallible array conversion over a checked prefix).
    fn from_le(bytes: &[u8]) -> Self;
}

macro_rules! pod_primitive {
    ($t:ty, $elem:expr, $name:literal) => {
        // SAFETY: primitive integer/float types have no padding, no niches,
        // alignment == size <= 8, and native little-endian layout on the
        // little-endian targets where mapped views are enabled.
        unsafe impl Pod for $t {
            const ELEM: ElemType = $elem;
            const NAME: &'static str = $name;

            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn from_le(bytes: &[u8]) -> Self {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                let n = raw.len().min(bytes.len());
                raw[..n].copy_from_slice(&bytes[..n]);
                <$t>::from_le_bytes(raw)
            }
        }
    };
}

pod_primitive!(u8, ElemType::U8, "u8");
pod_primitive!(u32, ElemType::U32, "u32");
pod_primitive!(u64, ElemType::U64, "u64");
pod_primitive!(f32, ElemType::F32, "f32");
pod_primitive!(f64, ElemType::F64, "f64");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut buf = Vec::new();
        0xDEAD_BEEFu32.put_le(&mut buf);
        assert_eq!(<u32 as Pod>::from_le(&buf), 0xDEAD_BEEF);
        buf.clear();
        f64::NAN.put_le(&mut buf);
        // Bit-exact, including NaN payloads.
        assert_eq!(<f64 as Pod>::from_le(&buf).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn elem_codes_roundtrip_and_unknown_is_none() {
        for e in [
            ElemType::U8,
            ElemType::U32,
            ElemType::U64,
            ElemType::F32,
            ElemType::F64,
        ] {
            assert_eq!(ElemType::from_code(e as u8), Some(e));
        }
        assert_eq!(ElemType::from_code(0), None);
        assert_eq!(ElemType::from_code(99), None);
    }
}
