//! The binary record format datasets use on the simulated SmartSSD.
//!
//! Layout (little-endian):
//!
//! ```text
//! header:  magic "NSSA" | version u16 | classes u32 | dim u32
//!          | record_len u32 | count u32
//! record:  label u32 | dim × f32 | zero padding up to record_len
//! ```
//!
//! `record_len` is the dataset's storage bytes-per-sample, so a CIFAR-like
//! dataset really occupies 3 KB per record on the simulated flash even
//! though its feature vector is much smaller — the padding stands in for
//! the raw pixels the paper's SmartSSD stores and moves.

use crate::dataset::Dataset;
use std::fmt;

/// File magic.
pub const MAGIC: &[u8; 4] = b"NSSA";
/// Format version.
pub const VERSION: u16 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 4 + 4 + 4;

/// Errors from decoding a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The stream ended before the advertised contents.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes available.
        actual: usize,
    },
    /// A field failed validation.
    Corrupt(&'static str),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::BadMagic => write!(f, "bad magic; not a NeSSA record stream"),
            RecordError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            RecordError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated stream: expected {expected} bytes, got {actual}"
                )
            }
            RecordError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// On-flash bytes per record for a dataset: the declared storage footprint,
/// but never less than the encoded payload (label + features).
pub fn record_len(dim: usize, bytes_per_sample: usize) -> usize {
    (4 + 4 * dim).max(bytes_per_sample)
}

/// Total encoded length of a dataset, header included.
pub fn encoded_len(dataset: &Dataset) -> usize {
    HEADER_LEN + dataset.len() * record_len(dataset.dim(), dataset.bytes_per_sample())
}

/// Serializes a dataset into its on-flash representation.
pub fn encode_dataset(dataset: &Dataset) -> Vec<u8> {
    let rec_len = record_len(dataset.dim(), dataset.bytes_per_sample());
    let mut buf = Vec::with_capacity(encoded_len(dataset));
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(dataset.classes() as u32).to_le_bytes());
    buf.extend_from_slice(&(dataset.dim() as u32).to_le_bytes());
    buf.extend_from_slice(&(rec_len as u32).to_le_bytes());
    buf.extend_from_slice(&(dataset.len() as u32).to_le_bytes());
    let payload = 4 + 4 * dataset.dim();
    for i in 0..dataset.len() {
        buf.extend_from_slice(&(dataset.label(i) as u32).to_le_bytes());
        for &v in dataset.sample(i) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.resize(buf.len() + (rec_len - payload), 0);
    }
    buf
}

/// A little-endian cursor over a byte slice (the decode-side counterpart
/// of the plain `Vec<u8>` encoder above). Every read is bounds-checked
/// and returns [`RecordError::Truncated`] on a short stream — no read
/// can panic, however damaged the input.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        if self.bytes.len() < n {
            return Err(RecordError::Truncated {
                expected: n,
                actual: self.bytes.len(),
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn get_u16_le(&mut self) -> Result<u16, RecordError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32_le(&mut self) -> Result<u32, RecordError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_f32_le(&mut self) -> Result<f32, RecordError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Deserializes a dataset from its on-flash representation.
///
/// # Errors
///
/// Returns a [`RecordError`] when the stream is malformed: wrong magic or
/// version, truncated contents, or labels out of range.
pub fn decode_dataset(name: &str, bytes: &[u8]) -> Result<Dataset, RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    let mut bytes = Cursor { bytes };
    if bytes.take(4)? != MAGIC {
        return Err(RecordError::BadMagic);
    }
    let version = bytes.get_u16_le()?;
    if version != VERSION {
        return Err(RecordError::BadVersion(version));
    }
    let classes = bytes.get_u32_le()? as usize;
    let dim = bytes.get_u32_le()? as usize;
    let rec_len = bytes.get_u32_le()? as usize;
    let count = bytes.get_u32_le()? as usize;
    if classes == 0 {
        return Err(RecordError::Corrupt("zero classes"));
    }
    if rec_len < 4 + 4 * dim {
        return Err(RecordError::Corrupt("record length below payload size"));
    }
    let need = count * rec_len;
    if bytes.remaining() < need {
        return Err(RecordError::Truncated {
            expected: HEADER_LEN + need,
            actual: HEADER_LEN + bytes.remaining(),
        });
    }
    let mut features = Vec::with_capacity(count * dim);
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        let mut rec = Cursor {
            bytes: bytes.take(rec_len)?,
        };
        // `rec_len ≥ 4 + 4·dim` was validated with the header, so these
        // in-record reads cannot fail.
        let label = rec.get_u32_le()? as usize;
        if label >= classes {
            return Err(RecordError::Corrupt("label out of range"));
        }
        for _ in 0..dim {
            features.push(rec.get_f32_le()?);
        }
        labels.push(label);
    }
    let x = nessa_tensor::Tensor::from_vec(features, &[labels.len(), dim]);
    Ok(Dataset::new(name, x, labels, classes, rec_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;

    fn toy() -> Dataset {
        let cfg = SynthConfig {
            train: 40,
            test: 10,
            dim: 8,
            classes: 4,
            bytes_per_sample: 100,
            ..SynthConfig::default()
        };
        cfg.generate().0
    }

    #[test]
    fn round_trip() {
        let d = toy();
        let enc = encode_dataset(&d);
        assert_eq!(enc.len(), encoded_len(&d));
        let back = decode_dataset("toy", &enc).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.features().as_slice(), d.features().as_slice());
        assert_eq!(back.classes(), d.classes());
    }

    #[test]
    fn record_len_has_payload_floor() {
        assert_eq!(record_len(8, 100), 100);
        assert_eq!(record_len(100, 10), 404);
    }

    #[test]
    fn padding_reflects_storage_footprint() {
        let d = toy();
        // 40 records × 100 bytes + header.
        assert_eq!(encoded_len(&d), HEADER_LEN + 4000);
    }

    #[test]
    fn rejects_bad_magic() {
        let d = toy();
        let mut enc = encode_dataset(&d).to_vec();
        enc[0] = b'X';
        assert_eq!(decode_dataset("x", &enc), Err(RecordError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let d = toy();
        let mut enc = encode_dataset(&d).to_vec();
        enc[4] = 99;
        assert!(matches!(
            decode_dataset("x", &enc),
            Err(RecordError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let d = toy();
        let enc = encode_dataset(&d);
        let cut = &enc[..enc.len() - 10];
        assert!(matches!(
            decode_dataset("x", cut),
            Err(RecordError::Truncated { .. })
        ));
        assert!(matches!(
            decode_dataset("x", &enc[..3]),
            Err(RecordError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_label() {
        let d = toy();
        let mut enc = encode_dataset(&d).to_vec();
        // First record's label field sits right after the header.
        enc[HEADER_LEN] = 200;
        assert_eq!(
            decode_dataset("x", &enc),
            Err(RecordError::Corrupt("label out of range"))
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            RecordError::BadMagic,
            RecordError::BadVersion(2),
            RecordError::Truncated {
                expected: 10,
                actual: 5,
            },
            RecordError::Corrupt("x"),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
