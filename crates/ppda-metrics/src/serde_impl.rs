//! Feature-gated serde support for [`CampaignAccumulator`].
//!
//! The vendored serde subset has no derive macro and no struct data model,
//! so an accumulator serializes as a single length-prefixed byte string:
//! a version tag, the six counters, the margin histogram and both flat
//! sample buffers, all little-endian. Sample values round-trip through
//! their IEEE-754 bit patterns, so a restored accumulator's summaries are
//! bit-identical to the snapshotted one's.

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use crate::samples::SampleLog;
use crate::CampaignAccumulator;

const FORMAT_VERSION: u8 = 1;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, values: &SampleLog) {
    put_u64(out, values.len() as u64);
    values.for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err("campaign accumulator blob truncated".to_owned());
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        // A length prefix can never exceed the bytes that remain, so a
        // corrupt prefix fails here instead of in a huge allocation.
        if n > self.bytes.len() as u64 {
            return Err("campaign accumulator blob truncated".to_owned());
        }
        Ok(n as usize)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        (0..n).map(|_| self.u64()).collect()
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        (0..n).map(|_| Ok(f64::from_bits(self.u64()?))).collect()
    }
}

impl CampaignAccumulator {
    /// Encode to the versioned byte format behind the serde impls.
    ///
    /// Public so hand-rolled container formats (e.g. campaign
    /// checkpoints) can embed an accumulator as one length-prefixed field;
    /// [`CampaignAccumulator::from_blob`] inverts it bit-exactly.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 8 * (6 + 3)
                + 8 * (self.margin_hist.len() + self.latencies.len() + self.radios.len()),
        );
        out.push(FORMAT_VERSION);
        put_u64(&mut out, self.node_ok);
        put_u64(&mut out, self.node_total);
        put_u64(&mut out, self.round_ok);
        put_u64(&mut out, self.rounds);
        put_u64(&mut out, self.recovered);
        put_u64(&mut out, self.recovery_failed);
        put_u64(&mut out, self.margin_hist.len() as u64);
        for &count in &self.margin_hist {
            put_u64(&mut out, count);
        }
        put_f64s(&mut out, &self.latencies);
        put_f64s(&mut out, &self.radios);
        out
    }

    /// Decode the versioned byte format produced by
    /// [`CampaignAccumulator::to_blob`].
    ///
    /// # Errors
    ///
    /// A human-readable message on version mismatch, truncation or
    /// trailing bytes.
    pub fn from_blob(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes };
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported campaign accumulator blob version {version}"
            ));
        }
        let node_ok = r.u64()?;
        let node_total = r.u64()?;
        let round_ok = r.u64()?;
        let rounds = r.u64()?;
        let recovered = r.u64()?;
        let recovery_failed = r.u64()?;
        let hist_len = r.len()?;
        let margin_hist = r.u64s(hist_len)?;
        let lat_len = r.len()?;
        let latencies = SampleLog::from(r.f64s(lat_len)?);
        let radio_len = r.len()?;
        let radios = SampleLog::from(r.f64s(radio_len)?);
        if !r.bytes.is_empty() {
            return Err("trailing bytes after campaign accumulator blob".to_owned());
        }
        Ok(CampaignAccumulator {
            latencies,
            radios,
            node_ok,
            node_total,
            round_ok,
            rounds,
            recovered,
            recovery_failed,
            margin_hist,
        })
    }
}

impl Serialize for CampaignAccumulator {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.to_blob())
    }
}

impl<'de> Deserialize<'de> for CampaignAccumulator {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(deserializer)?;
        CampaignAccumulator::from_blob(&bytes).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{from_value, to_value};

    fn sample() -> CampaignAccumulator {
        let mut acc = CampaignAccumulator::new();
        acc.record_round(true);
        acc.record_round(false);
        acc.record_node(true, Some(10.5), 1.25);
        acc.record_node(false, None, 2.5);
        acc.record_recovery(Some(2));
        acc.record_recovery(None);
        acc
    }

    #[test]
    fn blob_round_trip_is_bit_exact() {
        let acc = sample();
        let back = CampaignAccumulator::from_blob(&acc.to_blob()).unwrap();
        assert_eq!(back.rounds(), acc.rounds());
        assert_eq!(back.round_success(), acc.round_success());
        assert_eq!(back.node_success(), acc.node_success());
        assert_eq!(back.latency(), acc.latency());
        assert_eq!(back.radio_on(), acc.radio_on());
        assert_eq!(back.margin_histogram(), acc.margin_histogram());
        assert_eq!(back.to_blob(), acc.to_blob());
    }

    #[test]
    fn value_round_trip_matches_blob_round_trip() {
        let acc = sample();
        let back: CampaignAccumulator = from_value(to_value(&acc).unwrap()).unwrap();
        assert_eq!(back.to_blob(), acc.to_blob());
    }

    #[test]
    fn empty_accumulator_round_trips() {
        let acc = CampaignAccumulator::new();
        let back = CampaignAccumulator::from_blob(&acc.to_blob()).unwrap();
        assert_eq!(back.to_blob(), acc.to_blob());
        assert_eq!(back.rounds(), 0);
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = sample().to_blob();
        assert!(CampaignAccumulator::from_blob(&blob[..blob.len() - 1]).is_err());
        // A corrupt length prefix fails cleanly, not with a huge alloc.
        let mut corrupt = blob.clone();
        corrupt[1 + 8 * 6] = 0xFF;
        corrupt[1 + 8 * 6 + 7] = 0xFF;
        assert!(CampaignAccumulator::from_blob(&corrupt).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut blob = sample().to_blob();
        blob[0] = 99;
        assert!(CampaignAccumulator::from_blob(&blob).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = sample().to_blob();
        blob.push(0);
        assert!(CampaignAccumulator::from_blob(&blob).is_err());
    }
}
