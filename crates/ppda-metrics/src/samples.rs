//! Exact, order-preserving storage for a long stream of `f64` samples.

use std::collections::HashMap;
use std::fmt;

/// Distinct values a [`SampleLog`] codes before it stores samples raw.
const MAX_CODES: usize = 1 << 16;

/// An append-only `f64` sample sequence, kept exactly and in insertion
/// order.
///
/// Campaign samples are simulated times on a slot grid, so a few hundred
/// distinct values recur across thousands of rounds. The log keeps each
/// distinct value (by bit pattern) once and one 16-bit code per sample:
/// a quarter of the memory of a `Vec<f64>`, which matters because a fleet
/// keeps every sample of every round for exact quantiles. Past 65 536
/// distinct values it falls back to storing every sample raw.
#[derive(Clone, Default)]
pub(crate) struct SampleLog {
    /// Coded mode: each distinct value once, its code by bit pattern, and
    /// one code per sample.
    values: Vec<f64>,
    code_of: HashMap<u64, u16>,
    codes: Vec<u16>,
    /// Raw mode, once the code space ran out: every sample in order.
    raw: Option<Vec<f64>>,
}

impl SampleLog {
    /// Samples recorded.
    pub(crate) fn len(&self) -> usize {
        self.raw.as_ref().map_or(self.codes.len(), Vec::len)
    }

    /// Append one sample.
    pub(crate) fn push(&mut self, x: f64) {
        if self.raw.is_none() {
            if let Some(code) = self.code(x) {
                self.codes.push(code);
                return;
            }
            self.go_raw();
        }
        self.raw.as_mut().expect("raw mode").push(x);
    }

    /// Append every sample of `other`, in its order.
    pub(crate) fn extend_from(&mut self, other: &SampleLog) {
        if self.len() == 0 {
            self.clone_from(other);
            return;
        }
        if self.raw.is_none() && other.raw.is_none() {
            let map: Option<Vec<u16>> = other.values.iter().map(|&v| self.code(v)).collect();
            if let Some(map) = map {
                self.codes
                    .extend(other.codes.iter().map(|&c| map[usize::from(c)]));
                return;
            }
            self.go_raw();
        } else if self.raw.is_none() {
            self.go_raw();
        }
        let raw = self.raw.as_mut().expect("raw mode");
        raw.reserve(other.len());
        other.for_each(|x| raw.push(x));
    }

    /// Visit every sample in insertion order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(f64)) {
        match &self.raw {
            Some(raw) => raw.iter().for_each(|&x| f(x)),
            None => self
                .codes
                .iter()
                .for_each(|&c| f(self.values[usize::from(c)])),
        }
    }

    /// The samples as a plain vector, in insertion order.
    pub(crate) fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|x| out.push(x));
        out
    }

    /// The code of `x`, assigning the next one to a new value; `None`
    /// when the code space is exhausted.
    fn code(&mut self, x: f64) -> Option<u16> {
        if let Some(&code) = self.code_of.get(&x.to_bits()) {
            return Some(code);
        }
        if self.values.len() == MAX_CODES {
            return None;
        }
        let code = self.values.len() as u16;
        self.values.push(x);
        self.code_of.insert(x.to_bits(), code);
        Some(code)
    }

    /// Switch to raw mode, expanding the samples coded so far.
    fn go_raw(&mut self) {
        let raw = self.to_vec();
        *self = SampleLog {
            raw: Some(raw),
            ..SampleLog::default()
        };
    }
}

impl From<Vec<f64>> for SampleLog {
    fn from(samples: Vec<f64>) -> Self {
        let mut log = SampleLog::default();
        samples.into_iter().for_each(|x| log.push(x));
        log
    }
}

/// Formats like the `Vec<f64>` it stands for.
impl fmt::Debug for SampleLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        self.for_each(|x| {
            list.entry(&x);
        });
        list.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn keeps_order_and_bit_patterns() {
        let xs = [1.5, 0.0, -0.0, 1.5, f64::NAN, 2.25, 0.0, f64::INFINITY];
        let mut log = SampleLog::default();
        xs.iter().for_each(|&x| log.push(x));
        assert_eq!(log.len(), xs.len());
        assert_eq!(bits(&log.to_vec()), bits(&xs));
        assert_eq!(log.values.len(), 6, "repeats share a code");
        assert_eq!(format!("{log:?}"), format!("{:?}", xs.to_vec()));
    }

    #[test]
    fn extend_translates_codes() {
        let mut a = SampleLog::from(vec![3.0, 1.0, 3.0]);
        let b = SampleLog::from(vec![1.0, 7.0, 7.0, 3.0]);
        a.extend_from(&b);
        assert_eq!(a.to_vec(), vec![3.0, 1.0, 3.0, 1.0, 7.0, 7.0, 3.0]);
        assert_eq!(a.values.len(), 3);
    }

    #[test]
    fn falls_back_to_raw_past_the_code_space() {
        let n = MAX_CODES + 10;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let log = SampleLog::from(xs.clone());
        assert!(log.raw.is_some());
        assert_eq!(bits(&log.to_vec()), bits(&xs));

        // Either side in raw mode, or a merge that overflows: still exact.
        let small = SampleLog::from(vec![9.0, 9.0]);
        let mut merged = small.clone();
        merged.extend_from(&log);
        let mut expect = vec![9.0, 9.0];
        expect.extend_from_slice(&xs);
        assert_eq!(bits(&merged.to_vec()), bits(&expect));
        let mut merged = log.clone();
        merged.extend_from(&small);
        let mut expect = xs.clone();
        expect.extend_from_slice(&[9.0, 9.0]);
        assert_eq!(bits(&merged.to_vec()), bits(&expect));

        let half: Vec<f64> = (0..MAX_CODES / 2 + 1).map(|i| i as f64).collect();
        let other: Vec<f64> = (0..MAX_CODES / 2 + 1).map(|i| -(i as f64) - 1.0).collect();
        let mut merged = SampleLog::from(half.clone());
        merged.extend_from(&SampleLog::from(other.clone()));
        assert!(merged.raw.is_some());
        let mut expect = half;
        expect.extend_from_slice(&other);
        assert_eq!(bits(&merged.to_vec()), bits(&expect));
    }
}
