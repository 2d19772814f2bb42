//! The functional backing store: a sparse, word-granular main memory.
//!
//! Unwritten words read as zero, so the simulator never needs to
//! pre-initialize the address space. All addresses here are *global word
//! addresses* (byte address divided by the word size — see
//! [`Geometry::word_addr`](wbsim_types::addr::Geometry::word_addr)).

use wbsim_types::addr::{Geometry, LineAddr, WordMap, WordMask};

/// Sparse word-addressed main memory.
///
/// # Example
///
/// ```
/// use wbsim_mem::MainMemory;
///
/// let mut m = MainMemory::new();
/// assert_eq!(m.read_word(7), 0, "unwritten words read as zero");
/// m.write_word(7, 42);
/// assert_eq!(m.read_word(7), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    /// Nonzero words only. Never iterated, so the hasher's order cannot
    /// reach any output.
    words: WordMap<u64>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at global word address `word_addr`.
    #[must_use]
    pub fn read_word(&self, word_addr: u64) -> u64 {
        self.words.get(&word_addr).copied().unwrap_or(0)
    }

    /// Writes the word at global word address `word_addr`.
    pub fn write_word(&mut self, word_addr: u64, value: u64) {
        if value == 0 {
            self.words.remove(&word_addr);
        } else {
            self.words.insert(word_addr, value);
        }
    }

    /// Reads a whole line into a freshly allocated vector
    /// ([`MainMemory::read_line_into`] without the caller's buffer).
    #[must_use]
    pub fn read_line(&self, geometry: &Geometry, line: LineAddr) -> Vec<u64> {
        let mut out = vec![0; geometry.words_per_line()];
        self.read_line_into(geometry, line, &mut out);
        out
    }

    /// Reads a whole line into `out` (which must have `words_per_line`
    /// capacity), avoiding allocation on the hot path.
    pub fn read_line_into(&self, geometry: &Geometry, line: LineAddr, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate().take(geometry.words_per_line()) {
            *slot = self.read_word(geometry.word_addr_in_line(line, i));
        }
    }

    /// Writes the words of `data` selected by `mask` into line `line`.
    pub fn write_line_masked(
        &mut self,
        geometry: &Geometry,
        line: LineAddr,
        mask: WordMask,
        data: &[u64],
    ) {
        for i in mask.iter() {
            self.write_word(geometry.word_addr_in_line(line, i), data[i]);
        }
    }

    /// Number of distinct nonzero words currently stored (for tests and
    /// memory-footprint reporting).
    #[must_use]
    pub fn resident_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::addr::Addr;

    #[test]
    fn zero_default_and_roundtrip() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_word(123), 0);
        m.write_word(123, 7);
        assert_eq!(m.read_word(123), 7);
        m.write_word(123, 0);
        assert_eq!(m.read_word(123), 0);
        assert_eq!(m.resident_words(), 0, "zero writes do not leak storage");
    }

    #[test]
    fn line_read_matches_word_reads() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        let line = g.line_of(Addr::new(0x2000));
        for i in 0..4 {
            m.write_word(g.word_addr_in_line(line, i), 100 + i as u64);
        }
        assert_eq!(m.read_line(&g, line), vec![100, 101, 102, 103]);
        let mut buf = [0u64; 4];
        m.read_line_into(&g, line, &mut buf);
        assert_eq!(buf, [100, 101, 102, 103]);
    }

    #[test]
    fn masked_write_only_touches_selected_words() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        let line = LineAddr::new(9);
        for i in 0..4 {
            m.write_word(g.word_addr_in_line(line, i), 1);
        }
        let mut mask = WordMask::empty();
        mask.set(1);
        mask.set(3);
        m.write_line_masked(&g, line, mask, &[50, 51, 52, 53]);
        assert_eq!(m.read_line(&g, line), vec![1, 51, 1, 53]);
    }

    #[test]
    fn lines_do_not_alias() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        m.write_word(g.word_addr_in_line(LineAddr::new(1), 0), 11);
        m.write_word(g.word_addr_in_line(LineAddr::new(2), 0), 22);
        assert_eq!(m.read_line(&g, LineAddr::new(1))[0], 11);
        assert_eq!(m.read_line(&g, LineAddr::new(2))[0], 22);
    }
}
