//! Physical page state tracking.
//!
//! The flash translation layer needs to know, for every physical page,
//! whether it is free (erased), holds valid data, or holds stale (invalid)
//! data awaiting garbage collection; and, for every block, how many times it
//! has been erased (for wear-leveling) and whether it has been retired as a
//! bad block.
//!
//! Only **touched** blocks (programmed, erased or retired at least once)
//! carry a record. Records live in a two-level table: a slot per 64-block
//! chunk, allocated on the first touch of any of its blocks, and absent
//! blocks read as pristine. Each record holds the block's erase count, bad
//! flag, invalid-page count and the page codes below its write pointer —
//! flash programs sequentially, so every page at or above the pointer is
//! free and needs no storage. A pristine paper-scale array (262,144 blocks
//! of 196 pages) is a 64 KiB table of empty slots, where dense per-page and
//! per-block columns would be ~55 MiB the allocator must zero or fault in
//! page by page. Building a device and placing a program therefore pay for
//! the blocks the program touches, not for the whole array, and indexing a
//! block stays O(1). Aggregates the hot paths ask for on every
//! operation (`page_totals`, per-block page counts, wear statistics) are
//! maintained incrementally and answered in O(1) instead of rescanning.

use crate::geometry::FlashGeometry;
use conduit_types::bytes::{put_u32, put_u64, Reader};
use conduit_types::{ConduitError, FlashConfig, PhysicalPageAddr, Result};

/// The lifecycle state of one physical flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// Erased and available for programming.
    #[default]
    Free,
    /// Programmed and mapped by the FTL.
    Valid,
    /// Programmed but superseded; reclaimable by garbage collection.
    Invalid,
}

const PAGE_FREE: u8 = 0;
const PAGE_VALID: u8 = 1;
const PAGE_INVALID: u8 = 2;

fn decode_page(code: u8) -> PageState {
    match code {
        PAGE_VALID => PageState::Valid,
        PAGE_INVALID => PageState::Invalid,
        _ => PageState::Free,
    }
}

/// How a checkpoint stores the flash array: the layout
/// [`FlashState::decode_from`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashLayout {
    /// Every block in index order, each with all `pages_per_block` page
    /// states packed. Read-only: only legacy checkpoints carry it.
    Dense,
    /// Touched blocks only, keyed by index, each with the page states below
    /// its write pointer ([`FlashState::encode_sparse_into`]).
    Sparse,
}

/// Blocks per lazily allocated chunk of block records.
const CHUNK_BLOCKS: usize = 64;

/// The bookkeeping of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockRecord {
    erase_count: u64,
    /// Page codes below the write pointer: the length *is* the write
    /// pointer.
    codes: Vec<u8>,
    invalid: u32,
    bad: bool,
}

/// What every block not yet in the table reads as.
static PRISTINE: BlockRecord = BlockRecord {
    erase_count: 0,
    codes: Vec::new(),
    invalid: 0,
    bad: false,
};

impl BlockRecord {
    /// Never programmed, never erased, not retired: indistinguishable from
    /// a factory-fresh block, so it carries no information.
    fn is_pristine(&self) -> bool {
        self.erase_count == 0 && !self.bad && self.codes.is_empty()
    }

    fn write_pointer(&self) -> u32 {
        self.codes.len() as u32
    }
}

/// A by-value view of one block's bookkeeping: erase count, bad flag, write
/// pointer and page counts. Cheap to copy; reading one costs a chunk-slot
/// load and a record load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    erase_count: u64,
    bad: bool,
    write_pointer: u32,
    pages_per_block: u32,
    invalid: u32,
}

impl BlockInfo {
    /// Number of times this block has been erased.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Whether the block has been retired.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Number of pages in each state: `(free, valid, invalid)`.
    ///
    /// Flash programs sequentially, so every page below the write pointer is
    /// `Valid` or `Invalid` and every page at or above it is `Free`; the
    /// counts fall out of the write pointer and the maintained invalid
    /// count without touching the page codes.
    pub fn page_counts(&self) -> (u32, u32, u32) {
        let free = self.pages_per_block - self.write_pointer;
        let valid = self.write_pointer - self.invalid;
        (free, valid, self.invalid)
    }

    /// The next programmable page index, if the block is not full.
    pub fn next_free_page(&self) -> Option<u32> {
        if self.bad || self.write_pointer >= self.pages_per_block {
            None
        } else {
            Some(self.write_pointer)
        }
    }
}

/// State of every physical page and block in the flash array.
///
/// Equality compares the touched blocks and the aggregates: an allocated
/// chunk slot whose other blocks are still pristine equals an absent one.
///
/// # Examples
///
/// ```
/// use conduit_flash::{FlashState, PageState};
/// use conduit_types::SsdConfig;
///
/// let cfg = SsdConfig::small_for_tests();
/// let mut state = FlashState::new(&cfg.flash);
/// let addr = state.geometry().addr_of(0);
/// state.program(addr)?;
/// assert_eq!(state.page_state(addr), PageState::Valid);
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlashState {
    geometry: FlashGeometry,
    pages_per_block: u32,
    total_blocks: u64,
    /// Slot `i` holds the records of blocks `i * CHUNK_BLOCKS ..`; `None`
    /// until one of them is first touched.
    chunks: Vec<Option<Box<[BlockRecord]>>>,
    /// Array-wide running totals, maintained on every transition.
    valid_pages: u64,
    invalid_pages: u64,
    total_erases: u64,
    max_erases: u64,
    /// Number of blocks with a non-zero erase count (the wear minimum is
    /// zero until every block has been erased at least once).
    erased_blocks: u64,
}

impl PartialEq for FlashState {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
            && self.valid_pages == other.valid_pages
            && self.invalid_pages == other.invalid_pages
            && self.total_erases == other.total_erases
            && self.max_erases == other.max_erases
            && self.erased_blocks == other.erased_blocks
            && self.touched().eq(other.touched())
    }
}

impl Eq for FlashState {}

impl FlashState {
    /// Creates a fully-erased flash array: an empty chunk table, so this
    /// performs no per-block work.
    pub fn new(cfg: &FlashConfig) -> Self {
        let geometry = FlashGeometry::new(cfg);
        let total_blocks = geometry.total_blocks();
        FlashState {
            geometry,
            pages_per_block: cfg.pages_per_block,
            total_blocks,
            chunks: vec![None; (total_blocks as usize).div_ceil(CHUNK_BLOCKS)],
            valid_pages: 0,
            invalid_pages: 0,
            total_erases: 0,
            max_erases: 0,
            erased_blocks: 0,
        }
    }

    /// The flash geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The record of block `b`, pristine if it was never touched.
    fn record(&self, b: u64) -> &BlockRecord {
        let b = b as usize;
        match &self.chunks[b / CHUNK_BLOCKS] {
            Some(chunk) => &chunk[b % CHUNK_BLOCKS],
            None => &PRISTINE,
        }
    }

    /// The record of block `b`, allocating its chunk on first touch.
    fn record_mut(&mut self, b: u64) -> &mut BlockRecord {
        let b = b as usize;
        let total = self.total_blocks as usize;
        let chunk = self.chunks[b / CHUNK_BLOCKS].get_or_insert_with(|| {
            let first = b - b % CHUNK_BLOCKS;
            vec![PRISTINE.clone(); CHUNK_BLOCKS.min(total - first)].into_boxed_slice()
        });
        &mut chunk[b % CHUNK_BLOCKS]
    }

    /// Every record in an allocated chunk, in block order.
    fn records(&self) -> impl Iterator<Item = (u64, &BlockRecord)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(i, chunk)| chunk.as_deref().map(|c| (i * CHUNK_BLOCKS, c)))
            .flat_map(|(first, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(j, rec)| ((first + j) as u64, rec))
            })
    }

    /// The touched blocks, in block order.
    fn touched(&self) -> impl Iterator<Item = (u64, &BlockRecord)> {
        self.records().filter(|(_, rec)| !rec.is_pristine())
    }

    /// Block bookkeeping for the block containing `addr`.
    pub fn block(&self, addr: PhysicalPageAddr) -> BlockInfo {
        self.block_by_index(self.geometry.block_index_of(addr))
    }

    /// Block bookkeeping by flat block index.
    pub fn block_by_index(&self, block_index: u64) -> BlockInfo {
        let rec = self.record(block_index);
        BlockInfo {
            erase_count: rec.erase_count,
            bad: rec.bad,
            write_pointer: rec.write_pointer(),
            pages_per_block: self.pages_per_block,
            invalid: rec.invalid,
        }
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// The state of a single physical page.
    pub fn page_state(&self, addr: PhysicalPageAddr) -> PageState {
        let rec = self.record(self.geometry.block_index_of(addr));
        decode_page(
            rec.codes
                .get(addr.page as usize)
                .copied()
                .unwrap_or(PAGE_FREE),
        )
    }

    /// Marks a page as programmed with valid data.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the page is not free, is not
    /// the block's next sequential page, or the block is bad — all of which
    /// indicate an FTL bug.
    pub fn program(&mut self, addr: PhysicalPageAddr) -> Result<()> {
        let b = self.geometry.block_index_of(addr);
        let rec = self.record(b);
        if rec.bad {
            return Err(ConduitError::simulation(format!(
                "program to bad block at {addr}"
            )));
        }
        if rec
            .codes
            .get(addr.page as usize)
            .is_some_and(|&code| code != PAGE_FREE)
        {
            return Err(ConduitError::simulation(format!(
                "program to non-free page at {addr}"
            )));
        }
        if rec.write_pointer() != addr.page as u32 {
            return Err(ConduitError::simulation(format!(
                "out-of-order program at {addr} (write pointer {})",
                rec.write_pointer()
            )));
        }
        let pages_per_block = self.pages_per_block as usize;
        let rec = self.record_mut(b);
        if rec.codes.capacity() == 0 {
            rec.codes.reserve_exact(pages_per_block);
        }
        rec.codes.push(PAGE_VALID);
        self.valid_pages += 1;
        Ok(())
    }

    /// Marks a valid page as invalid (its logical page was remapped).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the page is not valid.
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<()> {
        let b = self.geometry.block_index_of(addr) as usize;
        let page = addr.page as usize;
        // An absent block holds no valid page, so a rejected invalidate
        // never allocates.
        let Some(rec) = self.chunks[b / CHUNK_BLOCKS]
            .as_deref_mut()
            .map(|chunk| &mut chunk[b % CHUNK_BLOCKS])
            .filter(|rec| rec.codes.get(page) == Some(&PAGE_VALID))
        else {
            return Err(ConduitError::simulation(format!(
                "invalidate of non-valid page at {addr}"
            )));
        };
        rec.codes[page] = PAGE_INVALID;
        rec.invalid += 1;
        self.valid_pages -= 1;
        self.invalid_pages += 1;
        Ok(())
    }

    /// Erases a block, freeing all its pages and bumping its erase count.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the block still contains
    /// valid pages (the FTL must relocate them first) or is bad.
    pub fn erase_block(&mut self, block_index: u64) -> Result<()> {
        let rec = self.record(block_index);
        if rec.bad {
            return Err(ConduitError::simulation("erase of bad block"));
        }
        // Every page below the write pointer is Valid or Invalid; pages at
        // or beyond it are Free. A block still holding valid pages must be
        // collected first.
        if rec.write_pointer() > rec.invalid {
            return Err(ConduitError::simulation(
                "erase of block that still holds valid pages",
            ));
        }
        let rec = self.record_mut(block_index);
        let invalid = rec.invalid;
        rec.codes.clear();
        rec.invalid = 0;
        rec.erase_count += 1;
        let erases = rec.erase_count;
        self.invalid_pages -= invalid as u64;
        if erases == 1 {
            self.erased_blocks += 1;
        }
        self.total_erases += 1;
        self.max_erases = self.max_erases.max(erases);
        Ok(())
    }

    /// Retires a block as bad. Its pages become unusable.
    pub fn mark_bad(&mut self, block_index: u64) {
        self.record_mut(block_index).bad = true;
    }

    /// Totals across the whole array: `(free, valid, invalid)` pages.
    /// Maintained incrementally, so this is O(1) — it sits on the garbage
    /// collector's should-run check, which runs on every rewrite.
    pub fn page_totals(&self) -> (u64, u64, u64) {
        let total = self.total_blocks * self.pages_per_block as u64;
        let free = total - self.valid_pages - self.invalid_pages;
        (free, self.valid_pages, self.invalid_pages)
    }

    /// The block (if any) with the most invalid pages, ties broken by the
    /// lowest index — the garbage collector's victim-selection rule,
    /// answered from the per-block invalid counts of the touched blocks
    /// without touching page codes.
    pub fn most_invalid_block(&self) -> Option<u64> {
        let mut best: Option<(u64, u32)> = None;
        for (b, rec) in self.records() {
            if rec.invalid == 0 || rec.bad {
                continue;
            }
            match best {
                Some((_, best_invalid)) if rec.invalid <= best_invalid => {}
                _ => best = Some((b, rec.invalid)),
            }
        }
        best.map(|(b, _)| b)
    }

    /// Appends one block's erase count, bad flag and write pointer, then its
    /// page states below the write pointer packed four to a byte (Free=0,
    /// Valid=1, Invalid=2).
    fn encode_record(rec: &BlockRecord, out: &mut Vec<u8>) {
        put_u64(out, rec.erase_count);
        out.push(u8::from(rec.bad));
        put_u32(out, rec.write_pointer());
        let start = out.len();
        out.resize(start + rec.codes.len().div_ceil(4), 0);
        for (i, &code) in rec.codes.iter().enumerate() {
            out[start + i / 4] |= code << (2 * (i % 4));
        }
    }

    /// Appends a **delta-against-pristine** image of the array
    /// ([`FlashLayout::Sparse`]): only touched blocks (programmed, erased or
    /// retired at least once) are stored, keyed by block index, and within
    /// each block only the first `write_pointer` page states are packed —
    /// pages at or beyond the write pointer are `Free` by the
    /// sequential-programming invariant. A cold device therefore encodes to
    /// a handful of bytes regardless of array size. The geometry is *not*
    /// stored — it is a pure function of the [`FlashConfig`] the decoder is
    /// given.
    pub fn encode_sparse_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.total_blocks);
        put_u64(out, self.touched().count() as u64);
        for (b, rec) in self.touched() {
            put_u64(out, b);
            Self::encode_record(rec, out);
        }
    }

    /// Reads one block's erase count, bad flag, write pointer and packed
    /// page codes. The dense layout stores all `pages_per_block` codes,
    /// and those at or beyond the write pointer must be `Free` (flash
    /// programs sequentially, so such a state is impossible on a real
    /// device — and the sparse layout relies on the invariant to omit
    /// those pages, so accepting it would silently drop the page on the
    /// next re-export); the sparse layout stores only the codes below the
    /// write pointer.
    fn decode_record(
        r: &mut Reader<'_>,
        pages_per_block: usize,
        layout: FlashLayout,
    ) -> Result<BlockRecord> {
        let erase_count = r.counter()?;
        let bad = match r.u8()? {
            0 => false,
            1 => true,
            v => {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "unknown bad-block flag {v}"
                )))
            }
        };
        let written = r.u32()? as usize;
        if written > pages_per_block {
            return Err(ConduitError::corrupt_checkpoint(
                "write pointer beyond block size",
            ));
        }
        let stored = match layout {
            FlashLayout::Dense => pages_per_block,
            FlashLayout::Sparse => written,
        };
        let packed = r.take(stored.div_ceil(4))?;
        let mut codes = Vec::with_capacity(if written > 0 { pages_per_block } else { 0 });
        for i in 0..stored {
            let code = (packed[i / 4] >> (2 * (i % 4))) & 0b11;
            if code > PAGE_INVALID {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "unknown page-state code {code}"
                )));
            }
            if i < written {
                codes.push(code);
            } else if code != PAGE_FREE {
                return Err(ConduitError::corrupt_checkpoint(
                    "programmed page at or beyond the block's write pointer",
                ));
            }
        }
        let invalid = codes.iter().filter(|&&code| code == PAGE_INVALID).count() as u32;
        Ok(BlockRecord {
            erase_count,
            codes,
            invalid,
            bad,
        })
    }

    /// Rebuilds the O(1) aggregates (page totals, wear totals) from the
    /// freshly decoded records.
    fn rebuild_aggregates(&mut self) {
        let mut valid_pages = 0;
        let mut invalid_pages = 0;
        let mut total_erases = 0;
        let mut max_erases = 0;
        let mut erased_blocks = 0;
        for (_, rec) in self.touched() {
            valid_pages += rec.codes.iter().filter(|&&code| code == PAGE_VALID).count() as u64;
            invalid_pages += rec.invalid as u64;
            total_erases += rec.erase_count;
            max_erases = max_erases.max(rec.erase_count);
            if rec.erase_count > 0 {
                erased_blocks += 1;
            }
        }
        self.valid_pages = valid_pages;
        self.invalid_pages = invalid_pages;
        self.total_erases = total_erases;
        self.max_erases = max_erases;
        self.erased_blocks = erased_blocks;
    }

    /// Decodes a flash image stored in `layout` for the given
    /// configuration. Blocks a sparse image omits, and dense records that
    /// carry no information, restore as pristine.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] on truncation, an
    /// unknown page-state code, a block count that does not match the
    /// geometry `cfg` describes, a write pointer beyond the block size, a
    /// non-`Free` page at or beyond a block's write pointer, or (sparse
    /// layout) out-of-range or non-increasing block indices.
    pub fn decode_from(cfg: &FlashConfig, r: &mut Reader<'_>, layout: FlashLayout) -> Result<Self> {
        let mut state = FlashState::new(cfg);
        let total = r.u64()?;
        if total != state.total_blocks {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "flash checkpoint has {total} blocks but the configuration describes {}",
                state.total_blocks
            )));
        }
        let pages_per_block = cfg.pages_per_block as usize;
        match layout {
            FlashLayout::Dense => {
                for b in 0..total {
                    let rec = Self::decode_record(r, pages_per_block, layout)?;
                    if !rec.is_pristine() {
                        *state.record_mut(b) = rec;
                    }
                }
            }
            FlashLayout::Sparse => {
                let touched = r.u64()?;
                if touched > total {
                    return Err(ConduitError::corrupt_checkpoint(format!(
                        "flash checkpoint stores {touched} touched blocks of only {total}"
                    )));
                }
                let mut prev_index: Option<u64> = None;
                for _ in 0..touched {
                    let index = r.u64()?;
                    if index >= total {
                        return Err(ConduitError::corrupt_checkpoint(format!(
                            "touched block index {index} outside the {total}-block array"
                        )));
                    }
                    if prev_index.is_some_and(|prev| index <= prev) {
                        return Err(ConduitError::corrupt_checkpoint(
                            "touched block indices must be strictly increasing",
                        ));
                    }
                    prev_index = Some(index);
                    *state.record_mut(index) = Self::decode_record(r, pages_per_block, layout)?;
                }
            }
        }
        state.rebuild_aggregates();
        Ok(state)
    }

    /// Wear statistics across blocks: `(min, max, mean)` erase counts.
    /// Answered from the maintained totals — the minimum is zero until
    /// every block has been erased at least once, which only a pathological
    /// workload reaches (and then it pays one scan).
    pub fn wear_stats(&self) -> (u64, u64, f64) {
        let min = if self.erased_blocks < self.total_blocks {
            0
        } else {
            self.touched()
                .map(|(_, rec)| rec.erase_count)
                .min()
                .unwrap_or(0)
        };
        let mean = if self.total_blocks == 0 {
            0.0
        } else {
            self.total_erases as f64 / self.total_blocks as f64
        };
        (min, self.max_erases, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::SsdConfig;

    fn state() -> FlashState {
        FlashState::new(&SsdConfig::small_for_tests().flash)
    }

    #[test]
    fn new_array_is_fully_free() {
        let s = state();
        let (free, valid, invalid) = s.page_totals();
        assert_eq!(valid, 0);
        assert_eq!(invalid, 0);
        assert_eq!(free, s.geometry().total_pages());
    }

    #[test]
    fn program_invalidate_erase_cycle() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        let a1 = s.geometry().addr_of(1);
        s.program(a0).unwrap();
        s.program(a1).unwrap();
        assert_eq!(s.page_state(a0), PageState::Valid);

        s.invalidate(a0).unwrap();
        s.invalidate(a1).unwrap();
        assert_eq!(s.page_state(a0), PageState::Invalid);

        let block = s.geometry().block_index_of(a0);
        s.erase_block(block).unwrap();
        assert_eq!(s.page_state(a0), PageState::Free);
        assert_eq!(s.block_by_index(block).erase_count(), 1);
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut s = state();
        let a5 = PhysicalPageAddr {
            page: 5,
            ..s.geometry().addr_of(0)
        };
        assert!(s.program(a5).is_err());
    }

    #[test]
    fn double_program_is_rejected() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        assert!(s.program(a0).is_err());
    }

    #[test]
    fn erase_with_valid_pages_is_rejected() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        let block = s.geometry().block_index_of(a0);
        assert!(s.erase_block(block).is_err());
    }

    #[test]
    fn bad_blocks_are_unusable() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        let block = s.geometry().block_index_of(a0);
        s.mark_bad(block);
        assert!(s.block_by_index(block).is_bad());
        assert!(s.program(a0).is_err());
        assert!(s.erase_block(block).is_err());
        assert_eq!(s.block_by_index(block).next_free_page(), None);
    }

    #[test]
    fn wear_stats_track_erases() {
        let mut s = state();
        s.erase_block(0).unwrap();
        s.erase_block(0).unwrap();
        s.erase_block(1).unwrap();
        let (min, max, mean) = s.wear_stats();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!(mean > 0.0);
    }

    #[test]
    fn wear_minimum_appears_once_every_block_has_been_erased() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        for b in 0..s.total_blocks() {
            s.erase_block(b).unwrap();
        }
        s.erase_block(0).unwrap();
        let (min, max, mean) = s.wear_stats();
        assert_eq!(min, 1);
        assert_eq!(max, 2);
        assert!(mean > 1.0);
    }

    #[test]
    fn aggregates_match_a_page_scan() {
        // The O(1) totals must agree with brute-force recounting after a
        // mixed program/invalidate/erase history.
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        for i in 0..12 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        for i in [0u64, 2, 4, 5] {
            s.invalidate(s.geometry().addr_of(i)).unwrap();
        }
        let mut free = 0u64;
        let mut valid = 0u64;
        let mut invalid = 0u64;
        for p in 0..s.geometry().total_pages() {
            match s.page_state(s.geometry().addr_of(p)) {
                PageState::Free => free += 1,
                PageState::Valid => valid += 1,
                PageState::Invalid => invalid += 1,
            }
        }
        assert_eq!(s.page_totals(), (free, valid, invalid));
        let b0 = s.block_by_index(0);
        let (bf, bv, bi) = b0.page_counts();
        assert_eq!(bf + bv + bi, cfg.pages_per_block);
    }

    #[test]
    fn most_invalid_block_follows_the_invalid_column() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        assert_eq!(s.most_invalid_block(), None);
        let ppb = cfg.pages_per_block as u64;
        // Block 0: one invalid page; block 1: two invalid pages.
        for i in 0..3 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        for i in ppb..ppb + 2 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        s.invalidate(s.geometry().addr_of(0)).unwrap();
        s.invalidate(s.geometry().addr_of(ppb)).unwrap();
        s.invalidate(s.geometry().addr_of(ppb + 1)).unwrap();
        assert_eq!(s.most_invalid_block(), Some(1));
        // Bad blocks are never victims.
        s.mark_bad(1);
        assert_eq!(s.most_invalid_block(), Some(0));
    }

    #[test]
    fn dense_decode_rejects_programmed_pages_beyond_the_write_pointer() {
        let cfg = SsdConfig::small_for_tests().flash;
        let s = FlashState::new(&cfg);
        // Dense layout: u64 block count, then per block
        // [u64 erases][u8 bad][u32 write_pointer][packed pages]. A pristine
        // array is all zeros after the block count.
        let record = 8 + 1 + 4 + (cfg.pages_per_block as usize).div_ceil(4);
        let mut buf = s.total_blocks().to_le_bytes().to_vec();
        buf.resize(8 + s.total_blocks() as usize * record, 0);
        assert_eq!(
            FlashState::decode_from(&cfg, &mut Reader::new(&buf), FlashLayout::Dense).unwrap(),
            s
        );
        // Mark block 0's first page Valid while its write pointer stays 0 —
        // a state a sequentially-programmed device can never reach.
        // Accepting it would silently drop the page on the next sparse
        // re-export.
        buf[8 + 8 + 1 + 4] = 0b01;
        assert!(FlashState::decode_from(&cfg, &mut Reader::new(&buf), FlashLayout::Dense).is_err());
    }

    #[test]
    fn sparse_checkpoint_roundtrips_and_skips_pristine_blocks() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        // A pristine array encodes to just the two headers.
        let mut cold = Vec::new();
        s.encode_sparse_into(&mut cold);
        assert_eq!(cold.len(), 16, "a cold array stores no blocks");
        let back =
            FlashState::decode_from(&cfg, &mut Reader::new(&cold), FlashLayout::Sparse).unwrap();
        assert_eq!(back, s);

        // Touch a handful of blocks; everything round-trips and the sparse
        // image stays much smaller than the dense one.
        let a0 = s.geometry().addr_of(0);
        let a1 = s.geometry().addr_of(1);
        s.program(a0).unwrap();
        s.program(a1).unwrap();
        s.invalidate(a0).unwrap();
        s.erase_block(s.geometry().total_blocks() - 1).unwrap();
        s.mark_bad(s.geometry().total_blocks() - 2);

        let mut sparse = Vec::new();
        s.encode_sparse_into(&mut sparse);
        let dense_len = 8 + s.total_blocks() as usize
            * (8 + 1 + 4 + (cfg.pages_per_block as usize).div_ceil(4));
        assert!(
            sparse.len() * 4 < dense_len,
            "sparse image ({} B) should be far below dense ({dense_len} B) on a mostly-cold array",
            sparse.len(),
        );
        let mut r = Reader::new(&sparse);
        let back = FlashState::decode_from(&cfg, &mut r, FlashLayout::Sparse).unwrap();
        assert!(r.finished());
        assert_eq!(back, s);
        // Re-encoding the decoded state is deterministic.
        let mut again = Vec::new();
        back.encode_sparse_into(&mut again);
        assert_eq!(again, sparse);

        // Corruption is rejected: truncation, geometry mismatch, an
        // out-of-range block index, and unsorted indices.
        let sparse_decode = |cfg: &FlashConfig, bytes: &[u8]| {
            FlashState::decode_from(cfg, &mut Reader::new(bytes), FlashLayout::Sparse)
        };
        assert!(sparse_decode(&cfg, &sparse[..sparse.len() - 1]).is_err());
        let mut small = cfg.clone();
        small.blocks_per_plane /= 2;
        assert!(sparse_decode(&small, &sparse).is_err());
        let mut bad_index = sparse.clone();
        // First touched-block index sits right after the two u64 headers.
        bad_index[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(sparse_decode(&cfg, &bad_index).is_err());
    }

    #[test]
    fn block_page_counts() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        let (free, valid, invalid) = s.block(a0).page_counts();
        assert_eq!(valid, 1);
        assert_eq!(invalid, 0);
        assert_eq!(free, s.geometry().pages_per_block() - 1);
        assert_eq!(s.block(a0).next_free_page(), Some(1));
    }

    /// Dense reference model for the differential test: one code per page
    /// and one column per block attribute, every answer recomputed by
    /// scanning, and both checkpoint layouts written out independently.
    struct DenseModel {
        pages_per_block: usize,
        codes: Vec<u8>,
        erases: Vec<u64>,
        write_pointers: Vec<usize>,
        bad: Vec<bool>,
    }

    impl DenseModel {
        fn new(blocks: usize, pages_per_block: usize) -> Self {
            DenseModel {
                pages_per_block,
                codes: vec![PAGE_FREE; blocks * pages_per_block],
                erases: vec![0; blocks],
                write_pointers: vec![0; blocks],
                bad: vec![false; blocks],
            }
        }

        fn block_codes(&self, b: usize) -> &[u8] {
            &self.codes[b * self.pages_per_block..(b + 1) * self.pages_per_block]
        }

        fn count(&self, b: usize, code: u8) -> u32 {
            self.block_codes(b).iter().filter(|&&c| c == code).count() as u32
        }

        fn program(&mut self, b: usize, page: usize) -> bool {
            let ok = !self.bad[b]
                && self.codes[b * self.pages_per_block + page] == PAGE_FREE
                && self.write_pointers[b] == page;
            if ok {
                self.codes[b * self.pages_per_block + page] = PAGE_VALID;
                self.write_pointers[b] += 1;
            }
            ok
        }

        fn invalidate(&mut self, b: usize, page: usize) -> bool {
            let code = &mut self.codes[b * self.pages_per_block + page];
            let ok = *code == PAGE_VALID;
            if ok {
                *code = PAGE_INVALID;
            }
            ok
        }

        fn erase(&mut self, b: usize) -> bool {
            let ok = !self.bad[b] && self.count(b, PAGE_VALID) == 0;
            if ok {
                let ppb = self.pages_per_block;
                self.codes[b * ppb..(b + 1) * ppb].fill(PAGE_FREE);
                self.write_pointers[b] = 0;
                self.erases[b] += 1;
            }
            ok
        }

        fn page_totals(&self) -> (u64, u64, u64) {
            let count = |code| self.codes.iter().filter(|&&c| c == code).count() as u64;
            (count(PAGE_FREE), count(PAGE_VALID), count(PAGE_INVALID))
        }

        fn most_invalid_block(&self) -> Option<u64> {
            let mut best: Option<(usize, u32)> = None;
            for b in 0..self.erases.len() {
                let invalid = self.count(b, PAGE_INVALID);
                if invalid > 0 && !self.bad[b] && best.is_none_or(|(_, most)| invalid > most) {
                    best = Some((b, invalid));
                }
            }
            best.map(|(b, _)| b as u64)
        }

        fn wear_stats(&self) -> (u64, u64, f64) {
            let min = self.erases.iter().copied().min().unwrap_or(0);
            let max = self.erases.iter().copied().max().unwrap_or(0);
            let mean = self.erases.iter().sum::<u64>() as f64 / self.erases.len() as f64;
            (min, max, mean)
        }

        fn put_block(&self, b: usize, pages: usize, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.erases[b].to_le_bytes());
            out.push(u8::from(self.bad[b]));
            out.extend_from_slice(&(self.write_pointers[b] as u32).to_le_bytes());
            for quad in self.block_codes(b)[..pages].chunks(4) {
                out.push(quad.iter().rev().fold(0, |acc, &code| acc << 2 | code));
            }
        }

        fn encode_dense(&self) -> Vec<u8> {
            let mut out = (self.erases.len() as u64).to_le_bytes().to_vec();
            for b in 0..self.erases.len() {
                self.put_block(b, self.pages_per_block, &mut out);
            }
            out
        }

        fn encode_sparse(&self) -> Vec<u8> {
            let touched: Vec<usize> = (0..self.erases.len())
                .filter(|&b| self.erases[b] > 0 || self.bad[b] || self.write_pointers[b] > 0)
                .collect();
            let mut out = (self.erases.len() as u64).to_le_bytes().to_vec();
            out.extend_from_slice(&(touched.len() as u64).to_le_bytes());
            for b in touched {
                out.extend_from_slice(&(b as u64).to_le_bytes());
                self.put_block(b, self.write_pointers[b], &mut out);
            }
            out
        }
    }

    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_matches_model(s: &FlashState, model: &DenseModel, cfg: &FlashConfig) {
        let geo = s.geometry();
        let ppb = model.pages_per_block;
        for flat in 0..geo.total_pages() {
            assert_eq!(
                s.page_state(geo.addr_of(flat)),
                decode_page(model.codes[flat as usize]),
                "page {flat}"
            );
        }
        for b in 0..s.total_blocks() {
            let info = s.block_by_index(b);
            let i = b as usize;
            assert_eq!(info.erase_count(), model.erases[i], "block {b}");
            assert_eq!(info.is_bad(), model.bad[i], "block {b}");
            let wp = model.write_pointers[i] as u32;
            let counts = (
                ppb as u32 - wp,
                model.count(i, PAGE_VALID),
                model.count(i, PAGE_INVALID),
            );
            assert_eq!(info.page_counts(), counts, "block {b}");
            let next = (!model.bad[i] && wp < ppb as u32).then_some(wp);
            assert_eq!(info.next_free_page(), next, "block {b}");
        }
        assert_eq!(s.page_totals(), model.page_totals());
        assert_eq!(s.most_invalid_block(), model.most_invalid_block());
        assert_eq!(s.wear_stats(), model.wear_stats());
        let mut sparse = Vec::new();
        s.encode_sparse_into(&mut sparse);
        assert_eq!(sparse, model.encode_sparse());
        for (bytes, layout) in [
            (model.encode_dense(), FlashLayout::Dense),
            (sparse, FlashLayout::Sparse),
        ] {
            let mut r = Reader::new(&bytes);
            assert_eq!(&FlashState::decode_from(cfg, &mut r, layout).unwrap(), s);
            assert!(r.finished());
        }
    }

    #[test]
    fn random_operations_match_a_dense_reference_model() {
        // 200 blocks of 7 pages: three full 64-block chunks and a partial
        // one, and a page count that leaves the last packed byte half used.
        let mut cfg = SsdConfig::small_for_tests().flash;
        cfg.channels = 1;
        cfg.dies_per_channel = 1;
        cfg.planes_per_die = 2;
        cfg.blocks_per_plane = 100;
        cfg.pages_per_block = 7;
        let blocks = 200;
        let ppb = 7;
        for seed in 1..=3u64 {
            let mut rng = seed;
            let mut s = FlashState::new(&cfg);
            let mut model = DenseModel::new(blocks, ppb);
            for step in 0..1000 {
                let roll = splitmix(&mut rng);
                // Most operations land on a few hot blocks so they fill,
                // go stale and get erased; the rest scatter over all chunks.
                let b = if roll.is_multiple_of(4) {
                    (roll >> 8) as usize % blocks
                } else {
                    (roll >> 8) as usize % 12
                };
                let any_page = (roll >> 32) as usize % ppb;
                let before = s.clone();
                let addr = |page: usize| s.geometry().addr_of((b * ppb + page) as u64);
                let accepted = match (roll >> 40) % 100 {
                    0..=44 => {
                        let wp = model.write_pointers[b];
                        let page = if roll >> 48 & 7 == 0 || wp == ppb {
                            any_page
                        } else {
                            wp
                        };
                        let a = addr(page);
                        let ok = model.program(b, page);
                        assert_eq!(s.program(a).is_ok(), ok, "seed {seed} step {step}");
                        ok
                    }
                    45..=79 => {
                        let wp = model.write_pointers[b];
                        let page = if roll >> 48 & 7 == 0 || wp == 0 {
                            any_page
                        } else {
                            any_page % wp
                        };
                        let a = addr(page);
                        let ok = model.invalidate(b, page);
                        assert_eq!(s.invalidate(a).is_ok(), ok, "seed {seed} step {step}");
                        ok
                    }
                    80..=96 => {
                        let ok = model.erase(b);
                        assert_eq!(
                            s.erase_block(b as u64).is_ok(),
                            ok,
                            "seed {seed} step {step}"
                        );
                        ok
                    }
                    97 => {
                        // Sweep: erase every block that allows it, so the
                        // wear minimum can leave zero.
                        for block in 0..blocks {
                            let ok = model.erase(block);
                            assert_eq!(s.erase_block(block as u64).is_ok(), ok);
                        }
                        true
                    }
                    // Retire a block rarely, or the hot blocks all go bad.
                    _ if roll.is_multiple_of(8) => {
                        model.bad[b] = true;
                        s.mark_bad(b as u64);
                        true
                    }
                    _ => continue,
                };
                if !accepted {
                    assert_eq!(s, before, "seed {seed} step {step}: rejected op mutated");
                }
                assert_matches_model(&s, &model, &cfg);
            }
        }
    }
}
