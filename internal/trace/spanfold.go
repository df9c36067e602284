package trace

import (
	"fmt"
	"math"
	"sort"
)

// LadderFolder is the streaming form of FoldLadder: instead of folding
// a fully materialized stream once per rung, it folds finest-rung
// *spans* as they arrive, carrying exactly one pending run per doubling
// stage across span boundaries — the fold state machine's only mutable
// state is its tail run (see fold.go), so a chain of single-run carries
// reproduces FoldLadder bit-identically without ever holding a full
// stream at any rung. One streaming pass over the finest rung therefore
// feeds every block size in the ladder in O(ladder working set) memory:
// the carries plus one folded span per stage.
//
// Usage: Feed every finest-rung span in order, then Flush exactly once.
// The coarser rungs' spans passed to visit are scratch buffers owned by
// the folder, valid only until the next Feed/Flush call — consume them
// before returning, or copy them. ReplaySpans, whose simulators run on
// goroutines of their own, copies each into a buffer of its rung; the
// base rung's span is the caller's own and passes through uncopied.
type LadderFolder struct {
	base   int
	kinds  bool
	taps   map[int]bool
	stages []*foldStage
	fls    BlockStream // scratch for Flush's carry injections
}

// foldStage folds one doubling: its carry is the pending tail run of
// the coarser stream, and out receives the final runs emitted while
// folding the current input span.
type foldStage struct {
	carryID uint64
	carryW  uint32
	carryK  KindRun
	has     bool
	out     BlockStream
}

// NewLadderFolder builds a folder deriving every requested block size
// from finest-rung spans at base. Every requested size must be a power
// of two at least base (matching FoldLadder's contract).
func NewLadderFolder(base int, blockSizes []int, kinds bool) (*LadderFolder, error) {
	if base < 1 || base&(base-1) != 0 {
		return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", base)
	}
	sorted := append([]int(nil), blockSizes...)
	sort.Ints(sorted)
	lf := &LadderFolder{base: base, kinds: kinds, taps: make(map[int]bool, len(sorted))}
	maxSize := base
	for _, b := range sorted {
		if b < 1 || b&(b-1) != 0 {
			return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", b)
		}
		if b < base {
			return nil, fmt.Errorf("trace: cannot fold block size %d down to %d (folding only coarsens)", base, b)
		}
		lf.taps[b] = true
		maxSize = max(maxSize, b)
	}
	for size := base; size < maxSize; size <<= 1 {
		st := &foldStage{}
		st.out.BlockSize = size << 1
		if kinds {
			st.out.Kinds = []KindRun{}
		}
		lf.stages = append(lf.stages, st)
	}
	if kinds {
		lf.fls.Kinds = []KindRun{}
	}
	return lf, nil
}

// Blocks reports the requested rungs, ascending.
func (lf *LadderFolder) Blocks() []int {
	out := make([]int, 0, len(lf.taps))
	for b := range lf.taps {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// emit appends one final folded run to the stage's output span.
func (st *foldStage) emit(id uint64, w uint32, kr KindRun, kinds bool) {
	st.out.IDs = append(st.out.IDs, id)
	st.out.Runs = append(st.out.Runs, w)
	if kinds {
		st.out.Kinds = append(st.out.Kinds, kr)
	}
	st.out.Accesses += uint64(w)
}

// feed folds one input span (final runs only) into the stage,
// refilling out with the final runs of the coarser stream and retaining
// the new tail as the carry. The merge/split decisions are exactly
// foldInto's, applied against the carry instead of a materialized tail.
func (st *foldStage) feed(in *BlockStream, kinds bool) {
	out := &st.out
	out.IDs = out.IDs[:0]
	out.Runs = out.Runs[:0]
	if kinds {
		out.Kinds = out.Kinds[:0]
	}
	out.Accesses = 0
	for i, id := range in.IDs {
		fid := id >> 1
		w := in.Runs[i]
		var kr KindRun
		if kinds {
			kr = in.Kinds[i]
		}
		if st.has && st.carryID == fid {
			if sum := uint64(st.carryW) + uint64(w); sum <= math.MaxUint32 {
				st.carryW = uint32(sum)
				if kinds {
					st.carryK = mergeKind(st.carryK, kr)
				}
				continue
			} else {
				// Per-access semantics at the counter boundary: the
				// carry saturates (a saturated run is final — append
				// never regrows it), the remainder is the new carry.
				if kinds {
					take := math.MaxUint32 - st.carryW
					var front KindRun
					front, kr = splitKindRun(kr, take)
					st.carryK = mergeKind(st.carryK, front)
				}
				st.emit(fid, math.MaxUint32, st.carryK, kinds)
				st.carryW = uint32(sum - math.MaxUint32)
				st.carryK = kr
				continue
			}
		}
		if st.has {
			// A different ID arrived: the carry can never merge again
			// (fold only merges adjacent runs), so it is final.
			st.emit(st.carryID, st.carryW, st.carryK, kinds)
		}
		st.carryID, st.carryW, st.carryK, st.has = fid, w, kr, true
	}
}

// cascade feeds in through stages[from:], visiting each requested rung's
// non-empty folded span.
func (lf *LadderFolder) cascade(from int, in *BlockStream, visit func(blockSize int, s *BlockStream) error) error {
	cur := in
	for sj := from; sj < len(lf.stages); sj++ {
		st := lf.stages[sj]
		st.feed(cur, lf.kinds)
		cur = &st.out
		if lf.taps[cur.BlockSize] && cur.Len() > 0 {
			if err := visit(cur.BlockSize, cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// Feed folds one finest-rung span through the ladder, visiting every
// requested rung's folded span in ascending block-size order (the base
// rung — the span itself — first, when requested). Coarser rungs may
// fold to nothing for a small span; empty spans are skipped. Spans must
// arrive in stream order, and the visited streams are scratch reused by
// the next call.
func (lf *LadderFolder) Feed(span *BlockStream, visit func(blockSize int, s *BlockStream) error) error {
	if span.BlockSize != lf.base {
		return fmt.Errorf("trace: ladder folder fed a span at block size %d, want %d", span.BlockSize, lf.base)
	}
	if lf.taps[lf.base] && span.Len() > 0 {
		if err := visit(lf.base, span); err != nil {
			return err
		}
	}
	return lf.cascade(0, span, visit)
}

// Flush drains every stage's carry in ladder order, visiting the final
// span of each requested rung. After Flush the concatenation of every
// rung's visited spans is bit-identical to FoldLadder over the
// concatenated input. Call exactly once, after the last Feed.
func (lf *LadderFolder) Flush(visit func(blockSize int, s *BlockStream) error) error {
	for si, st := range lf.stages {
		if !st.has {
			continue
		}
		fls := &lf.fls
		fls.BlockSize = st.out.BlockSize
		fls.IDs = append(fls.IDs[:0], st.carryID)
		fls.Runs = append(fls.Runs[:0], st.carryW)
		if lf.kinds {
			fls.Kinds = append(fls.Kinds[:0], st.carryK)
		}
		fls.Accesses = uint64(st.carryW)
		st.has = false
		if lf.taps[fls.BlockSize] {
			if err := visit(fls.BlockSize, fls); err != nil {
				return err
			}
		}
		if err := lf.cascade(si+1, fls, visit); err != nil {
			return err
		}
	}
	return nil
}
