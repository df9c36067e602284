package trace

import (
	"bytes"
	"math"
)

// This file holds the work units of the chunk-parallel decode that the
// span pipeline (span.go) runs: the per-chunk run compressor, the .din
// text chunk parser, and the per-access tail machine the stitcher
// replays chunk edges through.
//
// # Exactness
//
// Run formation is a per-access state machine whose only mutable state
// is the tail run (BlockStream.append: grow the tail while it holds the
// same ID and is below MaxUint32, else start a new run). appendRun
// applies w such steps at once, so replaying a chunk's locally formed
// runs through appendRun reproduces the global machine exactly — the
// boundary-merge step. Only a chunk's leading and trailing same-ID
// spans (its edges) can merge with a neighbouring chunk; the interior
// runs between them are final as formed.
//
// The kind channel needs one more step. Where a merged run saturates
// the uint32 counter, its kind record splits in the canonical order
// (kind.go), and splitting a record merged from several inputs is not
// the same as splitting the input that actually crossed the limit. In
// kind mode a chunk therefore keeps its leading same-ID span as the
// unmerged input records, and the stitcher replays them one by one
// against the previous chunk's tail, exactly as the serial machine
// receives them.
const (
	// defaultIngestChunk caps the accesses per decode chunk: large
	// enough that per-chunk stitching cost is negligible, small enough
	// that a handful of in-flight chunks fit in cache.
	defaultIngestChunk = 1 << 16
	// dinChunkBytes is the text chunk of the parallel .din parser,
	// streamed or materialized (chunks are cut at line boundaries):
	// small enough that the few chunks in flight stay in cache and cost
	// no resident memory worth measuring, large enough that per-chunk
	// overhead is noise.
	dinChunkBytes = 64 << 10
)

// appendRun appends a run of w consecutive accesses to block id with
// exactly the per-access semantics of append: the tail run grows until
// the uint32 counter saturates, then new runs are started greedily.
func (b *BlockStream) appendRun(id uint64, w uint32) {
	if w == 0 {
		return
	}
	b.Accesses += uint64(w)
	rem := uint64(w)
	if n := len(b.IDs); n > 0 && b.IDs[n-1] == id && b.Runs[n-1] < math.MaxUint32 {
		take := min(rem, uint64(math.MaxUint32-b.Runs[n-1]))
		b.Runs[n-1] += uint32(take)
		rem -= take
	}
	for rem > 0 {
		take := min(rem, math.MaxUint32)
		b.IDs = append(b.IDs, id)
		b.Runs = append(b.Runs, uint32(take))
		rem -= take
	}
}

// runChunk is one chunk's locally run-compressed columns.
type runChunk struct {
	ids      []uint64
	runs     []uint32
	kinds    []KindRun // kind channel parallel to runs; nil in kind-free mode
	accesses uint64
	// head is the length of the leading same-ID span; tail is the start
	// of the trailing same-ID span. Runs in [head, tail) — the interior
	// — are final regardless of what neighbouring chunks hold.
	head, tail int
}

// chunkCompressor builds a runChunk from a stream of (id, weight)
// pairs, applying the per-access run-formation semantics locally. In
// kind mode (kinds set at construction) every addition goes through
// addAccess or addKindRun, which keep the kind column parallel and the
// leading same-ID span unmerged.
type chunkCompressor struct {
	c     runChunk
	kinds bool
	// pastHead is set once a record's ID differs from the chunk's first.
	pastHead bool
}

// mergesKind reports whether a kind-mode record for id may merge into
// the chunk's last run: same ID, counter not saturated, and past the
// leading span, whose end it records on the first ID change.
func (cc *chunkCompressor) mergesKind(id uint64) bool {
	n := len(cc.c.ids)
	if n > 0 && cc.c.ids[n-1] != id {
		cc.pastHead = true
	}
	return cc.pastHead && cc.c.ids[n-1] == id && cc.c.runs[n-1] < math.MaxUint32
}

func (cc *chunkCompressor) add(id uint64, w uint32) {
	if w == 0 {
		return
	}
	cc.c.accesses += uint64(w)
	rem := uint64(w)
	if n := len(cc.c.ids); n > 0 && cc.c.ids[n-1] == id && cc.c.runs[n-1] < math.MaxUint32 {
		take := min(rem, uint64(math.MaxUint32-cc.c.runs[n-1]))
		cc.c.runs[n-1] += uint32(take)
		rem -= take
	}
	for rem > 0 {
		take := min(rem, math.MaxUint32)
		cc.c.ids = append(cc.c.ids, id)
		cc.c.runs = append(cc.c.runs, uint32(take))
		rem -= take
	}
}

// addOne is add for one access in kind-free mode.
func (cc *chunkCompressor) addOne(id uint64) {
	cc.c.accesses++
	if n := len(cc.c.ids); n > 0 && cc.c.ids[n-1] == id && cc.c.runs[n-1] < math.MaxUint32 {
		cc.c.runs[n-1]++
		return
	}
	cc.c.ids = append(cc.c.ids, id)
	cc.c.runs = append(cc.c.runs, 1)
}

// addAccess is add for one access in kind mode.
func (cc *chunkCompressor) addAccess(id uint64, k Kind) {
	cc.c.accesses++
	if cc.mergesKind(id) {
		n := len(cc.c.ids)
		cc.c.runs[n-1]++
		cc.c.kinds[n-1].addSpan(k, 1)
		return
	}
	cc.c.ids = append(cc.c.ids, id)
	cc.c.runs = append(cc.c.runs, 1)
	cc.c.kinds = append(cc.c.kinds, kindRunOf(k))
}

// addKindRun is add for a pre-weighted kind run (kr.Total() == w),
// splitting the record at the uint32 counter boundary exactly where
// the weight splits.
func (cc *chunkCompressor) addKindRun(id uint64, w uint32, kr KindRun) {
	if w == 0 {
		return
	}
	cc.c.accesses += uint64(w)
	if cc.mergesKind(id) {
		n := len(cc.c.ids)
		space := math.MaxUint32 - cc.c.runs[n-1]
		if w <= space {
			cc.c.runs[n-1] += w
			cc.c.kinds[n-1] = mergeKind(cc.c.kinds[n-1], kr)
			return
		}
		var front KindRun
		front, kr = splitKindRun(kr, space)
		cc.c.runs[n-1] = math.MaxUint32
		cc.c.kinds[n-1] = mergeKind(cc.c.kinds[n-1], front)
		w -= space
	}
	cc.c.ids = append(cc.c.ids, id)
	cc.c.runs = append(cc.c.runs, w)
	cc.c.kinds = append(cc.c.kinds, kr)
}

// reset empties the compressor for a new chunk in the given mode,
// keeping its columns' capacity.
func (cc *chunkCompressor) reset(kinds bool) {
	c := &cc.c
	*cc = chunkCompressor{kinds: kinds, c: runChunk{ids: c.ids[:0], runs: c.runs[:0], kinds: c.kinds[:0]}}
}

// finishEdges marks the chunk's edge spans.
func (cc *chunkCompressor) finishEdges() {
	c := &cc.c
	n := len(c.ids)
	if n == 0 {
		return
	}
	head := 1
	for head < n && c.ids[head] == c.ids[0] {
		head++
	}
	tail := n - 1
	for tail > 0 && c.ids[tail-1] == c.ids[n-1] {
		tail--
	}
	if tail < head {
		// Single span: the whole chunk is edge.
		c.head, c.tail = n, n
		return
	}
	c.head, c.tail = head, tail
}

// ingestJob is one chunk's parallel work unit: run decodes the chunk
// into an empty compressor, whose columns may be recycled from an
// earlier chunk.
type ingestJob struct {
	seq int
	run func(cc *chunkCompressor) error
}

type ingestResult struct {
	seq int
	cc  *chunkCompressor
	err error
}

// parseDinInto decodes whole .din lines from b (the producer cuts at
// line boundaries), feeding block IDs straight into cc. startLine
// numbers b's first line, so errors name the same line NewDinReader
// would.
//
// The kernel scans each line once. Its fast path takes exactly the
// shape DinWriter prints — one label digit 0-2, one space, 1 to 16 hex
// digits, then the newline or the end of b — and never overflows,
// since 16 digits fit 64 bits. Any other line (blank, other spacing,
// "\r", a 0x prefix, a longer label or address, trailing fields, or
// corrupt) goes to parseDinLine, DinReader's decode, which alone
// builds errors; so both decoders accept the same lines and report the
// same error on the same line.
func parseDinInto(cc *chunkCompressor, b []byte, startLine int, off uint) error {
	line := startLine - 1
	for i := 0; i < len(b); {
		line++
		if k := b[i] - '0'; k <= 2 && i+1 < len(b) && b[i+1] == ' ' {
			j := i + 2
			end := min(j+16, len(b))
			var addr uint64
			for ; j < end; j++ {
				d := hexDigit[b[j]]
				if d > 15 {
					break
				}
				addr = addr<<4 | uint64(d)
			}
			if j > i+2 && (j == len(b) || b[j] == '\n') {
				if cc.kinds {
					cc.addAccess(addr>>off, Kind(k))
				} else {
					cc.addOne(addr >> off)
				}
				i = j + 1
				continue
			}
		}
		ln := b[i:]
		if nl := bytes.IndexByte(ln, '\n'); nl >= 0 {
			ln = ln[:nl]
		}
		i += len(ln) + 1
		a, ok, err := parseDinLine(ln, line)
		if err != nil {
			return err
		}
		if !ok {
			continue // blank line
		}
		if cc.kinds {
			cc.addAccess(a.Addr>>off, a.Kind)
		} else {
			cc.addOne(a.Addr >> off)
		}
	}
	return nil
}

// blockShift returns log2 of a validated block size.
func blockShift(blockSize int) uint {
	off := uint(0)
	for 1<<off < blockSize {
		off++
	}
	return off
}
