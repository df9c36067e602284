package trace

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func sameBlockStream(t *testing.T, label string, got, want *BlockStream) {
	t.Helper()
	if got.BlockSize != want.BlockSize {
		t.Errorf("%s: block size %d, want %d", label, got.BlockSize, want.BlockSize)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("%s: accesses %d, want %d", label, got.Accesses, want.Accesses)
	}
	if len(got.IDs) != len(want.IDs) || len(got.Runs) != len(want.Runs) {
		t.Fatalf("%s: %d ids/%d runs, want %d/%d", label, len(got.IDs), len(got.Runs), len(want.IDs), len(want.Runs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] || got.Runs[i] != want.Runs[i] {
			t.Fatalf("%s: run %d = (%d, %d), want (%d, %d)", label, i, got.IDs[i], got.Runs[i], want.IDs[i], want.Runs[i])
		}
	}
	if got.HasKinds() != want.HasKinds() {
		t.Fatalf("%s: kind channel present %v, want %v", label, got.HasKinds(), want.HasKinds())
	}
	if want.HasKinds() {
		if len(got.Kinds) != len(got.IDs) || len(want.Kinds) != len(want.IDs) {
			t.Fatalf("%s: kind column length %d/%d, runs %d", label, len(got.Kinds), len(want.Kinds), len(want.IDs))
		}
		for i := range got.Kinds {
			if got.Kinds[i] != want.Kinds[i] {
				t.Fatalf("%s: run %d kinds = %+v, want %+v", label, i, got.Kinds[i], want.Kinds[i])
			}
			if got.Kinds[i].Total() != uint64(got.Runs[i]) {
				t.Fatalf("%s: run %d kind total %d != weight %d", label, i, got.Kinds[i].Total(), got.Runs[i])
			}
		}
	}
}

// pipelineTrace builds a trace with heavy runs and shard skew so edge
// spans, single-span chunks and empty shards all occur.
func pipelineTrace(rng *rand.Rand, n int) Trace {
	tr := make(Trace, 0, n)
	addr := uint64(rng.Intn(1 << 12))
	for len(tr) < n {
		switch rng.Intn(5) {
		case 0: // long sequential run (same block for a while)
			run := rng.Intn(300) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, Access{Addr: addr, Kind: IFetch})
				addr++
			}
		case 1: // jump
			addr = uint64(rng.Intn(1 << 14))
			tr = append(tr, Access{Addr: addr, Kind: DataRead})
		case 2: // skew: hammer one block
			run := rng.Intn(64) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, Access{Addr: 0x40, Kind: DataRead})
			}
		default:
			addr += uint64(rng.Intn(64))
			tr = append(tr, Access{Addr: addr, Kind: DataWrite})
		}
	}
	return tr
}

func TestStreamSpansRejectsInvalidKind(t *testing.T) {
	tr := Trace{{Addr: 4, Kind: DataRead}, {Addr: 8, Kind: Kind(7)}}
	p, err := StreamSpans(context.Background(), tr.NewSliceReader(), 4, SpanOptions{Workers: 2, Kinds: true})
	if err != nil {
		t.Fatal(err)
	}
	if spans := drainSpans(p); len(spans) != 0 || p.Err() == nil {
		t.Errorf("invalid kind on the span path: %d spans, error %v", len(spans), p.Err())
	}
	if _, err := tr.BlockStreamWithKinds(4); err == nil {
		t.Error("want error for invalid kind on materialize path")
	}
}

// drainSpans consumes a pipeline to the end without checking its
// terminal error.
func drainSpans(p *StreamPipeline) []*Span {
	var spans []*Span
	for s := range p.Spans() {
		spans = append(spans, s)
	}
	return spans
}

// TestIngestWeightedOverflow drives crafted run weights near the uint32
// limit through the decode workers, splitting them across chunk
// boundaries in every way, and checks the overflow splits land exactly
// where the serial machine puts them.
func TestIngestWeightedOverflow(t *testing.T) {
	const m = math.MaxUint32
	ids := []uint64{9, 9, 9, 5, 9, 9, 2, 9, 9, 9, 5, 5, 9}
	runs := []uint32{m, m - 3, 7, 1, m - 1, 2, 3, 1, m, 4, m - 2, 10, m}

	// Oracle: one serial machine over the whole weighted sequence.
	want := &BlockStream{BlockSize: 4}
	for i := range ids {
		want.appendRun(ids[i], runs[i])
	}
	check := func(label string, cids [][]uint64, cruns [][]uint32) {
		t.Helper()
		p, err := streamWeightedSpans(context.Background(), 4, SpanOptions{Workers: 3}, 2, cids, cruns, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBlockStream(t, label, concatSpans(4, false, collectSpans(t, p)), want)
	}
	// Every split point, then one chunk per run.
	for cut := 0; cut <= len(ids); cut++ {
		check(fmt.Sprintf("cut=%d", cut), [][]uint64{ids[:cut], ids[cut:]}, [][]uint32{runs[:cut], runs[cut:]})
	}
	var cids [][]uint64
	var cruns [][]uint32
	for i := range ids {
		cids = append(cids, ids[i:i+1])
		cruns = append(cruns, runs[i:i+1])
	}
	check("per-run chunks", cids, cruns)
}

func dinText(tr Trace) []byte {
	var buf bytes.Buffer
	w := NewDinWriter(&buf)
	for _, a := range tr {
		if err := w.WriteAccess(a); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// streamDinChunks starts a .din span pipeline with an explicit text
// chunk size, so line-boundary cuts land where the budget's clamp
// would never put them.
func streamDinChunks(t *testing.T, text []byte, blockSize int, kinds bool, chunkBytes int) *StreamPipeline {
	t.Helper()
	p, st, err := newStreamPipeline(blockSize, SpanOptions{MemBytes: 1, Workers: 4, Kinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	p.start(context.Background(), st, p.dinProducer(bytes.NewReader(text), blockSize, chunkBytes))
	return p
}

func TestIngestDinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := pipelineTrace(rng, 5000)
	text := dinText(tr)
	for _, kinds := range []bool{false, true} {
		var want *BlockStream
		var err error
		if kinds {
			// The din labels carry the kinds through.
			want, err = tr.BlockStreamWithKinds(16)
		} else {
			want, err = tr.BlockStream(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkBytes := range []int{1, 7, 100, 1 << 12} {
			spans := collectSpans(t, streamDinChunks(t, text, 16, kinds, chunkBytes))
			checkSpanInvariants(t, spans)
			sameBlockStream(t, fmt.Sprintf("kinds=%v chunkBytes=%d", kinds, chunkBytes), concatSpans(16, kinds, spans), want)
		}
	}
}

func TestIngestDinBlankAndPrefixes(t *testing.T) {
	text := "2 0x40\n\n  1   80  trailing junk\n0 a0\n"
	want, err := MaterializeBlockStream(serialDin([]byte(text)), 4)
	if err != nil {
		t.Fatal(err)
	}
	spans := collectSpans(t, streamDinChunks(t, []byte(text), 4, false, 5))
	sameBlockStream(t, "blank and prefixes", concatSpans(4, false, spans), want)
	got, err := perLineMaterialize([]byte(text), 4, false)
	sameDecode(t, "per-line", got, err, want, nil)
}

func TestIngestDinErrorLineNumbers(t *testing.T) {
	text := "2 40\n1 80\nbogus line\n2 c0\n"
	p := streamDinChunks(t, []byte(text), 4, false, 6)
	drainSpans(p)
	err := p.Err()
	if err == nil {
		t.Fatal("want parse error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
	// The serial reader reports the same line.
	_, serr := MaterializeBlockStream(serialDin([]byte(text)), 4)
	if serr == nil || serr.Error() != err.Error() {
		t.Fatalf("serial error %q, span pipeline error %q", serr, err)
	}
	_, perr := perLineMaterialize([]byte(text), 4, false)
	if perr == nil || perr.Error() != err.Error() {
		t.Fatalf("per-line error %q, span pipeline error %q", perr, err)
	}
}

// testKindRun derives a kind record of total weight w from a fuzzer
// selector byte, covering single-kind runs, store-led mixes (Lead > 0)
// and non-store-led mixes.
func testKindRun(sel uint8, w uint32) KindRun {
	var kr KindRun
	if w == 0 {
		return kr
	}
	switch sel % 5 {
	case 0:
		kr.addSpan(DataRead, w)
	case 1:
		kr.addSpan(DataWrite, w)
	case 2:
		kr.addSpan(IFetch, w)
	case 3:
		lead := w / 2
		kr.addSpan(DataWrite, lead)
		if rest := w - lead; rest > 0 {
			kr.addSpan(DataRead, (rest+1)/2)
			kr.addSpan(IFetch, rest/2)
		}
	default:
		h := (w + 1) / 2
		kr.addSpan(IFetch, h)
		kr.addSpan(DataWrite, w-h)
	}
	return kr
}
