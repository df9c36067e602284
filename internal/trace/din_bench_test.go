package trace

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// dinInput renders n accesses in .din form, mixing prefixes and
// trailing fields the decoder must tolerate.
func dinInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, "%d %x\n", i%3, uint64(i)*61)
		case 1:
			fmt.Fprintf(&sb, "%d 0x%x extra trailing\n", i%3, uint64(i)*61)
		default:
			fmt.Fprintf(&sb, "  %d\t%x\n", i%3, uint64(i)*61)
		}
	}
	return sb.String()
}

// TestDinReaderDecodesAllocFree pins the decoder's allocation behavior:
// decoding is allocation-free per line. The only allocations a full
// decode performs are the fixed per-reader setup (reader, scanner and
// its buffer), so the budget here is a small constant independent of
// the line count — at 2000 lines even one allocation per line would
// blow it by orders of magnitude.
func TestDinReaderDecodesAllocFree(t *testing.T) {
	const lines = 2000
	data := dinInput(lines)
	buf := make([]Access, DefaultBatchSize)
	allocs := testing.AllocsPerRun(10, func() {
		d := NewDinReader(strings.NewReader(data))
		total := 0
		for {
			n, err := d.ReadBatch(buf)
			total += n
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				break
			}
		}
		if total != lines {
			t.Fatalf("decoded %d accesses, want %d", total, lines)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding %d lines allocated %.0f times; want a small per-reader constant (≤ 8)", lines, allocs)
	}
}

// BenchmarkDinReader measures .din text decoding through the batched
// path; allocs/op is reported and must stay flat (the per-reader setup
// only; see TestDinReaderDecodesAllocFree for the hard assertion).
func BenchmarkDinReader(b *testing.B) {
	const lines = 10_000
	data := dinInput(lines)
	buf := make([]Access, DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDinReader(strings.NewReader(data))
		for {
			if _, err := d.ReadBatch(buf); err != nil {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
}

// dinKernelInputs are the chunk kernel's benchmark and allocation
// inputs: text in DinWriter's shape, which the fast path takes whole,
// and dinInput's mix, two thirds of which falls back to parseDinLine.
func dinKernelInputs(lines int) []struct {
	name string
	text []byte
} {
	return []struct {
		name string
		text []byte
	}{
		{"writer", dinText(pipelineTrace(rand.New(rand.NewSource(5)), lines))},
		{"mixed", []byte(dinInput(lines))},
	}
}

// TestDinParseChunkAllocFree pins the chunk kernel's allocations:
// parsing a chunk into a recycled compressor, in either mode and on
// either path, allocates nothing at all.
func TestDinParseChunkAllocFree(t *testing.T) {
	for _, in := range dinKernelInputs(4000) {
		for _, kinds := range []bool{false, true} {
			cc := new(chunkCompressor)
			parse := func() {
				cc.reset(kinds)
				if err := parseDinInto(cc, in.text, 1, 4); err != nil {
					t.Fatal(err)
				}
			}
			parse() // size the columns
			if allocs := testing.AllocsPerRun(20, parse); allocs != 0 {
				t.Errorf("%s kinds=%v: parsing 4000 lines allocated %.1f times; want 0", in.name, kinds, allocs)
			}
		}
	}
}

// BenchmarkDinParseChunk measures the chunk kernel (parseDinInto) over
// a 64 KiB-class chunk into a recycled compressor, the unit of work the
// parallel .din decode hands each worker.
func BenchmarkDinParseChunk(b *testing.B) {
	const lines = 6000
	for _, in := range dinKernelInputs(lines) {
		b.Run(in.name, func(b *testing.B) {
			cc := new(chunkCompressor)
			b.SetBytes(int64(len(in.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cc.reset(false)
				if err := parseDinInto(cc, in.text, 1, 5); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
		})
	}
}
