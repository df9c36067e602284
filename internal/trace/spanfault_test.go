// Fault injection against the span pipeline: mid-stream faults must
// surface as the pipeline's typed terminal error with every goroutine
// drained — never as a silently short span stream.
package trace_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dew/internal/leakcheck"
	"dew/internal/trace"
	"dew/internal/trace/faultreader"
)

func drainSpans(p *trace.StreamPipeline) (spans int, accesses uint64) {
	for s := range p.Spans() {
		spans++
		accesses += s.Accesses
	}
	return spans, accesses
}

// TestSpanPipelineTruncation cuts a DTB1 stream mid-record: the
// pipeline must stop with a typed truncation error carrying the decode
// position, and the spans already emitted must be an exact prefix.
func TestSpanPipelineTruncation(t *testing.T) {
	defer leakcheck.Check(t)()
	data, tr := binPayload(t, 20000)
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{0, int64(len(data)) / 3, int64(len(data)) - 1} {
		cfg := faultreader.Passthrough()
		cfg.TruncateAt = cut
		r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
		p, err := trace.StreamSpans(context.Background(), r, 16, trace.SpanOptions{MemBytes: 1, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		var runs []uint32
		for s := range p.Spans() {
			ids = append(ids, s.IDs...)
			runs = append(runs, s.Runs...)
		}
		// A cut at a record boundary is a clean (short) EOF; any other
		// cut must surface as a typed, ErrCorrupt-matching error.
		if perr := p.Err(); perr != nil {
			var te *trace.TruncatedError
			var ce *trace.CorruptError
			if !errors.As(perr, &te) && !errors.As(perr, &ce) {
				t.Fatalf("cut %d: untyped pipeline error %v", cut, perr)
			}
			if !errors.Is(perr, trace.ErrCorrupt) {
				t.Fatalf("cut %d: error %v does not match ErrCorrupt", cut, perr)
			}
		}
		// Whatever was emitted is a bit-exact prefix of the full stream:
		// every run matches, except the final emitted run may be the
		// truncated front of its full counterpart.
		if len(ids) > len(want.IDs) {
			t.Fatalf("cut %d: emitted %d runs, full stream has %d", cut, len(ids), len(want.IDs))
		}
		for i := range ids {
			short := i == len(ids)-1 && runs[i] <= want.Runs[i]
			if ids[i] != want.IDs[i] || (runs[i] != want.Runs[i] && !short) {
				t.Fatalf("cut %d: emitted run %d = (%d,%d), want (%d,%d)",
					cut, i, ids[i], runs[i], want.IDs[i], want.Runs[i])
			}
		}
	}
}

// TestSpanPipelineDeferredIOError kills the byte stream mid-transfer:
// the injected error is the pipeline's terminal error.
func TestSpanPipelineDeferredIOError(t *testing.T) {
	defer leakcheck.Check(t)()
	data, _ := binPayload(t, 20000)
	boom := errors.New("nfs went away")
	cfg := faultreader.Passthrough()
	cfg.FailAt, cfg.Err = int64(len(data)/2), boom
	r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
	p, err := trace.StreamSpans(context.Background(), r, 16, trace.SpanOptions{MemBytes: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	drainSpans(p)
	if err := p.Err(); !errors.Is(err, boom) {
		t.Fatalf("pipeline over dying reader: %v, want the injected error", err)
	}
}

// TestSpanPipelineStall wedges the byte stream once mid-trace: the
// pipeline must ride out the stall and still deliver the exact stream.
func TestSpanPipelineStall(t *testing.T) {
	defer leakcheck.Check(t)()
	data, tr := binPayload(t, 8000)
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultreader.Passthrough()
	cfg.StallAt, cfg.Stall = int64(len(data)/2), 50*time.Millisecond
	r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
	p, err := trace.StreamSpans(context.Background(), r, 16, trace.SpanOptions{MemBytes: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, acc := drainSpans(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if acc != want.Accesses {
		t.Fatalf("stalled pipeline emitted %d accesses, want %d", acc, want.Accesses)
	}
}

// TestSpanPipelineStallCancelled cancels while the producer is wedged
// in a stall: Close must still drain every goroutine (the producer
// finishes its sleep and observes the cancel at the next chunk).
func TestSpanPipelineStallCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	data, _ := binPayload(t, 8000)
	cfg := faultreader.Passthrough()
	cfg.StallAt, cfg.Stall = int64(len(data)/4), 30*time.Millisecond
	r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
	p, err := trace.StreamSpans(context.Background(), r, 16, trace.SpanOptions{MemBytes: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stalled pipeline: %v", err)
	}
}

// TestSpanPipelineDinFlip corrupts one .din byte: the pipeline's error
// names the exact line, as the serial reader would.
func TestSpanPipelineDinFlip(t *testing.T) {
	defer leakcheck.Check(t)()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString("0 1000\n")
	}
	cfg := faultreader.Passthrough()
	cfg.FlipAt, cfg.FlipMask = int64(9000*7+2), 0x40 // '1' -> 'q' on line 9001
	p, err := trace.StreamSpans(context.Background(),
		trace.NewDinReader(faultreader.New(strings.NewReader(sb.String()), cfg)), 16, trace.SpanOptions{MemBytes: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	drainSpans(p)
	var ce *trace.CorruptError
	if err := p.Err(); !errors.As(err, &ce) {
		t.Fatalf("flipped din digit: %v, want *trace.CorruptError", err)
	} else if ce.Line != 9001 {
		t.Errorf("corruption reported at line %d, want 9001", ce.Line)
	}
}

// TestSpanPipelineAccessFault kills an access-level source mid-trace.
func TestSpanPipelineAccessFault(t *testing.T) {
	defer leakcheck.Check(t)()
	_, tr := binPayload(t, 10000)
	boom := errors.New("generator wedged")
	fr := faultreader.NewAccess(tr.NewSliceReader(), 7000, boom)
	p, err := trace.StreamSpans(context.Background(), fr, 16, trace.SpanOptions{MemBytes: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, acc := drainSpans(p)
	if err := p.Err(); !errors.Is(err, boom) {
		t.Fatalf("pipeline over failing access source: %v, want the injected error", err)
	}
	if acc > 7000 {
		t.Fatalf("pipeline emitted %d accesses past the fault at 7000", acc)
	}
}
