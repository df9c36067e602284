package trace

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"dew/internal/leakcheck"
	"dew/internal/pool"
)

// cancelReader serves a trace and fires cancel once n accesses have
// been read — a deterministic mid-stream cancellation.
type cancelReader struct {
	r      Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelReader) Next() (Access, error) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	return c.r.Next()
}

func TestIngestCancelMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := pipelineTrace(rand.New(rand.NewSource(7)), 20000)
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancelReader{r: tr.NewSliceReader(), n: 5000, cancel: cancel}
	p, err := streamSpansWithRuns(ctx, r, 16, SpanOptions{MemBytes: 1, Workers: 4}, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	spans := drainSpans(p)
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}

	// What was emitted is an exact run-boundary prefix of the
	// uninterrupted stream.
	checkSpanInvariants(t, spans)
	got := concatSpans(16, false, spans)
	if got.Accesses >= want.Accesses {
		t.Fatalf("cancelled pipeline emitted all %d accesses", got.Accesses)
	}
	n := len(got.IDs)
	prefix := &BlockStream{BlockSize: 16, IDs: want.IDs[:n], Runs: want.Runs[:n], Accesses: got.Accesses}
	sameBlockStream(t, "cancelled prefix", got, prefix)
}

func TestIngestCancelBeforeStart(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := pipelineTrace(rand.New(rand.NewSource(1)), 100)
	p, err := StreamSpans(ctx, tr.NewSliceReader(), 16, SpanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spans := drainSpans(p); len(spans) != 0 {
		t.Errorf("cancelled pipeline emitted %d spans", len(spans))
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelByteReader cancels once n bytes have been served — the .din
// text pipeline's mid-stream cancellation.
type cancelByteReader struct {
	r      *strings.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelByteReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		c.cancel()
	}
	k, err := c.r.Read(p)
	c.n -= k
	return k, err
}

func TestIngestDinCancelMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString("0 ")
		sb.WriteString([]string{"1000", "1004", "2000"}[i%3])
		sb.WriteString("\n")
	}
	text := sb.String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, st, err := newStreamPipeline(16, SpanOptions{MemBytes: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := &cancelByteReader{r: strings.NewReader(text), n: len(text) / 3, cancel: cancel}
	p.start(ctx, st, p.dinProducer(r, 16, 4096))
	var emitted uint64
	for s := range p.Spans() {
		emitted += s.Accesses
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled din pipeline returned %v, want context.Canceled", err)
	}
	if emitted >= 20000 {
		t.Errorf("emitted %d accesses from a cancelled pipeline", emitted)
	}
}

// TestMaterializeDinFaultDrains fails the chunk-parallel
// materialization mid-stream — a corrupt line, an I/O error, a line
// over the limit — and requires the typed error with every pipeline
// goroutine gone by the time MaterializeBlockStream returns.
func TestMaterializeDinFaultDrains(t *testing.T) {
	defer leakcheck.Check(t)()
	text := strings.Repeat("0 1000\n2 2004\n", 40000)
	boom := errors.New("disk pulled")
	for _, c := range []struct {
		name string
		src  io.Reader
		want func(error) bool
	}{
		{"corrupt line", strings.NewReader(text[:len(text)/2] + "0 zz\n" + text),
			func(err error) bool { return errors.Is(err, ErrCorrupt) }},
		{"io error", io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)),
			func(err error) bool { return errors.Is(err, boom) }},
		{"line too long", strings.NewReader(text + strings.Repeat(" ", maxDinLine+1)),
			func(err error) bool { return errors.Is(err, bufio.ErrTooLong) }},
	} {
		bs, err := MaterializeBlockStream(NewDinReader(c.src), 16)
		if !c.want(err) || bs != nil {
			t.Errorf("%s: got stream %v, error %v", c.name, bs != nil, err)
		}
	}
}

// panicAccessReader panics after serving n accesses — a crash inside
// the decode producer.
type panicAccessReader struct{ n int }

func (p *panicAccessReader) Next() (Access, error) {
	if p.n <= 0 {
		panic("reader exploded")
	}
	p.n--
	return Access{Addr: uint64(p.n) * 16, Kind: DataRead}, nil
}

func TestIngestProducerPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	p, err := StreamSpans(context.Background(), &panicAccessReader{n: 1000}, 16, SpanOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	drainSpans(p)
	var pe *pool.PanicError
	if !errors.As(p.Err(), &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", p.Err())
	}
	if pe.Value != "reader exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError carries %v with %d stack bytes", pe.Value, len(pe.Stack))
	}
}

// runJobs starts a pipeline over hand-built jobs and returns its
// terminal error after draining it.
func runJobs(t *testing.T, kinds bool, jobs ...ingestJob) error {
	t.Helper()
	p, st, err := newStreamPipeline(16, SpanOptions{Workers: 2, Kinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	p.start(context.Background(), st, func(emit func(ingestJob) bool) error {
		for _, j := range jobs {
			if !emit(j) {
				return nil
			}
		}
		return nil
	})
	drainSpans(p)
	return p.Err()
}

func TestIngestWorkerPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	err := runJobs(t, false, ingestJob{seq: 0, run: func(*chunkCompressor) error {
		panic("worker exploded")
	}})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", err)
	}
}

func TestIngestStitcherPanicPoisons(t *testing.T) {
	defer leakcheck.Check(t)()
	// A kind-mode chunk with no kind column makes the stitcher index out
	// of range mid-apply: the torn state must end the pipeline as a
	// contained panic, never a crash or a stream.
	bad := ingestJob{seq: 0, run: func(cc *chunkCompressor) error {
		cc.c = runChunk{ids: []uint64{1}, runs: []uint32{1}, accesses: 1}
		return nil
	}}
	var pe *pool.PanicError
	if err := runJobs(t, true, bad); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", err)
	}
}
