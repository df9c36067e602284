package cli

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"dew/internal/trace"
)

// TestExploreDinMatchesDtb runs explore over a .din file and a .dtb file
// holding the same accesses: explore's file source hands the .din
// reader through to the chunk-parallel decode, materialized or streamed
// (-stream-mem), which must rank the space exactly as the binary decode
// does, with and without kinds.
func TestExploreDinMatchesDtb(t *testing.T) {
	dir := t.TempDir()
	din := filepath.Join(dir, "t.din")
	dtb := filepath.Join(dir, "t.dtb")
	for _, p := range []string{din, dtb} {
		if _, _, err := run(t, TraceGen, "-app", "MPEG2 Dec", "-n", "30000", "-o", p); err != nil {
			t.Fatal(err)
		}
	}
	for _, extra := range [][]string{nil, {"-kinds"}, {"-stream-mem", "64KiB"}, {"-kinds", "-stream-mem", "64KiB"}} {
		var tables []string
		for _, path := range []string{din, dtb} {
			args := append([]string{"-trace", path, "-maxlog-sets", "6", "-maxlog-block", "5", "-maxlog-assoc", "2", "-quiet", "-csv"}, extra...)
			out, _, err := run(t, Explore, args...)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, out)
		}
		if tables[0] != tables[1] {
			t.Errorf("explore %v: .din table differs from .dtb:\n%s\nvs\n%s", extra, tables[0], tables[1])
		}
	}

	// The source's reader reaches the parallel decode and still closes
	// its file once the input is consumed.
	r := fileSource(din)()
	got, err := trace.MaterializeBlockStream(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sc := r.(*selfClosingReader); sc.closer != nil {
		t.Error("materialized .din source left its file open")
	}
	r = fileSource(din)()
	p, err := trace.StreamSpans(context.Background(), r, 16, trace.SpanOptions{MemBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var streamed uint64
	for s := range p.Spans() {
		streamed += s.Accesses
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if sc := r.(*selfClosingReader); sc.closer != nil {
		t.Error("streamed .din source left its file open")
	}
	rb, closer, err := trace.OpenFile(dtb)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	want, err := trace.MaterializeBlockStream(rb, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != want.Accesses || !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Runs, want.Runs) {
		t.Errorf(".din source stream (%d accesses, %d runs) differs from .dtb (%d, %d)",
			got.Accesses, got.Len(), want.Accesses, want.Len())
	}
	if streamed != want.Accesses {
		t.Errorf(".din source streamed %d accesses, want %d", streamed, want.Accesses)
	}
}
