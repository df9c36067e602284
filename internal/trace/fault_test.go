// Fault-injection integration: every fault faultreader can inject into
// a trace decode must surface as a typed, position-carrying error — and
// never as a partial, silently-wrong stream. This file is the
// executable form of the contract in errors.go.
package trace_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dew/internal/trace"
	"dew/internal/trace/faultreader"
)

// binPayload encodes n accesses in DTB1 and returns the bytes plus the
// decoded oracle.
func binPayload(t testing.TB, n int) ([]byte, trace.Trace) {
	t.Helper()
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = trace.Access{Addr: uint64(i%97) * 64, Kind: trace.Kind(i % 3)}
	}
	var buf bytes.Buffer
	w := trace.NewBinWriter(&buf)
	for _, a := range tr {
		if err := w.WriteAccess(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr
}

// TestBinTruncationEveryOffset cuts the encoded stream at every byte:
// the decoder must either stop cleanly at a record boundary with a
// correct prefix, or report a typed truncation with the offset of the
// record that was cut — never panic, never emit a wrong access.
func TestBinTruncationEveryOffset(t *testing.T) {
	data, tr := binPayload(t, 200)
	for cut := 0; cut <= len(data); cut++ {
		cfg := faultreader.Passthrough()
		cfg.TruncateAt = int64(cut)
		r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
		var got trace.Trace
		var err error
		for {
			var a trace.Access
			if a, err = r.Next(); err != nil {
				break
			}
			got = append(got, a)
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}
		for i, a := range got {
			if a != tr[i] {
				t.Fatalf("cut %d: access %d decoded as %v, want %v", cut, i, a, tr[i])
			}
		}
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("cut %d: error %v does not match ErrCorrupt", cut, err)
			}
			var te *trace.TruncatedError
			var ce *trace.CorruptError
			switch {
			case errors.As(err, &te):
				if te.Offset < 0 || te.Accesses != uint64(len(got)) {
					t.Fatalf("cut %d: truncation carries offset %d accesses %d, decoded %d",
						cut, te.Offset, te.Accesses, len(got))
				}
			case errors.As(err, &ce):
				if ce.Offset < 0 {
					t.Fatalf("cut %d: corruption without a position: %v", cut, err)
				}
			default:
				t.Fatalf("cut %d: untyped error %v", cut, err)
			}
		} else if cut < len(data) && len(got) == len(tr) {
			t.Fatalf("cut %d: full decode from truncated input", cut)
		}
	}
}

func TestBinFlipFaults(t *testing.T) {
	data, _ := binPayload(t, 100)

	// A flipped magic byte must be a positioned corruption error.
	cfg := faultreader.Passthrough()
	cfg.FlipAt = 2
	_, err := trace.ReadAll(trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg)))
	if !errors.Is(err, trace.ErrBadMagic) || !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("flipped magic: %v, want ErrBadMagic and ErrCorrupt", err)
	}

	// Flipping a high bit into the first kind byte makes it invalid:
	// the error must carry the record's byte offset.
	cfg = faultreader.Passthrough()
	cfg.FlipAt, cfg.FlipMask = 4, 0x80
	_, err = trace.ReadAll(trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg)))
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("flipped kind byte: %v, want *trace.CorruptError", err)
	}
	if ce.Offset != 4 {
		t.Errorf("corruption at offset %d, want 4", ce.Offset)
	}
}

func TestBinDeferredIOError(t *testing.T) {
	data, _ := binPayload(t, 5000)
	boom := errors.New("nfs went away")
	cfg := faultreader.Passthrough()
	cfg.FailAt, cfg.Err = int64(len(data)/2), boom
	r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
	bs, err := trace.MaterializeBlockStream(r, 16)
	if !errors.Is(err, boom) {
		t.Fatalf("decode over dying reader: %v, want the injected error", err)
	}
	if bs != nil {
		t.Error("failed decode returned a partial stream")
	}
}

// TestBinShortReadsIdentical proves the decode is insensitive to read
// fragmentation: a pathological byte-at-a-time stream yields a
// bit-identical BlockStream.
func TestBinShortReadsIdentical(t *testing.T) {
	data, tr := binPayload(t, 5000)
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultreader.Passthrough()
	cfg.ShortReads, cfg.Seed = true, 99
	r := trace.NewBinReader(faultreader.New(bytes.NewReader(data), cfg))
	got, err := trace.MaterializeBlockStream(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != want.Accesses || len(got.IDs) != len(want.IDs) {
		t.Fatalf("short reads changed the stream: %d accesses %d runs, want %d/%d",
			got.Accesses, len(got.IDs), want.Accesses, len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || got.Runs[i] != want.Runs[i] {
			t.Fatalf("run %d differs under short reads", i)
		}
	}
}

func TestDinFlipFault(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("0 1000\n")
	}
	text := sb.String()
	// Flip the address digit of line 51 into a non-hex character: the
	// error must name that exact line.
	cfg := faultreader.Passthrough()
	cfg.FlipAt, cfg.FlipMask = int64(50*7+2), 0x40 // '1' -> 'q'
	for name, wrap := range dinDecoders {
		bs, err := trace.MaterializeBlockStream(wrap(trace.NewDinReader(faultreader.New(strings.NewReader(text), cfg))), 16)
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: flipped din digit: %v, want *trace.CorruptError", name, err)
		}
		if ce.Line != 51 {
			t.Errorf("%s: corruption reported at line %d, want 51", name, ce.Line)
		}
		if bs != nil {
			t.Errorf("%s: corrupt din decode returned a partial stream", name)
		}
	}
}

// dinDecoders selects the two .din materializations: a bare
// *trace.DinReader takes the chunk-parallel parser, one hidden behind
// another type the per-line loop.
var dinDecoders = map[string]func(*trace.DinReader) trace.Reader{
	"parallel": func(d *trace.DinReader) trace.Reader { return d },
	"serial":   func(d *trace.DinReader) trace.Reader { return struct{ trace.Reader }{d} },
}

// TestDinDeferredIOError fails the source of a .din decode at and
// inside a line. Both decodes parse every byte read before the failure,
// a partial last line included, as bufio.Scanner does: a corrupt
// partial line reports a CorruptError, anything else the read error.
// faultreader's default error is io.ErrUnexpectedEOF, the error a cut
// .gz stream gives, which must not pass for the end of input.
func TestDinDeferredIOError(t *testing.T) {
	const pairs = 20000 // "0 1000\n1 2000\n", 14 bytes a pair: several 64 KiB chunks
	text := strings.Repeat("0 1000\n1 2000\n", pairs)
	boom := errors.New("disk pulled")
	k := int64(pairs * 3 / 4) // the failure falls in the last chunk, not the first
	cases := []struct {
		name    string
		failAt  int64
		err     error
		want    error
		corrupt int // the line a CorruptError must name; 0 wants the read error
	}{
		{"line boundary", 14 * k, boom, boom, 0},
		{"valid partial line", 14*k + 7 + 4, boom, boom, 0}, // "1 20"
		{"bare label", 14*k + 2, boom, nil, int(2*k + 1)},   // "0 "
		{"default error", 14 * k, nil, io.ErrUnexpectedEOF, 0},
		{"default error mid-line", 14*k + 3, nil, io.ErrUnexpectedEOF, 0}, // "0 1"
	}
	for _, tc := range cases {
		cfg := faultreader.Passthrough()
		cfg.FailAt, cfg.Err = tc.failAt, tc.err
		msgs := map[string]string{}
		for name, wrap := range dinDecoders {
			bs, err := trace.MaterializeBlockStream(wrap(trace.NewDinReader(faultreader.New(strings.NewReader(text), cfg))), 16)
			if bs != nil {
				t.Errorf("%s/%s: failed din decode returned a partial stream", tc.name, name)
			}
			if err == nil {
				t.Fatalf("%s/%s: decode over a dying reader succeeded", tc.name, name)
			}
			msgs[name] = err.Error()
			if tc.corrupt == 0 {
				if !errors.Is(err, tc.want) {
					t.Errorf("%s/%s: %v, want %v", tc.name, name, err, tc.want)
				}
				continue
			}
			var ce *trace.CorruptError
			if !errors.As(err, &ce) || ce.Line != tc.corrupt {
				t.Errorf("%s/%s: %v, want a CorruptError at line %d", tc.name, name, err, tc.corrupt)
			}
		}
		if msgs["parallel"] != msgs["serial"] {
			t.Errorf("%s: parallel error %q, serial %q", tc.name, msgs["parallel"], msgs["serial"])
		}
	}
}

// gzipBytes compresses b.
func gzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// TestDinGzipTruncation cuts a .din.gz short: the gzip reader reports
// io.ErrUnexpectedEOF, and every decode, OpenFile's and the streamed
// one's included, must return it rather than the decoded prefix —
// through OpenFile and StreamFileSpans as a *trace.TruncatedError.
func TestDinGzipTruncation(t *testing.T) {
	z := gzipBytes(t, []byte(strings.Repeat("0 1000\n1 2000\n", 20000)))
	cut := z[:len(z)*3/4]
	for name, wrap := range dinDecoders {
		zr, err := gzip.NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		bs, err := trace.MaterializeBlockStream(wrap(trace.NewDinReader(zr)), 16)
		if !errors.Is(err, io.ErrUnexpectedEOF) || bs != nil {
			t.Errorf("%s: cut .din.gz decoded to (%v, %v), want io.ErrUnexpectedEOF", name, bs != nil, err)
		}
	}
	path := filepath.Join(t.TempDir(), "cut.din.gz")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	var te *trace.TruncatedError
	r, c, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if bs, err := trace.MaterializeBlockStream(r, 16); !errors.Is(err, io.ErrUnexpectedEOF) || !errors.As(err, &te) || bs != nil {
		t.Errorf("OpenFile of a cut .din.gz decoded to (%v, %v), want a *trace.TruncatedError matching io.ErrUnexpectedEOF", bs != nil, err)
	}
	p, err := trace.StreamFileSpans(context.Background(), path, 16, trace.SpanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range p.Spans() {
	}
	if err := p.Err(); !errors.Is(err, io.ErrUnexpectedEOF) || !errors.As(err, &te) {
		t.Errorf("streamed cut .din.gz: %v, want a *trace.TruncatedError matching io.ErrUnexpectedEOF", err)
	}
}

// TestGzipFileTruncation cuts .din.gz and .dtb.gz files short, inside
// the compressed data, in the gzip trailer and inside the gzip header.
// The reference is the serial decode of the same file (OpenFile's
// reader behind another type): it must fail with a *TruncatedError
// matching io.ErrUnexpectedEOF, except that a .din cut inside the data
// may end on a partial line, whose *CorruptError the per-line decode
// meets first. OpenFile's chunk-parallel materialization and
// StreamFileSpans must fail with the reference's error text, and never
// return the decoded prefix.
func TestGzipFileTruncation(t *testing.T) {
	dtb, _ := binPayload(t, 60000)
	dir := t.TempDir()
	for name, raw := range map[string][]byte{
		"t.din.gz": []byte(strings.Repeat("0 1000\n1 2000\n2 3000\n", 20000)),
		"t.dtb.gz": dtb,
	} {
		z := gzipBytes(t, raw)
		for _, cut := range []struct {
			n     int
			where string
		}{{len(z) / 2, "data"}, {len(z) * 3 / 4, "data"}, {len(z) - 4, "trailer"}, {5, "header"}} {
			label := fmt.Sprintf("%s cut to %d of %d bytes (%s)", name, cut.n, len(z), cut.where)
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, z[:cut.n], 0o644); err != nil {
				t.Fatal(err)
			}
			// The serial reference decode.
			var ref error
			r, c, err := trace.OpenFile(path)
			if err != nil {
				ref = err
			} else {
				bs, err := trace.MaterializeBlockStream(struct{ trace.Reader }{r}, 16)
				c.Close()
				if bs != nil || err == nil {
					t.Fatalf("%s: the serial decode returned the decoded prefix (%v)", label, err)
				}
				ref = err
			}
			var te *trace.TruncatedError
			var ce *trace.CorruptError
			partialLine := strings.HasSuffix(name, ".din.gz") && cut.where == "data" && errors.As(ref, &ce)
			if !partialLine && (!errors.As(ref, &te) || !errors.Is(ref, io.ErrUnexpectedEOF)) {
				t.Errorf("%s, serial: %v, want a *trace.TruncatedError matching io.ErrUnexpectedEOF", label, ref)
			}
			same := func(how string, err error) {
				t.Helper()
				if err == nil || err.Error() != ref.Error() {
					t.Errorf("%s, %s: %v, want the serial decode's %q", label, how, err, ref)
				}
			}
			if r, c, err := trace.OpenFile(path); err != nil {
				same("open", err)
			} else {
				bs, err := trace.MaterializeBlockStream(r, 16)
				c.Close()
				if bs != nil {
					t.Errorf("%s: materialized the decoded prefix", label)
				}
				same("materialized", err)
			}
			p, err := trace.StreamFileSpans(context.Background(), path, 16, trace.SpanOptions{})
			if err == nil {
				for range p.Spans() {
				}
				err = p.Err()
			}
			same("streamed", err)
		}
	}
}

func TestAccessLevelFault(t *testing.T) {
	_, tr := binPayload(t, 8000)
	boom := errors.New("generator wedged")
	fr := faultreader.NewAccess(tr.NewSliceReader(), 6000, boom)
	bs, err := trace.MaterializeBlockStream(fr, 16)
	if !errors.Is(err, boom) {
		t.Fatalf("decode over failing access source: %v, want the injected error", err)
	}
	if bs != nil {
		t.Error("failed decode returned a partial stream")
	}
	if fr.Served() != 6000 {
		t.Errorf("fault fired after %d accesses, want 6000", fr.Served())
	}
}
