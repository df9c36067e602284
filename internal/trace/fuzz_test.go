package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Decoders must never panic on arbitrary input: they either parse or
// return an error. (Without -fuzz these run over the seed corpus only.)

func FuzzDinReader(f *testing.F) {
	f.Add("0 1000\n1 dead\n2 beef\n")
	f.Add("")
	f.Add("garbage\n")
	f.Add("0\n")
	f.Add("9 0\n")
	f.Add("0 zz\n")
	f.Add("0 ffffffffffffffffffff\n")
	f.Fuzz(func(t *testing.T, in string) {
		r := NewDinReader(strings.NewReader(in))
		for i := 0; i < 10000; i++ {
			a, err := r.Next()
			if err != nil {
				return
			}
			if !a.Kind.Valid() {
				t.Fatalf("decoder produced invalid kind %d", a.Kind)
			}
		}
	})
}

// FuzzDinLine holds the .din line decoders to the reference parser
// (dinref_test.go) on one arbitrary line: the chunk kernel, fast path
// and fallback, with and without a newline after the line, and
// DinReader must accept exactly the lines the reference accepts, with
// the same kind and address, and reject the rest with the same error
// text.
func FuzzDinLine(f *testing.F) {
	for _, ln := range []string{
		"0 1000", "2 4010e0", "1 ffffffffffffffff", "1 10000000000000000",
		"0 00000000000000001", "2 0x40", "2 0X40", "02 40", "3 40", "1  40",
		"1\t40", "1 40\r", "1 40 trailing", "", "   ", "1", "1 ", "x 40",
		"1 4g", "256 1", "\v1\f2", "1 0x", "2 \xc2\xa040",
	} {
		f.Add([]byte(ln))
	}
	f.Fuzz(func(t *testing.T, ln []byte) {
		if i := bytes.IndexByte(ln, '\n'); i >= 0 {
			ln = ln[:i]
		}
		const line = 7
		want, wantOK, werr := refParseDinLine(ln, line)
		check := func(label string, a Access, ok bool, err error) {
			t.Helper()
			if (err == nil) != (werr == nil) || ok != wantOK {
				t.Fatalf("%s on %q: ok %v, error %v; reference ok %v, error %v", label, ln, ok, err, wantOK, werr)
			}
			if err != nil && err.Error() != werr.Error() {
				t.Fatalf("%s on %q: error %q, reference %q", label, ln, err, werr)
			}
			if ok && a != want {
				t.Fatalf("%s on %q: %+v, reference %+v", label, ln, a, want)
			}
		}
		a, ok, err := parseDinLine(ln, line)
		check("parseDinLine", a, ok, err)

		for _, text := range [][]byte{ln, append(bytes.Clone(ln), '\n')} {
			cc := new(chunkCompressor)
			cc.reset(true)
			err := parseDinInto(cc, text, line, 0)
			var a Access
			switch n := len(cc.c.ids); {
			case n > 1:
				t.Fatalf("kernel on %q: %d runs from one line", text, n)
			case n == 1:
				a = Access{Addr: cc.c.ids[0], Kind: cc.c.kinds[0].FirstKind()}
				if cc.c.kinds[0] != kindRunOf(a.Kind) || cc.c.accesses != 1 {
					t.Fatalf("kernel on %q: run %+v of %d accesses", text, cc.c.kinds[0], cc.c.accesses)
				}
			}
			check(fmt.Sprintf("kernel (newline %v)", len(text) > len(ln)), a, len(cc.c.ids) == 1, err)
		}

		d := NewDinReader(bytes.NewReader(append([]byte(strings.Repeat("\n", line-1)), ln...)))
		a, err = d.Next()
		if errors.Is(err, io.EOF) {
			ok, err = false, nil
		} else {
			ok = err == nil
		}
		check("DinReader", a, ok, err)
	})
}

func FuzzBinReader(f *testing.F) {
	// Seed with a valid encoding and several corruptions.
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	for _, a := range []Access{{Addr: 0}, {Addr: 1 << 40, Kind: IFetch}, {Addr: 5, Kind: DataWrite}} {
		w.WriteAccess(a)
	}
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DTB1"))
	f.Add([]byte("DTB2\x00\x00"))
	f.Add(append(append([]byte{}, valid...), 0xFF))
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewBinReader(bytes.NewReader(in))
		for i := 0; i < 10000; i++ {
			a, err := r.Next()
			if err != nil {
				return
			}
			if !a.Kind.Valid() {
				t.Fatalf("decoder produced invalid kind %d", a.Kind)
			}
		}
	})
}

// Round-trip property under fuzzing: whatever accesses we encode decode
// back identically in both formats.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, kinds uint8) {
		var tr Trace
		for i := 0; i+8 <= len(raw); i += 8 {
			var addr uint64
			for j := 0; j < 8; j++ {
				addr = addr<<8 | uint64(raw[i+j])
			}
			tr = append(tr, Access{Addr: addr, Kind: Kind((kinds + uint8(i)) % 3)})
		}

		var din bytes.Buffer
		dw := NewDinWriter(&din)
		if _, err := Copy(dw, tr.NewSliceReader()); err != nil {
			t.Fatal(err)
		}
		dw.Flush()
		gotDin, err := ReadAll(NewDinReader(&din))
		if err != nil {
			t.Fatalf("din decode: %v", err)
		}

		var bin bytes.Buffer
		bw := NewBinWriter(&bin)
		if _, err := Copy(bw, tr.NewSliceReader()); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		gotBin, err := ReadAll(NewBinReader(&bin))
		if err != nil {
			t.Fatalf("bin decode: %v", err)
		}

		if len(gotDin) != len(tr) || len(gotBin) != len(tr) {
			t.Fatalf("lengths: din %d, bin %d, want %d", len(gotDin), len(gotBin), len(tr))
		}
		for i := range tr {
			if gotDin[i] != tr[i] || gotBin[i] != tr[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}

// FuzzDinCorrupt drives arbitrary bytes through the chunk-parallel din
// decode: every failure must be a typed, position-carrying error from
// the taxonomy in errors.go, and a failed decode must never emit a span
// past the corruption. DinReader's per-line decode must match the
// reference too.
func FuzzDinCorrupt(f *testing.F) {
	f.Add("0 1000\n1 1004\n2 2000\n")
	f.Add("0 zz\n")
	f.Add("garbage here\n")
	f.Add("0 1000")
	f.Add(strings.Repeat("1 40\n", 300))
	f.Fuzz(func(t *testing.T, in string) {
		p, err := StreamSpans(context.Background(), NewDinReader(strings.NewReader(in)), 16, SpanOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkCorruptDecode(t, p, func() (*BlockStream, error) {
			return MaterializeBlockStream(serialDin([]byte(in)), 16)
		})
		want, werr := serialMaterialize([]byte(in), 16, false)
		got, err := perLineMaterialize([]byte(in), 16, false)
		sameDecode(t, "per-line", got, err, want, werr)
	})
}

// FuzzBinCorrupt is FuzzDinCorrupt for the binary format, where
// positions are byte offsets instead of line numbers.
func FuzzBinCorrupt(f *testing.F) {
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	for i := 0; i < 100; i++ {
		w.WriteAccess(Access{Addr: uint64(i) * 32, Kind: Kind(i % 3)})
	}
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DTB1\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := StreamSpans(context.Background(), NewBinReader(bytes.NewReader(in)), 16, SpanOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkCorruptDecode(t, p, func() (*BlockStream, error) {
			return MaterializeBlockStream(NewBinReader(bytes.NewReader(in)), 16)
		})
	})
}

// checkCorruptDecode drains p and holds it to the serial decode: a
// clean input streams to exactly the serial stream, and a failing one
// fails with the serial decode's error, typed and positioned.
func checkCorruptDecode(t *testing.T, p *StreamPipeline, serial func() (*BlockStream, error)) {
	t.Helper()
	spans := drainSpans(p)
	err := p.Err()
	want, serr := serial()
	if (err == nil) != (serr == nil) {
		t.Fatalf("span pipeline error %v, serial error %v", err, serr)
	}
	if err == nil {
		sameBlockStream(t, "clean decode", concatSpans(16, false, spans), want)
		return
	}
	if err.Error() != serr.Error() {
		t.Fatalf("span pipeline error %q, serial error %q", err, serr)
	}
	requireTypedPositioned(t, err)
}

// requireTypedPositioned asserts err belongs to the corrupt-input
// taxonomy and carries a usable position.
func requireTypedPositioned(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not match ErrCorrupt", err)
	}
	var te *TruncatedError
	var ce *CorruptError
	switch {
	case errors.As(err, &te):
		// Accesses counts the clean prefix; Offset may be -1 for the
		// line-oriented format.
	case errors.As(err, &ce):
		if ce.Line <= 0 && ce.Offset < 0 {
			t.Fatalf("corruption without a position: %#v", ce)
		}
	default:
		t.Fatalf("untyped corrupt-input error %v", err)
	}
}
