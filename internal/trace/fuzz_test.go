package trace

import (
	"bytes"
	"context"
	"errors"
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
// past the corruption.
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
