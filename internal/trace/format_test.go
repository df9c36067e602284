package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestDinRoundTrip(t *testing.T) {
	tr := sampleTrace(500, 10)
	var buf bytes.Buffer
	w := NewDinWriter(&buf)
	if _, err := Copy(w, tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewDinReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(got), len(tr))
	}
	for i := range got {
		if got[i] != tr[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], tr[i])
		}
	}
}

func TestDinReaderTolerance(t *testing.T) {
	// Blank lines, 0x prefixes and trailing fields are accepted.
	in := "0 1000\n\n2 0xFF anything else\n1 abc\n"
	got, err := ReadAll(NewDinReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{
		{Addr: 0x1000, Kind: DataRead},
		{Addr: 0xFF, Kind: IFetch},
		{Addr: 0xabc, Kind: DataWrite},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDinReaderErrors(t *testing.T) {
	cases := []struct {
		name, in, sub string
	}{
		{"missing address", "0\n", "need label and address"},
		{"bad label", "7 1000\n", "bad label"},
		{"nonnumeric label", "x 1000\n", "bad label"},
		{"bad address", "0 xyz\n", "bad address"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadAll(NewDinReader(strings.NewReader(c.in)))
			if err == nil || !strings.Contains(err.Error(), c.sub) {
				t.Fatalf("err = %v, want substring %q", err, c.sub)
			}
		})
	}
}

// TestDinWriterMatchesFmt holds DinWriter's hand-rolled encoder to the
// fmt form it replaces, "%d %x\n", byte for byte over seeded random
// accesses whose addresses span every hex width from 1 to 16 digits.
func TestDinWriterMatchesFmt(t *testing.T) {
	const seed = 23
	rng := rand.New(rand.NewSource(seed))
	var got, want bytes.Buffer
	w := NewDinWriter(&got)
	for i := 0; i < 20000; i++ {
		a := Access{Addr: rng.Uint64() >> rng.Intn(64), Kind: Kind(rng.Intn(3))}
		switch i {
		case 0:
			a.Addr = 0
		case 1:
			a.Addr = math.MaxUint64
		}
		if err := w.WriteAccess(a); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%d %x\n", a.Kind, a.Addr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("seed %d: writer output differs from fmt at byte %d of %d", seed, i, want.Len())
	}
}

func TestDinWriterRejectsInvalidKind(t *testing.T) {
	w := NewDinWriter(io.Discard)
	if err := w.WriteAccess(Access{Kind: 9}); err == nil {
		t.Fatal("want error for invalid kind")
	}
}

func TestBinRoundTrip(t *testing.T) {
	tr := sampleTrace(2000, 11)
	// Add some adversarial deltas: max addr, zero, descending runs.
	tr = append(tr, Access{Addr: ^uint64(0)}, Access{Addr: 0}, Access{Addr: 1 << 63})
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	if _, err := Copy(w, tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewBinReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(got), len(tr))
	}
	for i := range got {
		if got[i] != tr[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], tr[i])
		}
	}
}

func TestBinCompressionBeatsNaive(t *testing.T) {
	// A sequential instruction stream should encode far below 8 bytes
	// per access (the point of delta encoding).
	tr := make(Trace, 10000)
	for i := range tr {
		tr[i] = Access{Addr: 0x400000 + uint64(4*i), Kind: IFetch}
	}
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	if _, err := Copy(w, tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	perAccess := float64(buf.Len()) / float64(len(tr))
	if perAccess > 3 {
		t.Errorf("sequential stream encodes at %.2f bytes/access, want <= 3", perAccess)
	}
}

func TestBinEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewBinReader(&buf))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %d accesses, %v", len(got), err)
	}
}

func TestBinBadMagic(t *testing.T) {
	_, err := ReadAll(NewBinReader(strings.NewReader("not a trace")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	_, err = ReadAll(NewBinReader(strings.NewReader("")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty input err = %v, want ErrBadMagic", err)
	}
}

func TestBinTruncated(t *testing.T) {
	tr := sampleTrace(10, 12)
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	Copy(w, tr.NewSliceReader())
	w.Flush()
	cut := buf.Bytes()[:buf.Len()-1]
	_, err := ReadAll(NewBinReader(bytes.NewReader(cut)))
	if err == nil {
		t.Fatal("truncated trace should error")
	}
}

func TestBinCorruptKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.WriteByte(200) // invalid kind
	buf.WriteByte(0)
	_, err := ReadAll(NewBinReader(&buf))
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("err = %v, want kind error", err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	cases := map[string]Format{
		"a.din":    FormatDin,
		"a.din.gz": FormatDin,
		"a.dtb":    FormatBin,
		"a.dtb.gz": FormatBin,
		"a.txt":    FormatDin,
	}
	for name, want := range cases {
		if got := DetectFormat(name); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFileRoundTripAllFormats(t *testing.T) {
	tr := sampleTrace(300, 13)
	dir := t.TempDir()
	for _, name := range []string{"t.din", "t.din.gz", "t.dtb", "t.dtb.gz"} {
		path := filepath.Join(dir, name)
		w, closer, err := CreateFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Copy(w, tr.NewSliceReader()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		r, rc, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		got, err := ReadAll(r)
		rc.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("%s: got %d accesses, want %d", name, len(got), len(tr))
		}
		for i := range got {
			if got[i] != tr[i] {
				t.Fatalf("%s: access %d mismatch", name, i)
			}
		}
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, _, err := OpenFile(filepath.Join(t.TempDir(), "nope.din")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestProfile(t *testing.T) {
	tr := Trace{
		{Addr: 0, Kind: DataRead},
		{Addr: 3, Kind: DataWrite},  // same 4B block as 0
		{Addr: 4, Kind: IFetch},     // new block
		{Addr: 100, Kind: DataRead}, // new block
		{Addr: 101, Kind: DataRead}, // same block as 100
	}
	p, err := ProfileReader(tr.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 5 || p.Reads() != 3 || p.Writes() != 1 || p.IFetches() != 1 {
		t.Errorf("mix wrong: %+v", p)
	}
	if p.UniqueBlocks != 3 {
		t.Errorf("UniqueBlocks = %d, want 3", p.UniqueBlocks)
	}
	if p.MinAddr != 0 || p.MaxAddr != 101 {
		t.Errorf("bounds = [%d,%d], want [0,101]", p.MinAddr, p.MaxAddr)
	}
	if p.FootprintBytes() != 12 {
		t.Errorf("FootprintBytes = %d, want 12", p.FootprintBytes())
	}
	if s := p.String(); !strings.Contains(s, "5 accesses") {
		t.Errorf("String = %q", s)
	}
}

func TestProfileBadBlockSize(t *testing.T) {
	if _, err := ProfileReader(Trace{}.NewSliceReader(), 3); err == nil {
		t.Fatal("want error for non power of two block size")
	}
	if _, err := ProfileReader(Trace{}.NewSliceReader(), 0); err == nil {
		t.Fatal("want error for zero block size")
	}
}
