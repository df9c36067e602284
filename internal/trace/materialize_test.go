package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// sameDecode holds a decode to the serial reference: the same stream
// column for column, or the identical error text.
func sameDecode(t *testing.T, label string, got *BlockStream, err error, want *BlockStream, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, serial error %v", label, err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("%s: error %q, serial error %q", label, err, werr)
		}
		if got != nil {
			t.Fatalf("%s: failed decode returned a stream", label)
		}
		return
	}
	sameBlockStream(t, label, got, want)
}

// unwrapReader exposes its reader the way a resource-owning wrapper
// does, and counts the Next calls that reach it.
type unwrapReader struct {
	r     Reader
	nexts int
	err   error
}

func (u *unwrapReader) Next() (Access, error) {
	u.nexts++
	a, err := u.r.Next()
	u.err = err
	return a, err
}

func (u *unwrapReader) Unwrap() Reader { return u.r }

func TestMaterializeDinMatchesSerial(t *testing.T) {
	text := dinText(pipelineTrace(rand.New(rand.NewSource(17)), 60000))
	for _, kinds := range []bool{false, true} {
		want, err := serialMaterialize(text, 16, kinds)
		if err != nil {
			t.Fatal(err)
		}
		materialize := MaterializeBlockStream
		if kinds {
			materialize = MaterializeBlockStreamWithKinds
		}
		got, err := materialize(NewDinReader(bytes.NewReader(text)), 16)
		sameDecode(t, fmt.Sprintf("kinds=%v", kinds), got, err, want, nil)
		got, err = materialize(perLineDin(text), 16)
		sameDecode(t, fmt.Sprintf("per-line kinds=%v", kinds), got, err, want, nil)

		// Through a wrapper: the parallel path, then one Next reporting
		// the end of the input.
		u := &unwrapReader{r: NewDinReader(bytes.NewReader(text))}
		got, err = materialize(u, 16)
		sameDecode(t, fmt.Sprintf("unwrapped kinds=%v", kinds), got, err, want, nil)
		if u.nexts != 1 || u.err != io.EOF {
			t.Errorf("wrapper saw %d Next calls ending in %v, want 1 ending in io.EOF", u.nexts, u.err)
		}

		for _, workers := range []int{1, 3} {
			got, err := materializeDin(bytes.NewReader(text), 16, kinds, workers, 4096, 1000)
			sameDecode(t, fmt.Sprintf("kinds=%v workers=%d", kinds, workers), got, err, want, nil)
		}
	}

	// A reader that has been read from keeps the per-line loop and
	// materializes the rest of its input.
	d := NewDinReader(bytes.NewReader(text))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	rest := serialDin(text)
	rest.Next()
	want, _ := MaterializeBlockStream(rest, 16)
	got, err := MaterializeBlockStream(d, 16)
	sameDecode(t, "read-started reader", got, err, want, nil)

	// Empty input, and a bad block size that must not touch the input.
	got, err = MaterializeBlockStream(NewDinReader(strings.NewReader("")), 16)
	want, werr := serialMaterialize(nil, 16, false)
	sameDecode(t, "empty", got, err, want, werr)
	d = NewDinReader(strings.NewReader("2 40\n"))
	if _, err := MaterializeBlockStream(d, 3); err == nil {
		t.Fatal("block size 3 accepted")
	}
	if a, err := d.Next(); err != nil || a.Addr != 0x40 {
		t.Fatalf("after a rejected block size the reader yields %v, %v", a, err)
	}
}

// TestDinErrorOrder puts a corrupt line at the end of a full chunk and
// another at the start of the next: the first chunk's worker parses a
// whole chunk before failing, the second fails at once, so the later
// error usually arrives first. Every decode must still name the first
// line, exactly as the reference and DinReader's per-line decode do.
func TestDinErrorOrder(t *testing.T) {
	const good, bad1, bad2 = "0 1000\n", "0 zzzz\n", "9 1000\n"
	for _, chunkBytes := range []int{dinChunkBytes, 1 << 20} {
		lines := chunkBytes / len(good) // whole lines in the first chunk
		text := []byte(strings.Repeat(good, lines-1) + bad1 + bad2 + strings.Repeat(good, lines))
		want, werr := serialMaterialize(text, 16, false)
		if werr == nil || !strings.Contains(werr.Error(), fmt.Sprintf("line %d:", lines)) {
			t.Fatalf("serial error %v does not name line %d", werr, lines)
		}
		for i := 0; i < 20; i++ {
			got, err := materializeDin(bytes.NewReader(text), 16, false, 2, chunkBytes, defaultSegRuns)
			sameDecode(t, fmt.Sprintf("materialized chunk=%d", chunkBytes), got, err, want, werr)
			p := streamDinChunks(t, text, 16, false, chunkBytes)
			drainSpans(p)
			sameDecode(t, fmt.Sprintf("streamed chunk=%d", chunkBytes), nil, p.Err(), want, werr)
		}
		got, err := MaterializeBlockStream(NewDinReader(bytes.NewReader(text)), 16)
		sameDecode(t, "default materialized", got, err, want, werr)
		got, err = perLineMaterialize(text, 16, false)
		sameDecode(t, "per-line", got, err, want, werr)
	}
}

// TestDinLongLine checks the line-length limit at its edge: a line of
// maxDinLine bytes, newline included, decodes; one byte more is "line
// too long" on that line, for the reference, per-line, materialized
// and streamed decodes alike. An unterminated last line gets one byte less.
func TestDinLongLine(t *testing.T) {
	long := func(n int, nl string) string { // an n-byte line, terminator included
		return "0 1000" + strings.Repeat(" ", n-len("0 1000")-len(nl)) + nl
	}
	for _, c := range []struct {
		text    string
		tooLong bool
	}{
		{"2 40\n" + long(maxDinLine, "\n") + "1 80\n", false},
		{"2 40\n" + long(maxDinLine+1, "\n") + "1 80\n", true},
		{"2 40\n" + long(maxDinLine-1, ""), false},
		{"2 40\n" + long(maxDinLine, ""), true},
	} {
		label := fmt.Sprintf("%d bytes, too long %v", len(c.text), c.tooLong)
		text := []byte(c.text)
		want, werr := serialMaterialize(text, 16, false)
		if c.tooLong != (werr != nil) {
			t.Fatalf("%s: serial error %v", label, werr)
		}
		if werr != nil && !strings.Contains(werr.Error(), "line 2: line too long") {
			t.Fatalf("%s: serial error %q", label, werr)
		}
		got, err := MaterializeBlockStream(NewDinReader(bytes.NewReader(text)), 16)
		sameDecode(t, label+" materialized", got, err, want, werr)
		got, err = perLineMaterialize(text, 16, false)
		sameDecode(t, label+" per-line", got, err, want, werr)
		got, err = materializeDin(bytes.NewReader(text), 16, false, 2, 4096, defaultSegRuns)
		sameDecode(t, label+" materialized 4 KiB chunks", got, err, want, werr)
		for _, chunkBytes := range []int{4096, 1 << 20} {
			p := streamDinChunks(t, text, 16, false, chunkBytes)
			spans := drainSpans(p)
			if err := p.Err(); err != nil || werr != nil {
				sameDecode(t, label+" streamed", nil, err, want, werr)
			} else {
				sameBlockStream(t, label+" streamed", concatSpans(16, false, spans), want)
			}
		}
	}
}

// FuzzDinMaterialize holds the chunk-parallel materialization to the
// reference decode over arbitrary bytes, with and without kinds, on
// 1-3 workers, tiny text chunks and tiny collect segments, so chunk
// boundaries fall inside runs, inside lines and inside blank stretches
// and segments seal every few runs: the same stream column for column,
// or the identical error. DinReader's per-line decode is held to the
// same reference.
func FuzzDinMaterialize(f *testing.F) {
	f.Add([]byte("0 1000\n1 1004\n2 2000\n"), uint8(0), uint8(3), uint8(0))
	f.Add([]byte(strings.Repeat("2 40\n2 44\n0 4c\n", 40)), uint8(0x81), uint8(1), uint8(1))
	f.Add([]byte(strings.Repeat("2 40\n2 44\n0 4c\n", 40)), uint8(0x00), uint8(5), uint8(3))
	f.Add([]byte("2 40\n\n  1   80  trailing junk\r\n0 a0"), uint8(0x42), uint8(7), uint8(0))
	f.Add([]byte("0 1000\n0 zz\n1 2000\nbogus\n"), uint8(0x13), uint8(2), uint8(0))
	f.Add([]byte("0 0x1000\n0 1000\n1 1\n9 2\n"), uint8(0x84), uint8(0), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, text []byte, mode, chunk, seg uint8) {
		kinds := mode&0x80 != 0
		workers := 1 + int(mode%3)
		block := 1 << ((mode >> 2) % 6)
		chunkBytes := 1 + int(chunk%32)
		segRuns := 2 + int(seg%64)
		want, werr := serialMaterialize(text, block, kinds)
		got, err := materializeDin(bytes.NewReader(text), block, kinds, workers, chunkBytes, segRuns)
		sameDecode(t, fmt.Sprintf("kinds=%v workers=%d block=%d chunk=%d seg=%d", kinds, workers, block, chunkBytes, segRuns),
			got, err, want, werr)
		got, err = perLineMaterialize(text, block, kinds)
		sameDecode(t, fmt.Sprintf("per-line kinds=%v block=%d", kinds, block), got, err, want, werr)
	})
}
