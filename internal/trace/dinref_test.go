package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The reference .din decoder the production decoders are held to. It
// is the field-split parser DinReader used before the chunk kernel
// (parseDinInto) gained its fast path, made self-contained: its own
// whitespace set and field split, and strconv for the label and the
// address, so it shares no code with parseDinLine.

// refDinSpace reports whether c separates .din fields.
func refDinSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// refParseDinLine decodes one line, its newline removed: ok false for
// a blank line, a *CorruptError naming line for a malformed one.
func refParseDinLine(ln []byte, line int) (a Access, ok bool, err error) {
	i := 0
	field := func() []byte {
		for i < len(ln) && refDinSpace(ln[i]) {
			i++
		}
		start := i
		for i < len(ln) && !refDinSpace(ln[i]) {
			i++
		}
		return ln[start:i]
	}
	label, addr := field(), field()
	if len(label) == 0 {
		return Access{}, false, nil
	}
	if len(addr) == 0 {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("need label and address, got %q", bytes.TrimSpace(ln))}
	}
	k, err := strconv.ParseUint(string(label), 10, 8)
	if err != nil || !Kind(k).Valid() {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad label %q", label)}
	}
	hex := addr
	if len(hex) >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X') {
		hex = hex[2:]
	}
	v, err := strconv.ParseUint(string(hex), 16, 64)
	if err != nil {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad address %q", addr)}
	}
	return Access{Addr: v, Kind: Kind(k)}, true, nil
}

// refDinReader is the reference reader: bufio.Scanner lines, at most
// maxDinLine bytes each, through refParseDinLine.
type refDinReader struct {
	sc   *bufio.Scanner
	line int
}

func (r *refDinReader) Next() (Access, error) {
	for r.sc.Scan() {
		r.line++
		a, ok, err := refParseDinLine(r.sc.Bytes(), r.line)
		if err != nil {
			return Access{}, err
		}
		if ok {
			return a, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Access{}, &CorruptError{Format: "din", Line: r.line + 1, Offset: -1,
				Msg: "line too long", Err: err}
		}
		return Access{}, err
	}
	return Access{}, io.EOF
}

// serialDin returns the reference reader over .din text.
func serialDin(text []byte) Reader {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), maxDinLine)
	return &refDinReader{sc: sc}
}

// serialMaterialize is the reference decode of .din text.
func serialMaterialize(text []byte, blockSize int, kinds bool) (*BlockStream, error) {
	if kinds {
		return MaterializeBlockStreamWithKinds(serialDin(text), blockSize)
	}
	return MaterializeBlockStream(serialDin(text), blockSize)
}

// perLineDinReader hides the concrete *DinReader, so a materialization
// over it runs DinReader's per-line loop instead of the chunk kernel.
type perLineDinReader struct{ d *DinReader }

func (s perLineDinReader) Next() (Access, error)               { return s.d.Next() }
func (s perLineDinReader) ReadBatch(dst []Access) (int, error) { return s.d.ReadBatch(dst) }

// perLineDin returns DinReader's per-line decode over .din text.
func perLineDin(text []byte) Reader {
	return perLineDinReader{NewDinReader(bytes.NewReader(text))}
}

// perLineMaterialize is DinReader's per-line decode of .din text, the
// path per-access consumers take; tests hold it to the reference next
// to the chunk kernel.
func perLineMaterialize(text []byte, blockSize int, kinds bool) (*BlockStream, error) {
	if kinds {
		return MaterializeBlockStreamWithKinds(perLineDin(text), blockSize)
	}
	return MaterializeBlockStream(perLineDin(text), blockSize)
}
