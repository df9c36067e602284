package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// The Dinero .din trace format is one access per line:
//
//	<label> <hex address>
//
// where label 0 is a data read, 1 a data write and 2 an instruction
// fetch. Addresses are hexadecimal without a 0x prefix. Blank lines are
// ignored; anything after the address on a line is ignored (Dinero IV
// tolerates trailing fields).

// maxDinLine is the longest .din line accepted, its newline included;
// a longer one is corrupt input ("line too long").
const maxDinLine = 1 << 20

// DinReader decodes the .din format from an io.Reader.
type DinReader struct {
	scanner *bufio.Scanner
	line    int
	// src is the input while nothing has been read from it; a
	// materialization takes the whole input over from here (takeInput).
	src io.Reader
}

// NewDinReader returns a DinReader wrapping r.
//
// MaterializeBlockStream and MaterializeBlockStreamWithKinds decode a
// DinReader that has not been read yet with a chunk-parallel parser
// instead of calling Next per line; the stream, and the error for a
// corrupt input, are the same either way.
func NewDinReader(r io.Reader) *DinReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxDinLine)
	return &DinReader{scanner: sc, src: r}
}

// takeInput hands the reader's undecoded input to the caller, or
// returns nil when reading has begun. Afterwards the reader is
// exhausted: Next reports io.EOF.
func (d *DinReader) takeInput() io.Reader {
	src := d.src
	if src != nil {
		d.src = nil
		d.scanner = bufio.NewScanner(bytes.NewReader(nil))
	}
	return src
}

// Next implements Reader. It returns io.EOF at end of input and a
// descriptive error (with line number) on malformed input.
//
// The hot path is allocation-free: fields are located by an index-based
// two-field split over the scanner's byte view (no per-line string or
// field-slice allocation), and the label and address parse directly
// from the bytes. Only error construction allocates.
func (d *DinReader) Next() (Access, error) {
	d.src = nil
	for d.scanner.Scan() {
		d.line++
		b := d.scanner.Bytes()
		// First field: the label.
		i := skipSpace(b, 0)
		if i == len(b) {
			continue // blank line
		}
		labelStart := i
		i = skipField(b, i)
		labelEnd := i
		// Second field: the address. Anything after it is ignored
		// (Dinero IV tolerates trailing fields).
		i = skipSpace(b, i)
		addrStart := i
		i = skipField(b, i)
		addrEnd := i
		if addrEnd == addrStart {
			return Access{}, &CorruptError{Format: "din", Line: d.line, Offset: -1,
				Msg: fmt.Sprintf("need label and address, got %q", bytes.TrimSpace(b))}
		}
		label, ok := parseLabel(b[labelStart:labelEnd])
		if !ok || !Kind(label).Valid() {
			return Access{}, &CorruptError{Format: "din", Line: d.line, Offset: -1,
				Msg: fmt.Sprintf("bad label %q", b[labelStart:labelEnd])}
		}
		addr, ok := parseHex(b[addrStart:addrEnd])
		if !ok {
			return Access{}, &CorruptError{Format: "din", Line: d.line, Offset: -1,
				Msg: fmt.Sprintf("bad address %q", b[addrStart:addrEnd])}
		}
		return Access{Addr: addr, Kind: Kind(label)}, nil
	}
	if err := d.scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Access{}, &CorruptError{Format: "din", Line: d.line + 1, Offset: -1,
				Msg: "line too long", Err: err}
		}
		return Access{}, err
	}
	return Access{}, io.EOF
}

// skipSpace advances past ASCII whitespace from i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\v' || b[i] == '\f') {
		i++
	}
	return i
}

// skipField advances past non-whitespace from i.
func skipField(b []byte, i int) int {
	for i < len(b) && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' && b[i] != '\v' && b[i] != '\f' {
		i++
	}
	return i
}

// parseLabel parses a small decimal integer (the din label column),
// tolerating arbitrary leading zeros as strconv.ParseUint does.
func parseLabel(b []byte) (uint8, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
		if v > 255 {
			return 0, false
		}
	}
	return uint8(v), true
}

// parseHex parses a hexadecimal address, tolerating an optional 0x/0X
// prefix, and reports overflow as failure.
func parseHex(b []byte) (uint64, bool) {
	if len(b) >= 2 && b[0] == '0' && (b[1] == 'x' || b[1] == 'X') {
		b = b[2:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v >= 1<<60 {
			return 0, false // next shift would overflow
		}
		v = v<<4 | d
	}
	return v, true
}

// ReadBatch implements BatchReader: it decodes up to len(dst) lines with
// one call, so consumers pay one dynamic dispatch per batch instead of
// one per line.
func (d *DinReader) ReadBatch(dst []Access) (int, error) {
	for n := range dst {
		a, err := d.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && n > 0 {
				return n, nil
			}
			return n, err
		}
		dst[n] = a
	}
	return len(dst), nil
}

// DinWriter encodes accesses in the .din format.
type DinWriter struct {
	w *bufio.Writer
}

// NewDinWriter returns a DinWriter targeting w. Call Flush when done.
func NewDinWriter(w io.Writer) *DinWriter {
	return &DinWriter{w: bufio.NewWriter(w)}
}

// WriteAccess implements Writer.
func (d *DinWriter) WriteAccess(a Access) error {
	if !a.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode invalid kind %d", a.Kind)
	}
	_, err := fmt.Fprintf(d.w, "%d %x\n", a.Kind, a.Addr)
	return err
}

// Flush writes any buffered output to the underlying writer.
func (d *DinWriter) Flush() error { return d.w.Flush() }
