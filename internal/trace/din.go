package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
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
// The hot path is allocation-free: each line goes through
// parseDinLine over the scanner's byte view. Only error construction
// allocates.
func (d *DinReader) Next() (Access, error) {
	d.src = nil
	for d.scanner.Scan() {
		d.line++
		a, ok, err := parseDinLine(d.scanner.Bytes(), d.line)
		if err != nil {
			return Access{}, err
		}
		if ok {
			return a, nil
		}
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

// parseDinLine decodes one .din line, its newline removed, by the
// generic two-field split: it reports ok false for a blank line, and a
// *CorruptError naming line for a malformed one. Everything after the
// address is ignored (Dinero IV tolerates trailing fields). It is the
// whole of DinReader's line decode and the fallback of the chunk
// kernel (parseDinInto), so both accept the same lines and word their
// errors the same way.
func parseDinLine(b []byte, line int) (a Access, ok bool, err error) {
	// First field: the label.
	i := skipSpace(b, 0)
	if i == len(b) {
		return Access{}, false, nil // blank line
	}
	labelStart := i
	i = skipField(b, i)
	labelEnd := i
	// Second field: the address.
	i = skipSpace(b, i)
	addrStart := i
	i = skipField(b, i)
	addrEnd := i
	if addrEnd == addrStart {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("need label and address, got %q", bytes.TrimSpace(b))}
	}
	label, ok := parseLabel(b[labelStart:labelEnd])
	if !ok || !Kind(label).Valid() {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad label %q", b[labelStart:labelEnd])}
	}
	addr, ok := parseHex(b[addrStart:addrEnd])
	if !ok {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad address %q", b[addrStart:addrEnd])}
	}
	return Access{Addr: addr, Kind: Kind(label)}, true, nil
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
		d := hexDigit[c]
		if d > 15 {
			return 0, false
		}
		if v >= 1<<60 {
			return 0, false // next shift would overflow
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// hexDigit maps a byte to its hexadecimal value, or to 0xff for a byte
// that is not a hex digit.
var hexDigit = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= '0' && c <= '9':
			t[c] = uint8(c - '0')
		case c >= 'a' && c <= 'f':
			t[c] = uint8(c-'a') + 10
		case c >= 'A' && c <= 'F':
			t[c] = uint8(c-'A') + 10
		default:
			t[c] = 0xff
		}
	}
	return t
}()

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
	w   *bufio.Writer
	buf []byte // one encoded line, reused
}

// NewDinWriter returns a DinWriter targeting w. Call Flush when done.
func NewDinWriter(w io.Writer) *DinWriter {
	return &DinWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 24)}
}

// WriteAccess implements Writer. Each line is the decimal kind, a
// space and the lower-case hex address without a prefix — the bytes
// fmt's "%d %x\n" would print — encoded without allocating.
func (d *DinWriter) WriteAccess(a Access) error {
	if !a.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode invalid kind %d", a.Kind)
	}
	b := strconv.AppendUint(d.buf[:0], uint64(a.Kind), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, a.Addr, 16)
	d.buf = append(b, '\n')
	_, err := d.w.Write(d.buf)
	return err
}

// Flush writes any buffered output to the underlying writer.
func (d *DinWriter) Flush() error { return d.w.Flush() }
